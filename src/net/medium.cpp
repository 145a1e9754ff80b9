#include "net/medium.hpp"

#include <algorithm>

#include "net/device.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::net {

namespace {
/// Serialisation delay per wire byte: ~8 Mbit/s effective.
constexpr Duration kPerByteDelay = usec(1);

/// First station whose address is not below `a`.
template <class Stations>
auto station_lower_bound(Stations& stations, Addr a) {
  return std::lower_bound(
      stations.begin(), stations.end(), a,
      [](const auto& s, Addr key) { return s.addr < key; });
}
}  // namespace

SimMedium::SimMedium(Scheduler& sched, std::uint64_t seed)
    : sched_(sched), rng_(seed) {}

const SimMedium::Station* SimMedium::find_station(Addr a) const {
  auto it = station_lower_bound(stations_, a);
  return it != stations_.end() && it->addr == a ? &*it : nullptr;
}

SimMedium::Station& SimMedium::station(Addr a) {
  auto it = station_lower_bound(stations_, a);
  if (it == stations_.end() || it->addr != a) {
    it = stations_.insert(it, Station{a, nullptr, {}});
  }
  return *it;
}

void SimMedium::attach(NetworkDevice& device) {
  MK_ASSERT(device.medium_ == nullptr, "device already attached");
  Station& s = station(device.addr());
  MK_ASSERT(s.device == nullptr, "duplicate device address");
  s.device = &device;
  device.medium_ = this;
}

void SimMedium::detach(Addr addr) {
  auto it = station_lower_bound(stations_, addr);
  if (it == stations_.end() || it->addr != addr || it->device == nullptr) {
    return;
  }
  it->device->medium_ = nullptr;
  it->device = nullptr;
}

void SimMedium::set_link(Addr a, Addr b, bool up, bool symmetric) {
  MK_ASSERT(a != b);
  auto apply = [&](Addr from, Addr to) {
    std::vector<Addr>& nbrs = station(from).neighbors;
    auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
    bool was = it != nbrs.end() && *it == to;
    if (up && !was) {
      nbrs.insert(it, to);
    } else if (!up && was) {
      nbrs.erase(it);
    }
    if (was != up) {
      link_flips_.inc();
      if (journal_ != nullptr) {
        journal_->append({up ? obs::RecordKind::kLinkUp
                             : obs::RecordKind::kLinkDown,
                          from, sched_.now().us, to, 0, 0});
      }
      for (const auto& obs : link_observers_) obs(from, to, up);
    }
  };
  apply(a, b);
  if (symmetric) apply(b, a);
}

bool SimMedium::has_link(Addr from, Addr to) const {
  const Station* s = find_station(from);
  return s != nullptr &&
         std::binary_search(s->neighbors.begin(), s->neighbors.end(), to);
}

void SimMedium::clear_links() {
  // Take every link down first, then notify in address order, so observers
  // already see the cleared topology.
  std::vector<std::pair<Addr, std::vector<Addr>>> old;
  for (Station& s : stations_) {
    if (!s.neighbors.empty()) old.emplace_back(s.addr, std::move(s.neighbors));
    s.neighbors.clear();
  }
  for (const auto& [from, tos] : old) {
    for (Addr to : tos) {
      link_flips_.inc();
      if (journal_ != nullptr) {
        journal_->append(
            {obs::RecordKind::kLinkDown, from, sched_.now().us, to, 0, 0});
      }
      for (const auto& obs : link_observers_) obs(from, to, false);
    }
  }
}

std::span<const Addr> SimMedium::neighbors_of(Addr a) const {
  const Station* s = find_station(a);
  if (s == nullptr) return {};
  return s->neighbors;
}

void SimMedium::set_clock_drift(Addr node, double factor) {
  // Bounded drift: a real oscillator is parts-per-million off, not orders of
  // magnitude — clamp so no plan can freeze or teleport a node's traffic.
  if (factor < 0.5) factor = 0.5;
  if (factor > 2.0) factor = 2.0;
  if (factor == 1.0) {
    drift_.erase(node);
  } else {
    drift_[node] = factor;
  }
}

double SimMedium::clock_drift(Addr node) const {
  auto it = drift_.find(node);
  return it == drift_.end() ? 1.0 : it->second;
}

bool SimMedium::transmit(const Frame& frame) {
  if (frame.kind == FrameKind::kControl) {
    control_frames_.inc();
    control_bytes_.inc(frame.wire_size());
  } else {
    data_frames_.inc();
    data_bytes_.inc(frame.wire_size());
  }
  journal_frame(obs::RecordKind::kFrameTx, frame.tx, frame.rx, frame);

  if (frame.rx == kBroadcast) {
    broadcast(frame);
    return true;
  }
  if (!has_link(frame.tx, frame.rx)) {
    failed_unicasts_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, frame.tx, frame.rx, frame,
                  obs::DropReason::kNoLink);
    return false;
  }
  const FaultVerdict verdict = verdict_for(frame, frame.rx);
  if (!verdict.drop && !lost(frame, frame.rx)) {
    deliver_later(frame, frame.rx, verdict);
  }
  return true;
}

void SimMedium::broadcast(const Frame& frame) {
  std::span<const Addr> targets = neighbors_of(frame.tx);
  if (targets.empty()) return;
  // A fault filter runs arbitrary user code per delivery; it walks a
  // snapshot of the neighbour set, so a filter (or anything it triggers)
  // mutating the topology cannot invalidate the iterator mid-fan-out. The
  // snapshot and the verdict list reuse member scratch buffers (moved out
  // for reentrancy safety), so an armed-but-idle fault plan stays
  // allocation-free steady-state.
  const bool filtered = fault_filter_ != nullptr;
  std::vector<Addr> snapshot;
  std::vector<FaultVerdict> verdicts;
  if (filtered) {
    snapshot = std::move(bcast_scratch_);
    snapshot.assign(targets.begin(), targets.end());
    targets = snapshot;
    verdicts = std::move(verdict_scratch_);
    verdicts.clear();
  }
  // The survivors go straight into a slot of our own; the filter runs
  // outside the lock, since it may transmit.
  std::uint32_t slot;
  PendingDelivery* p;
  {
    std::lock_guard<std::mutex> lock(delivery_mu_);
    p = &take_slot(slot);
  }
  bool retimed = false;  // a verdict added delay or duplicates
  for (Addr to : targets) {
    const FaultVerdict verdict = verdict_for(frame, to);
    if (verdict.drop || lost(frame, to)) continue;
    p->receivers.push_back(to);
    if (filtered) verdicts.push_back(verdict);
    retimed = retimed || verdict.extra_delay != Duration{} ||
              verdict.duplicates > 0;
  }
  if (retimed) {
    // The receivers no longer share one deadline: one event per delivery.
    for (std::size_t i = 0; i < p->receivers.size(); ++i) {
      deliver_later(frame, p->receivers[i], verdicts[i]);
    }
  }
  // Otherwise every receiver shares the one deadline, so one event
  // delivers them all in neighbour order: the order per-receiver events
  // would run in, as they would take consecutive sequence numbers at that
  // deadline.
  const bool batched = !retimed && !p->receivers.empty();
  {
    std::lock_guard<std::mutex> lock(delivery_mu_);
    if (batched) {
      p->frame = frame;  // shares the payload buffer; no byte copy
    } else {
      free_slot(slot);
    }
  }
  if (batched) {
    sched_.schedule_after(air_time(frame),
                          [this, slot] { fire_delivery(slot); });
  }
  if (filtered) {
    bcast_scratch_ = std::move(snapshot);
    verdict_scratch_ = std::move(verdicts);
  }
}

FaultVerdict SimMedium::verdict_for(const Frame& frame, Addr to) {
  if (fault_filter_ == nullptr) return {};
  FaultVerdict verdict = fault_filter_(frame, to);
  if (verdict.drop) {
    dropped_fault_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                  obs::DropReason::kFaultLoss);
  }
  return verdict;
}

void SimMedium::deliver_later(const Frame& frame, Addr to,
                              const FaultVerdict& verdict) {
  const Duration delay = air_time(frame) + verdict.extra_delay;
  schedule_delivery(frame, to, delay);
  for (std::uint32_t i = 1; i <= verdict.duplicates; ++i) {
    schedule_delivery(frame, to,
                      delay + Duration{verdict.dup_spacing.count() *
                                       static_cast<std::int64_t>(i)});
  }
}

bool SimMedium::lost(const Frame& frame, Addr to) {
  if (loss_prob_ <= 0.0 || !rng_.bernoulli(loss_prob_)) return false;
  dropped_loss_.inc();
  journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                obs::DropReason::kLoss);
  return true;
}

Duration SimMedium::air_time(const Frame& frame) const {
  Duration delay =
      base_delay_ + Duration{kPerByteDelay.count() *
                             static_cast<std::int64_t>(frame.wire_size())};
  auto drift = drift_.find(frame.tx);
  if (drift != drift_.end()) {
    delay = Duration{static_cast<std::int64_t>(
        static_cast<double>(delay.count()) * drift->second)};
  }
  return delay;
}

void SimMedium::schedule_delivery(const Frame& frame, Addr to, Duration delay) {
  std::uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(delivery_mu_);
    PendingDelivery& p = take_slot(slot);
    p.frame = frame;  // shares the payload buffer; no byte copy
    p.receivers.push_back(to);
  }
  sched_.schedule_after(delay, [this, slot] { fire_delivery(slot); });
}

SimMedium::PendingDelivery& SimMedium::take_slot(std::uint32_t& slot) {
  if (free_delivery_slots_.empty()) {
    slot = static_cast<std::uint32_t>(delivery_slots_.size());
    delivery_slots_.emplace_back();
  } else {
    slot = free_delivery_slots_.back();
    free_delivery_slots_.pop_back();
  }
  return delivery_slots_[slot];
}

void SimMedium::free_slot(std::uint32_t slot) {
  PendingDelivery& p = delivery_slots_[slot];
  p.frame = Frame{};
  p.receivers.clear();
  free_delivery_slots_.push_back(slot);
}

void SimMedium::fire_delivery(std::uint32_t slot) {
  PendingDelivery* p;
  {
    std::lock_guard<std::mutex> lock(delivery_mu_);
    p = &delivery_slots_[slot];
  }
  // The slot stays taken until every receiver is done: a receive() that
  // transmits parks its frames in other slots.
  std::size_t i = 0;
  try {
    for (; i < p->receivers.size(); ++i) deliver_now(p->frame, p->receivers[i]);
  } catch (...) {
    // A fault no barrier swallowed leaves this event. The receivers after
    // it stay on the air as an event of their own, as they would have had
    // each receiver its own event, so a driver that catches and carries on
    // still delivers them.
    p->receivers.erase(p->receivers.begin(),
                       p->receivers.begin() + static_cast<std::ptrdiff_t>(i + 1));
    if (p->receivers.empty()) {
      std::lock_guard<std::mutex> lock(delivery_mu_);
      free_slot(slot);
    } else {
      sched_.schedule_after(Duration{}, [this, slot] { fire_delivery(slot); });
    }
    throw;
  }
  std::lock_guard<std::mutex> lock(delivery_mu_);
  free_slot(slot);
}

void SimMedium::deliver_now(const Frame& frame, Addr to) {
  // Re-check adjacency at delivery time: the topology may have changed
  // while the frame was "on the air". Both late-drop paths are journaled —
  // faults that cut links or down nodes mid-flight must leave a drop
  // record, not silently elide the frame (keeps first_divergence useful).
  if (frame.rx == kBroadcast && !has_link(frame.tx, to)) {
    dropped_link_lost_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                  obs::DropReason::kLinkLost);
    return;
  }
  const Station* rx = find_station(to);
  NetworkDevice* device = rx != nullptr ? rx->device : nullptr;
  if (device == nullptr || !device->is_up()) {
    dropped_node_down_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                  obs::DropReason::kNodeDown);
    return;
  }
  journal_frame(obs::RecordKind::kFrameRx, to, frame.tx, frame);
  try {
    device->receive(frame);
  } catch (...) {
    if (!sched_.trap_fault(std::current_exception())) throw;
  }
}

void SimMedium::journal_frame(obs::RecordKind kind, Addr at, std::uint64_t peer,
                              const Frame& frame,
                              obs::DropReason reason) const {
  if (journal_ == nullptr) return;
  // c carries the payload hash (tx/rx) so digests witness the exact bytes on
  // the air, or the drop reason for kFrameDrop.
  std::uint64_t c = kind == obs::RecordKind::kFrameDrop
                        ? static_cast<std::uint64_t>(reason)
                        : payload_hash(frame);
  journal_->append(
      {kind, at, sched_.now().us, peer, frame.wire_size(), c});
}

std::uint64_t SimMedium::payload_hash(const Frame& frame) const {
  if (frame.payload == nullptr) return obs::kFnvOffset;
  if (frame.payload != hashed_payload_) {
    hashed_payload_ = frame.payload;
    hashed_payload_fnv_ = obs::fnv1a_bytes(frame.payload_view());
  }
  return hashed_payload_fnv_;
}

MediumStats SimMedium::stats() const {
  MediumStats out;
  out.control_frames = control_frames_.value();
  out.control_bytes = control_bytes_.value();
  out.data_frames = data_frames_.value();
  out.data_bytes = data_bytes_.value();
  out.dropped_loss = dropped_loss_.value();
  out.dropped_fault = dropped_fault_.value();
  out.dropped_link_lost = dropped_link_lost_.value();
  out.dropped_node_down = dropped_node_down_.value();
  out.failed_unicasts = failed_unicasts_.value();
  out.link_flips = link_flips_.value();
  out.pair_evals = pair_evals_.value();
  return out;
}

}  // namespace mk::net
