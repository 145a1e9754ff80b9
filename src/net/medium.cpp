#include "net/medium.hpp"

#include <algorithm>

#include "net/device.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::net {

namespace {
/// Serialisation delay per wire byte: ~8 Mbit/s effective.
constexpr Duration kPerByteDelay = usec(1);
}  // namespace

SimMedium::SimMedium(Scheduler& sched, std::uint64_t seed)
    : sched_(sched), rng_(seed) {}

void SimMedium::attach(NetworkDevice& device) {
  MK_ASSERT(device.medium_ == nullptr, "device already attached");
  auto [_, inserted] = devices_.emplace(device.addr(), &device);
  MK_ASSERT(inserted, "duplicate device address");
  device.medium_ = this;
}

void SimMedium::detach(Addr addr) {
  auto it = devices_.find(addr);
  if (it == devices_.end()) return;
  it->second->medium_ = nullptr;
  devices_.erase(it);
}

void SimMedium::set_link(Addr a, Addr b, bool up, bool symmetric) {
  MK_ASSERT(a != b);
  auto apply = [&](Addr from, Addr to) {
    std::vector<Addr>& nbrs = adjacency_[from];
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
  auto it = adjacency_.find(from);
  if (it == adjacency_.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(), to);
}

void SimMedium::clear_links() {
  // Emit down-notifications so observers stay consistent.
  auto old = adjacency_;
  adjacency_.clear();
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
  auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return {};
  return it->second;
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
    if (fault_filter_ == nullptr) {
      // Fast path: fan out over the adjacency set in place.
      for (Addr to : neighbors_of(frame.tx)) {
        deliver_later(frame, to);
      }
    } else {
      // A fault filter runs arbitrary user code per delivery; snapshot the
      // neighbour set so a filter (or anything it triggers) mutating the
      // topology cannot invalidate the iterator mid-fan-out. The snapshot
      // reuses a member scratch buffer (moved out for reentrancy safety), so
      // an armed-but-idle fault plan stays allocation-free steady-state.
      std::vector<Addr> targets = std::move(bcast_scratch_);
      auto live = neighbors_of(frame.tx);
      targets.assign(live.begin(), live.end());
      for (Addr to : targets) {
        deliver_later(frame, to);
      }
      bcast_scratch_ = std::move(targets);
    }
    return true;
  }
  if (!has_link(frame.tx, frame.rx)) {
    failed_unicasts_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, frame.tx, frame.rx, frame,
                  obs::DropReason::kNoLink);
    return false;
  }
  deliver_later(frame, frame.rx);
  return true;
}

void SimMedium::deliver_later(const Frame& frame, Addr to) {
  Duration jitter{};
  std::uint32_t duplicates = 0;
  Duration dup_spacing{};
  if (fault_filter_ != nullptr) {
    FaultVerdict verdict = fault_filter_(frame, to);
    if (verdict.drop) {
      dropped_fault_.inc();
      journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                    obs::DropReason::kFaultLoss);
      return;
    }
    jitter = verdict.extra_delay;
    duplicates = verdict.duplicates;
    dup_spacing = verdict.dup_spacing;
  }
  if (loss_prob_ > 0.0 && rng_.bernoulli(loss_prob_)) {
    dropped_loss_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                  obs::DropReason::kLoss);
    return;
  }
  Duration delay =
      base_delay_ + Duration{kPerByteDelay.count() *
                             static_cast<std::int64_t>(frame.wire_size())};
  auto drift = drift_.find(frame.tx);
  if (drift != drift_.end()) {
    delay = Duration{static_cast<std::int64_t>(
        static_cast<double>(delay.count()) * drift->second)};
  }
  delay = delay + jitter;
  schedule_delivery(frame, to, delay);
  for (std::uint32_t i = 1; i <= duplicates; ++i) {
    schedule_delivery(frame, to,
                      delay + Duration{dup_spacing.count() *
                                       static_cast<std::int64_t>(i)});
  }
}

void SimMedium::schedule_delivery(const Frame& frame, Addr to, Duration delay) {
  // Park the frame in a recycled slot and capture only [this, slot]: the
  // two fit std::function's small-buffer slot, so scheduling a delivery
  // performs no heap allocation (a by-value Frame capture would).
  std::uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(delivery_mu_);
    if (free_delivery_slots_.empty()) {
      slot = static_cast<std::uint32_t>(delivery_slots_.size());
      delivery_slots_.emplace_back();
    } else {
      slot = free_delivery_slots_.back();
      free_delivery_slots_.pop_back();
    }
    PendingDelivery& p = delivery_slots_[slot];
    p.frame = frame;  // shares the payload buffer; no byte copy
    p.to = to;
  }
  sched_.schedule_after(delay, [this, slot] { fire_delivery(slot); });
}

void SimMedium::fire_delivery(std::uint32_t slot) {
  Frame frame;
  Addr to;
  {
    // Move the frame out and free the slot *before* processing: receive()
    // may transmit, and a reentrant schedule_delivery must not find this
    // slot still occupied.
    std::lock_guard<std::mutex> lock(delivery_mu_);
    PendingDelivery& p = delivery_slots_[slot];
    frame = std::move(p.frame);
    to = p.to;
    p.frame = Frame{};
    free_delivery_slots_.push_back(slot);
  }
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
  auto it = devices_.find(to);
  if (it == devices_.end() || !it->second->is_up()) {
    dropped_node_down_.inc();
    journal_frame(obs::RecordKind::kFrameDrop, to, frame.tx, frame,
                  obs::DropReason::kNodeDown);
    return;
  }
  journal_frame(obs::RecordKind::kFrameRx, to, frame.tx, frame);
  it->second->receive(frame);
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
