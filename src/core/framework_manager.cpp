#include "core/framework_manager.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/manet_protocol.hpp"
#include "util/assert.hpp"
#include "util/inline_vector.hpp"
#include "util/log.hpp"

namespace mk::core {

FrameworkManager::FrameworkManager()
    : oc::ComponentFramework("core.FrameworkManager"),
      executor_(std::make_unique<InlineExecutor>()) {}

FrameworkManager::~FrameworkManager() = default;

void FrameworkManager::check_unit_rules(
    const std::vector<CfsUnit*>& hypothetical) const {
  for (const auto& rule : unit_rules_) {
    std::string err;
    if (!rule(hypothetical, err)) {
      throw std::logic_error("deployment rule violated: " +
                             (err.empty() ? "(no detail)" : err));
    }
  }
}

void FrameworkManager::register_unit(CfsUnit* unit, int layer) {
  MK_ASSERT(unit != nullptr);
  auto lock = quiesce();
  MK_ENSURE(!is_registered(unit), "unit already registered: " + unit->unit_name());

  std::vector<CfsUnit*> hypothetical;
  for (const auto& r : registrations_) hypothetical.push_back(r.unit);
  hypothetical.push_back(unit);
  check_unit_rules(hypothetical);

  registrations_.push_back(Registration{unit, layer, next_seq_++,
                                        obs::fnv1a_str(unit->unit_name())});
  if (auto* proto = dynamic_cast<ManetProtocolCf*>(unit)) {
    proto->set_manager(this);
  }
  if (journal_ != nullptr) {
    journal_->append({obs::RecordKind::kCfBind, journal_node_,
                      journal_clock_ != nullptr ? journal_clock_->now().us : 0,
                      registrations_.back().name_hash,
                      static_cast<std::uint64_t>(layer), 0});
  }
  rebind();
}

void FrameworkManager::deregister_unit(CfsUnit* unit) {
  auto lock = quiesce();
  auto it = std::find_if(registrations_.begin(), registrations_.end(),
                         [&](const Registration& r) { return r.unit == unit; });
  if (it == registrations_.end()) return;
  const int layer = it->layer;
  const std::uint64_t name_hash = it->name_hash;
  registrations_.erase(it);
  if (quarantined_.erase(unit) > 0) {
    quarantined_count_.store(quarantined_.size(), std::memory_order_release);
  }
  if (auto* proto = dynamic_cast<ManetProtocolCf*>(unit)) {
    proto->set_manager(nullptr);
  }
  if (journal_ != nullptr) {
    journal_->append({obs::RecordKind::kCfUnbind, journal_node_,
                      journal_clock_ != nullptr ? journal_clock_->now().us : 0,
                      name_hash,
                      static_cast<std::uint64_t>(layer), 0});
  }
  rebind();
}

std::vector<CfsUnit*> FrameworkManager::units() const {
  auto lock = quiesce();
  std::vector<CfsUnit*> out;
  out.reserve(registrations_.size());
  for (const auto& r : registrations_) out.push_back(r.unit);
  return out;
}

bool FrameworkManager::is_registered(const CfsUnit* unit) const {
  auto lock = quiesce();
  return std::any_of(registrations_.begin(), registrations_.end(),
                     [&](const Registration& r) { return r.unit == unit; });
}

void FrameworkManager::add_unit_rule(UnitRule rule) {
  MK_ASSERT(rule != nullptr);
  auto lock = quiesce();
  unit_rules_.push_back(std::move(rule));
}

void FrameworkManager::rebind() {
  auto lock = quiesce();
  for (Route& r : routes_) {
    r.interposers.clear();
    r.consumers.clear();
    r.exclusive = nullptr;
  }

  // One pass in registration order. Quarantined units contribute nothing:
  // their tuples are unbound, so the chains and exclusive-delivery
  // designations are recomputed over the survivors — the circuit breaker's
  // "route around it" step. A type that is only provided keeps an empty
  // route.
  for (const auto& reg : registrations_) {
    if (is_quarantined(reg.unit)) continue;
    const ev::EventTuple& t = reg.unit->tuple();
    for (ev::EventTypeId type : t.required) {
      if (type >= routes_.size()) routes_.resize(type + 1);
      Route& route = routes_[type];
      if (t.provides(type)) {
        route.interposers.push_back(reg);
      } else {
        route.consumers.push_back(reg);
        if (route.exclusive == nullptr && t.is_exclusive(type)) {
          route.exclusive = reg.unit;
        }
      }
    }
  }

  // Interposer chain: descending layer; registration order as tiebreak so
  // later-inserted variants (e.g. fish-eye) slot deterministically.
  for (Route& r : routes_) {
    std::sort(r.interposers.begin(), r.interposers.end(),
              [](const Registration& a, const Registration& b) {
                if (a.layer != b.layer) return a.layer > b.layer;
                return a.seq < b.seq;
              });
  }
}

void FrameworkManager::route(CfsUnit* emitter, ev::Event event) {
  // Stack-local, not member scratch: route() reenters (a handler's emit()
  // routes before the outer fan-out finishes). The inline capacity covers
  // any realistic co-deployment, so the common case never touches the heap.
  InlinedVector<CfsUnit*, 8> targets;
  {
    auto lock = quiesce();
    // A quarantined unit's event sources may still be winding down; their
    // emissions must not leak into the live composition.
    if (emitter != nullptr && is_quarantined(emitter)) {
      ++quarantine_drops_;
      if (quarantine_drop_ctr_ != nullptr) quarantine_drop_ctr_->inc();
      return;
    }
    ++events_routed_;
    if (routed_ctr_ != nullptr) routed_ctr_->inc();
    // The emitter's layer and journaled name hash, from its registration.
    // A unit emitting after its deregistration has neither: it sits above
    // every interposer, and its name is hashed on the spot.
    int emitter_layer = std::numeric_limits<int>::max();
    std::uint64_t emitter_hash = 0;
    if (emitter != nullptr) {
      auto reg = std::find_if(
          registrations_.begin(), registrations_.end(),
          [emitter](const Registration& r) { return r.unit == emitter; });
      if (reg != registrations_.end()) {
        emitter_layer = reg->layer;
        emitter_hash = reg->name_hash;
      } else if (journal_ != nullptr) {
        emitter_hash = obs::fnv1a_str(emitter->unit_name());
      }
    }
    if (event.type() < routes_.size()) {
      const Route& r = routes_[event.type()];

      // Position of the emitter in the interposer chain: events always flow
      // *down* the chain (to interposers at strictly lower layers than the
      // emitter), which both orders interpositions and prevents loops.
      const Registration* next = nullptr;
      for (const auto& interposer : r.interposers) {
        if (interposer.unit == emitter) continue;
        if (interposer.layer < emitter_layer) {
          next = &interposer;
          break;
        }
      }
      if (next != nullptr) {
        targets.push_back(next->unit);
      } else if (r.exclusive != nullptr) {
        if (r.exclusive != emitter) targets.push_back(r.exclusive);
      } else {
        for (const auto& c : r.consumers) {
          if (c.unit != emitter) targets.push_back(c.unit);
        }
      }
    }
    // Context concentrator: subscribers see every routed event of the type.
    if (event.type() < subscribers_.size()) {
      for (const Subscriber& fn : subscribers_[event.type()]) fn(event);
    }

    if (journal_ != nullptr) {
      // Stable hashes (type name, emitter name) rather than dense ids, so
      // digests survive interning-order differences between runs.
      journal_->append(
          {obs::RecordKind::kEventDispatch, journal_node_,
           journal_clock_ != nullptr ? journal_clock_->now().us : 0,
           ev::EventTypeRegistry::instance().stable_hash(event.type()),
           targets.size(), emitter_hash});
    }
  }

  // Fan-out: Event copies are cheap (the carried PacketBB message is a
  // shared immutable pointer — see events/event.hpp), so delivering to N
  // co-deployed protocols costs N shallow copies of one allocation, not N
  // deep copies. The last target takes the event by move.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i + 1 == targets.size()) {
      dispatch(*targets[i], std::move(event));
    } else {
      dispatch(*targets[i], event);
    }
  }
}

void FrameworkManager::set_journal(obs::Journal* journal, std::uint32_t node,
                                   Scheduler* clock) {
  auto lock = quiesce();
  journal_ = journal;
  journal_node_ = node;
  journal_clock_ = clock;
}

void FrameworkManager::set_metrics(obs::MetricsRegistry* metrics) {
  auto lock = quiesce();
  routed_ctr_ = metrics != nullptr ? &metrics->counter("fm.events_routed")
                                   : nullptr;
  dispatch_ctr_ = metrics != nullptr ? &metrics->counter("fm.dispatches")
                                     : nullptr;
  quarantine_drop_ctr_ =
      metrics != nullptr ? &metrics->counter("fm.quarantine_drops") : nullptr;
}

void FrameworkManager::set_dispatch_guard(DispatchGuard* guard) {
  // No dispatch may still be running inside, or queued for, the guard being
  // replaced: its owner may be about to destroy it.
  drain();
  auto lock = quiesce();
  guard_.store(guard, std::memory_order_release);
  if (executor_ != nullptr) executor_->set_guard(guard);
  for (const auto& r : registrations_) {
    if (auto* proto = dynamic_cast<ManetProtocolCf*>(r.unit)) {
      if (auto* queue = proto->dedicated()) queue->set_guard(guard);
    }
  }
}

void FrameworkManager::set_quarantined(CfsUnit* unit, bool on) {
  MK_ASSERT(unit != nullptr);
  auto lock = quiesce();
  if (!is_registered(unit)) return;
  bool changed = on ? quarantined_.insert(unit).second
                    : quarantined_.erase(unit) > 0;
  if (!changed) return;
  quarantined_count_.store(quarantined_.size(), std::memory_order_release);
  rebind();
}

void FrameworkManager::dispatch(CfsUnit& target, ev::Event event) {
  // In-flight events towards a freshly quarantined unit are dropped here (the
  // routes computed before the breaker tripped may still reference it). The
  // atomic pre-check keeps the healthy path lock-free.
  if (quarantined_count_.load(std::memory_order_acquire) != 0) {
    auto lock = quiesce();
    if (quarantined_.count(&target) > 0) {
      ++quarantine_drops_;
      if (quarantine_drop_ctr_ != nullptr) quarantine_drop_ctr_->inc();
      return;
    }
  }
  if (dispatch_ctr_ != nullptr) dispatch_ctr_->inc();
  // Thread-per-ManetProtocol takes precedence over the global model: the
  // instance's dedicated FIFO decouples it from the shepherding thread.
  if (auto* proto = dynamic_cast<ManetProtocolCf*>(&target)) {
    if (auto* queue = proto->dedicated()) {
      queue->set_guard(guard_.load(std::memory_order_acquire));
      queue->enqueue(std::move(event));
      return;
    }
  }
  executor_->dispatch(target, std::move(event));
}

void FrameworkManager::set_concurrency(ConcurrencyModel model,
                                       std::size_t threads, std::size_t batch) {
  drain();
  auto lock = quiesce();
  model_ = model;
  switch (model) {
    case ConcurrencyModel::kSingleThreaded:
      executor_ = std::make_unique<InlineExecutor>();
      break;
    case ConcurrencyModel::kThreadPerMessage:
      executor_ = std::make_unique<PoolExecutor>(threads, 1);
      break;
    case ConcurrencyModel::kThreadPerNMessages:
      executor_ = std::make_unique<PoolExecutor>(threads, batch);
      break;
  }
  executor_->set_guard(guard_.load(std::memory_order_acquire));
}

void FrameworkManager::drain() {
  if (executor_ != nullptr) executor_->drain();
  for (const auto& r : registrations_) {
    if (auto* proto = dynamic_cast<ManetProtocolCf*>(r.unit)) {
      if (auto* queue = proto->dedicated()) queue->drain();
    }
  }
}

void FrameworkManager::subscribe(const std::string& event_name, Subscriber fn) {
  MK_ASSERT(fn != nullptr);
  auto lock = quiesce();
  const ev::EventTypeId type = ev::etype(event_name);
  if (type >= subscribers_.size()) subscribers_.resize(type + 1);
  subscribers_[type].push_back(std::move(fn));
}

}  // namespace mk::core
