#include "supervision/supervisor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/manet_protocol.hpp"
#include "opencom/guard.hpp"
#include "util/log.hpp"
#include "util/memtrack.hpp"

namespace mk::supervision {

using fault::Misbehave;

namespace {

// Modelled cost charged to the dispatch running on this thread (the
// deterministic watchdog's clock; see Supervisor::charge).
thread_local std::int64_t t_charged_us = 0;

}  // namespace

bool is_routing_category(std::string_view category) {
  return category == "proactive" || category == "reactive" ||
         category == "hybrid";
}

Supervisor::Supervisor(core::Manetkit& kit, SupervisorOptions opts)
    : kit_(kit),
      opts_(opts),
      guarded_ctr_(&kit.metrics().counter("sup.guarded_dispatches")),
      faults_ctr_(&kit.metrics().counter("sup.faults")),
      deadline_ctr_(&kit.metrics().counter("sup.deadline_faults")),
      quarantines_ctr_(&kit.metrics().counter("sup.quarantines")),
      restarts_ctr_(&kit.metrics().counter("sup.restart_attempts")),
      recoveries_ctr_(&kit.metrics().counter("sup.recoveries")),
      fallbacks_ctr_(&kit.metrics().counter("sup.fallbacks")),
      escalations_ctr_(&kit.metrics().counter("sup.escalations")),
      variant_restarts_ctr_(&kit.metrics().counter("sup.variant_restarts")),
      stateless_restarts_ctr_(&kit.metrics().counter("sup.stateless_restarts")),
      alloc_faults_ctr_(&kit.metrics().counter("sup.alloc_budget_faults")) {
  kit_.manager().set_dispatch_guard(this);
  kit_.set_health_provider(this);
}

Supervisor::~Supervisor() {
  {
    std::scoped_lock lock(mutex_);
    for (auto& [name, st] : units_) {
      if (st.recovery_timer != kInvalidTimer) {
        kit_.scheduler().cancel(st.recovery_timer);
      }
      if (st.probation_timer != kInvalidTimer) {
        kit_.scheduler().cancel(st.probation_timer);
      }
    }
  }
  if (kit_.manager().dispatch_guard() == this) {
    kit_.manager().set_dispatch_guard(nullptr);
  }
  if (kit_.health_provider() == this) kit_.set_health_provider(nullptr);
}

void Supervisor::charge(Duration cost) { t_charged_us += cost.count(); }

void Supervisor::deliver(core::CfsUnit& target, const ev::Event& event) {
  guarded_ctr_->inc();
  t_charged_us = 0;

  // Allocation-budget window: heap churn across the dispatch is a fault
  // signal like charged time is. Only armed when the counting interposer is
  // actually the linked allocator (sanitizer builds stand down).
  const bool alloc_armed = opts_.alloc_budget > 0 && memtrack::interposer_live();
  const std::uint64_t alloc_before =
      alloc_armed ? memtrack::snapshot().total_bytes : 0;

  Misbehave mode = Misbehave::kNone;
  std::uint64_t salt = 0;
  if (misbehaving_.load(std::memory_order_acquire) != 0) {
    std::scoped_lock lock(mutex_);
    auto it = units_.find(target.unit_name());
    if (it != units_.end()) {
      mode = it->second.misbehave;
      if (mode == Misbehave::kCorrupt) salt = ++it->second.corrupt_salt;
    }
  }

  oc::InvokeFault fault;
  bool ok = true;
  bool corrupt_injected = false;
  switch (mode) {
    case Misbehave::kThrow:
      // The component "dies" mid-dispatch: the event is lost to it, exactly
      // as if its handler had thrown on the first instruction.
      ok = oc::guarded_invoke(
          [] { throw std::runtime_error("injected misbehaviour: throw"); },
          fault);
      break;
    case Misbehave::kStall:
      charge(opts_.deadline + msec(1));
      ok = oc::guarded_invoke([&] { target.deliver(event); }, fault);
      break;
    case Misbehave::kCorrupt: {
      // Deterministic bit damage, salted by the unit's injection count so
      // replays corrupt identically. Protocol parsers are fuzz-hardened, so
      // the common outcome is a rejected message, not a crash.
      ev::Event mutated = event;
      if (mutated.has_msg()) {
        auto& msg = mutated.mutable_msg();
        msg.type ^= static_cast<std::uint8_t>(salt & 0x7f);
        if (msg.seqnum.has_value()) {
          *msg.seqnum ^= static_cast<std::uint16_t>(salt * 0x9e37u);
        }
      }
      corrupt_injected = true;
      ok = oc::guarded_invoke([&] { target.deliver(mutated); }, fault);
      break;
    }
    case Misbehave::kNone:
      ok = oc::guarded_invoke([&] { target.deliver(event); }, fault);
      break;
  }

  if (!ok) {
    MK_DEBUG("sup", "unit ", target.unit_name(), " faulted: ", fault.what);
    on_fault(target.unit_name(), obs::ComponentFaultReason::kException);
    return;
  }
  if (corrupt_injected) {
    on_fault(target.unit_name(), obs::ComponentFaultReason::kCorrupt);
    return;
  }
  if (alloc_armed) {
    std::uint64_t churned = memtrack::snapshot().total_bytes - alloc_before;
    if (churned > opts_.alloc_budget) {
      on_fault(target.unit_name(), obs::ComponentFaultReason::kAllocBudget);
      return;
    }
  }
  if (t_charged_us > opts_.deadline.count()) {
    on_fault(target.unit_name(), obs::ComponentFaultReason::kDeadline);
  }
}

void Supervisor::on_fault(const std::string& unit,
                          obs::ComponentFaultReason reason) {
  bool trip = false;
  {
    std::scoped_lock lock(mutex_);
    UnitState& st = units_[unit];
    ++st.faults;
    std::int64_t now = now_us();
    st.last_fault_us = now;
    faults_ctr_->inc();
    kit_.metrics().counter("sup.faults." + unit).inc();
    if (reason == obs::ComponentFaultReason::kDeadline) deadline_ctr_->inc();
    if (reason == obs::ComponentFaultReason::kAllocBudget) {
      alloc_faults_ctr_->inc();
    }
    journal(obs::RecordKind::kComponentFault, unit,
            static_cast<std::uint64_t>(reason), st.faults);
    if (st.health == UnitHealth::kHealthy) {
      // Sliding window: only faults younger than fault_window count towards
      // the breaker.
      st.window_us.push_back(now);
      std::int64_t cutoff = now - opts_.fault_window.count();
      st.window_us.erase(
          std::remove_if(st.window_us.begin(), st.window_us.end(),
                         [&](std::int64_t t) { return t < cutoff; }),
          st.window_us.end());
      if (static_cast<int>(st.window_us.size()) >= opts_.fault_threshold) {
        st.health = UnitHealth::kQuarantined;
        if (st.probation_timer != kInvalidTimer) {
          // Re-trip inside probation: the restart that produced this
          // incarnation carried the S element, and the unit faulted again
          // before proving itself — treat that state as suspect.
          kit_.scheduler().cancel(st.probation_timer);
          st.probation_timer = kInvalidTimer;
          st.retripped = true;
        }
        trip = true;
      }
    }
  }
  if (trip) enter_quarantine(unit);
}

void Supervisor::enter_quarantine(const std::string& unit) {
  std::uint64_t window_count = 0;
  Duration backoff{0};
  {
    std::scoped_lock lock(mutex_);
    UnitState& st = units_[unit];
    window_count = st.window_us.size();
    int shift = std::min(st.restarts, 20);
    backoff = Duration{opts_.initial_backoff.count() << shift};
  }
  quarantines_ctr_->inc();
  journal(obs::RecordKind::kQuarantine, unit,
          static_cast<std::uint64_t>(obs::QuarantinePhase::kEnter),
          window_count);
  // Unbind and silence the unit: its tuples leave the derived bindings
  // (rebind recomputes chains and exclusive delivery over the survivors) and
  // its event sources stop, so nothing it still holds leaks into the live
  // composition. External calls happen outside mutex_ — deploy/stop paths
  // re-enter deliver().
  if (core::CfsUnit* u = find_unit(unit)) {
    if (auto* proto = dynamic_cast<core::ManetProtocolCf*>(u)) proto->stop();
    kit_.manager().set_quarantined(u, true);
  }
  schedule_recovery(unit, backoff);
}

void Supervisor::schedule_recovery(const std::string& unit, Duration backoff) {
  std::scoped_lock lock(mutex_);
  UnitState& st = units_[unit];
  st.backoff = backoff;
  kit_.metrics().counter("sup.backoff_us").inc(
      static_cast<std::uint64_t>(backoff.count()));
  st.recovery_timer = kit_.scheduler().schedule_after(
      backoff, [this, unit] { attempt_recovery(unit); });
}

void Supervisor::attempt_recovery(const std::string& unit) {
  int attempt = 0;
  bool suspect = false;
  std::string variant;
  {
    std::scoped_lock lock(mutex_);
    UnitState& st = units_[unit];
    st.recovery_timer = kInvalidTimer;
    if (st.health != UnitHealth::kQuarantined) return;
    if (st.restarts >= opts_.max_restarts) {
      attempt = -1;  // ladder exhausted
    } else {
      attempt = ++st.restarts;
    }
    suspect = st.retripped;
    variant = st.variant;
  }
  if (attempt < 0 || !kit_.is_deployed(unit)) {
    // Non-protocol units (e.g. the System CF) cannot be re-instantiated
    // through the deployment machinery — straight to fallback/escalation.
    exhaust(unit);
    return;
  }

  // Restart-rung sub-phase (ISSUE 10 satellite): a re-trip within probation
  // means the in-place restart-with-state rung already failed, so this rung
  // drops the carried S element — and lands on the configured cheaper
  // variant, if any — then asks peers for replicas instead.
  std::string target = unit;
  std::uint64_t flags = 0;
  if (suspect) {
    flags |= obs::kRestartStatelessFlag;
    if (!variant.empty() && variant != unit && kit_.has_builder(variant)) {
      target = variant;
      flags |= obs::kRestartVariantFlag;
    }
  }

  restarts_ctr_->inc();
  if ((flags & obs::kRestartVariantFlag) != 0) {
    variant_restarts_ctr_->inc();
  } else if ((flags & obs::kRestartStatelessFlag) != 0) {
    stateless_restarts_ctr_->inc();
  }
  journal(obs::RecordKind::kQuarantine, unit,
          static_cast<std::uint64_t>(obs::QuarantinePhase::kRestart),
          static_cast<std::uint64_t>(attempt) | flags);

  // Re-instantiate — the state-transfer machinery, with its journaled
  // rollback-on-failure; this ladder is the only retry. The S element is
  // carried only while it is above suspicion.
  core::Manetkit::ReplaceReport report;
  oc::InvokeFault fault;
  bool invoked = oc::guarded_invoke(
      [&] { report = kit_.replace_protocol(unit, target, !suspect); }, fault);

  if (invoked && report.committed) {
    std::int64_t recovered = now_us();
    Duration used{0};
    {
      std::scoped_lock lock(mutex_);
      UnitState& st = units_[unit];
      st.health = UnitHealth::kHealthy;
      st.window_us.clear();
      st.retripped = false;
      used = st.backoff;
      st.probation_timer = kit_.scheduler().schedule_after(
          opts_.fault_window,
          [this, unit, recovered] { check_probation(unit, recovered); });
    }
    recoveries_ctr_->inc();
    journal(obs::RecordKind::kQuarantine, unit,
            static_cast<std::uint64_t>(obs::QuarantinePhase::kRecover),
            static_cast<std::uint64_t>(used.count()));
    if (suspect) {
      // The fresh incarnation started empty; rebuild its tables from the
      // freshest peer replica when the replication CF is deployed.
      if (core::ReplicationControl* rc = kit_.replication()) {
        if (rc->request_rehydrate(target)) {
          kit_.metrics().counter("sup.rehydrate_requests").inc();
        }
      }
    }
    return;
  }

  // The restart failed (rolled back, or the replace itself threw). Keep the
  // rolled-back instance routed around and climb the ladder.
  MK_DEBUG("sup", "restart of ", unit,
           " failed: ", invoked ? report.error : fault.what);
  if (core::CfsUnit* u = find_unit(unit)) {
    kit_.manager().set_quarantined(u, true);
  }
  bool exhausted = false;
  Duration backoff{0};
  {
    std::scoped_lock lock(mutex_);
    UnitState& st = units_[unit];
    if (st.restarts >= opts_.max_restarts) {
      exhausted = true;
    } else {
      int shift = std::min(st.restarts, 20);
      backoff = Duration{opts_.initial_backoff.count() << shift};
    }
  }
  if (exhausted) {
    exhaust(unit);
  } else {
    schedule_recovery(unit, backoff);
  }
}

void Supervisor::exhaust(const std::string& unit) {
  std::string fallback;
  if (kit_.is_deployed(unit)) {
    for (const auto& other : kit_.deployed()) {
      if (other == unit) continue;
      if (!is_routing_category(kit_.category_of(other))) continue;
      if (health(other) != UnitHealth::kHealthy) continue;
      fallback = other;
      break;
    }
  }
  {
    std::scoped_lock lock(mutex_);
    units_[unit].health = UnitHealth::kFailed;
  }
  if (!fallback.empty()) {
    // A co-deployed routing protocol keeps the node forwarding; the failed
    // unit leaves the composition entirely (undeploy clears its quarantine
    // entry as a side effect of deregistration).
    oc::InvokeFault fault;
    if (!oc::guarded_invoke([&] { kit_.undeploy(unit); }, fault)) {
      MK_WARN("sup", "undeploy of failed unit ", unit, ": ", fault.what);
    }
    fallbacks_ctr_->inc();
    journal(obs::RecordKind::kQuarantine, unit,
            static_cast<std::uint64_t>(obs::QuarantinePhase::kFallback),
            obs::fnv1a_str(fallback));
  } else {
    // Nothing to fall back to: stay quarantined (routed around) and surface
    // the failure through the ContextView health signal for the policy
    // engine to act on.
    escalations_ctr_->inc();
    journal(obs::RecordKind::kQuarantine, unit,
            static_cast<std::uint64_t>(obs::QuarantinePhase::kEscalate), 0);
  }
}

void Supervisor::check_probation(const std::string& unit,
                                 std::int64_t recovered_us) {
  bool reset = false;
  {
    std::scoped_lock lock(mutex_);
    UnitState& st = units_[unit];
    st.probation_timer = kInvalidTimer;
    if (st.health == UnitHealth::kHealthy && st.last_fault_us <= recovered_us) {
      st.restarts = 0;
      st.backoff = Duration{0};
      st.retripped = false;
      reset = true;
    }
  }
  if (reset) {
    journal(obs::RecordKind::kQuarantine, unit,
            static_cast<std::uint64_t>(obs::QuarantinePhase::kProbation), 0);
  }
}

core::CfsUnit* Supervisor::find_unit(const std::string& name) const {
  for (core::CfsUnit* u : kit_.manager().units()) {
    if (u->unit_name() == name) return u;
  }
  return nullptr;
}

void Supervisor::journal(obs::RecordKind kind, const std::string& unit,
                         std::uint64_t b, std::uint64_t c) const {
  obs::Journal* j = kit_.journal();
  if (j == nullptr) return;
  j->append({kind, kit_.self(), now_us(), obs::fnv1a_str(unit), b, c});
}

std::vector<std::string> Supervisor::quarantined_units() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, st] : units_) {
    if (st.health == UnitHealth::kQuarantined) out.push_back(name);
  }
  return out;
}

std::vector<std::string> Supervisor::failed_units() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, st] : units_) {
    if (st.health == UnitHealth::kFailed) out.push_back(name);
  }
  return out;
}

void Supervisor::set_recovery_variant(const std::string& unit,
                                      std::string variant) {
  std::scoped_lock lock(mutex_);
  units_[unit].variant = std::move(variant);
}

std::string Supervisor::recovery_variant(const std::string& unit) const {
  std::scoped_lock lock(mutex_);
  auto it = units_.find(unit);
  return it == units_.end() ? std::string{} : it->second.variant;
}

void Supervisor::set_misbehaviour(const std::string& unit, Misbehave mode) {
  std::scoped_lock lock(mutex_);
  UnitState& st = units_[unit];
  bool was = st.misbehave != Misbehave::kNone;
  bool is = mode != Misbehave::kNone;
  st.misbehave = mode;
  if (was != is) {
    misbehaving_.fetch_add(is ? 1 : -1, std::memory_order_acq_rel);
  }
}

Misbehave Supervisor::misbehaviour(const std::string& unit) const {
  std::scoped_lock lock(mutex_);
  auto it = units_.find(unit);
  return it == units_.end() ? Misbehave::kNone : it->second.misbehave;
}

UnitHealth Supervisor::health(const std::string& unit) const {
  std::scoped_lock lock(mutex_);
  auto it = units_.find(unit);
  return it == units_.end() ? UnitHealth::kHealthy : it->second.health;
}

std::uint64_t Supervisor::faults(const std::string& unit) const {
  std::scoped_lock lock(mutex_);
  auto it = units_.find(unit);
  return it == units_.end() ? 0 : it->second.faults;
}

void Supervisor::forgive(const std::string& unit) {
  std::scoped_lock lock(mutex_);
  auto it = units_.find(unit);
  if (it == units_.end()) return;
  if (it->second.misbehave != Misbehave::kNone) {
    misbehaving_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (it->second.recovery_timer != kInvalidTimer) {
    kit_.scheduler().cancel(it->second.recovery_timer);
  }
  if (it->second.probation_timer != kInvalidTimer) {
    kit_.scheduler().cancel(it->second.probation_timer);
  }
  units_.erase(it);
}

}  // namespace mk::supervision
