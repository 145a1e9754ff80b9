// Component supervision (ISSUE 5): every CFS unit is a fault domain.
//
// The paper's CFs police *structural* integrity (composition rules, the S/F
// element discipline); this layer polices *behavioural* integrity at runtime.
// The Supervisor installs itself as the Framework Manager's DispatchGuard, so
// every `deliver()` — whatever the concurrency model — runs inside a fault
// barrier (opencom/guard.hpp):
//
//  * Isolation      — a handler exception is caught, journaled
//                     (kComponentFault), counted per component, and never
//                     propagates past the dispatch boundary. A deterministic
//                     watchdog flags dispatches whose *charged* sim-time cost
//                     exceeds a configurable deadline the same way (wall
//                     clocks would destroy digest replay; components charge
//                     their modelled cost via Supervisor::charge, exactly as
//                     the misbehave-stall chaos action does).
//  * Circuit break  — fault_threshold faults inside a sliding sim-time
//                     window quarantines the unit: the Framework Manager
//                     unbinds its tuples and routes around it (kQuarantine).
//  * Self-healing   — a per-unit recovery ladder: re-instantiate via
//                     Manetkit::replace_protocol(name, name) carrying the S
//                     element (the state-transfer machinery: one attempt,
//                     rollback on failure), with exponential backoff in sim
//                     time between rungs — the only retry on that path;
//                     after max_restarts either fall back to a co-deployed
//                     routing protocol (undeploying the failed one) or
//                     escalate through the ContextView health signal
//                     (core::HealthProvider -> policy::ContextView).
//
// Fault history is keyed by *unit name*, not instance pointer, so the ladder
// survives re-instantiation — a recovered-then-faulty-again component resumes
// where it left off rather than restarting the breaker from scratch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/manetkit.hpp"
#include "fault/plan.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace mk::supervision {

enum class UnitHealth : std::uint8_t {
  kHealthy = 0,
  kQuarantined = 1,  // breaker open; recovery ladder running
  kFailed = 2,       // ladder exhausted: fallen back or escalated
};

struct SupervisorOptions {
  /// Faults within fault_window that trip the breaker.
  int fault_threshold = 3;
  Duration fault_window = sec(10);
  /// Watchdog deadline on charged per-dispatch cost.
  Duration deadline = msec(100);
  /// Restart attempts before falling back / escalating.
  int max_restarts = 3;
  /// First recovery delay; doubles per subsequent attempt (recorded in the
  /// kQuarantine kRecover record and "sup.backoff_us").
  Duration initial_backoff = msec(200);
  /// Per-dispatch heap-churn budget in bytes (mk::memtrack window around the
  /// guarded deliver); exceeding it is a component fault (kAllocBudget), so
  /// a leaking/thrashing handler climbs the same breaker-and-ladder as one
  /// that throws. 0 disables. Enforced only when the counting allocation
  /// interposer is live (memtrack::interposer_live() — false under
  /// sanitizers, where the budget silently stands down).
  std::uint64_t alloc_budget = 0;
};

class Supervisor final : public core::DispatchGuard, public core::HealthProvider {
 public:
  /// Installs itself: FrameworkManager dispatch guard + Manetkit health
  /// provider. One Supervisor per node.
  explicit Supervisor(core::Manetkit& kit, SupervisorOptions opts = {});
  ~Supervisor() override;

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // -- DispatchGuard ----------------------------------------------------------
  void deliver(core::CfsUnit& target, const ev::Event& event) override;

  // -- HealthProvider ---------------------------------------------------------
  std::vector<std::string> quarantined_units() const override;
  std::vector<std::string> failed_units() const override;

  // -- misbehaviour injection (chaos) ----------------------------------------
  void set_misbehaviour(const std::string& unit, fault::Misbehave mode);
  fault::Misbehave misbehaviour(const std::string& unit) const;

  // -- introspection ----------------------------------------------------------
  UnitHealth health(const std::string& unit) const;
  /// Lifetime fault count for the unit (survives restarts).
  std::uint64_t faults(const std::string& unit) const;
  const SupervisorOptions& options() const { return opts_; }

  /// Drops all supervision history for `unit` (health, faults, ladder) — the
  /// operator's "forgive" after fixing the root cause out of band.
  void forgive(const std::string& unit);

  // -- variant-aware recovery (ISSUE 10 satellite) -----------------------------
  /// Names a cheaper co-registered variant to restart `unit` into when the
  /// breaker re-trips within probation — i.e. when an in-place restart with
  /// the S element carried already failed to hold. A suspect restart always
  /// drops the carried state (kRestartStatelessFlag) and consults peer
  /// replicas via core::ReplicationControl when one is published; with a
  /// variant configured it additionally lands on `variant` instead of `unit`
  /// (kRestartVariantFlag, counted as "sup.variant_restarts"). Empty clears.
  void set_recovery_variant(const std::string& unit, std::string variant);
  std::string recovery_variant(const std::string& unit) const;

  /// Adds `cost` of modelled sim-time to the dispatch currently executing on
  /// this thread; the watchdog compares the accumulated charge against
  /// options().deadline when the dispatch returns. Deterministic by
  /// construction (no wall clock).
  static void charge(Duration cost);

 private:
  struct UnitState {
    UnitHealth health = UnitHealth::kHealthy;
    fault::Misbehave misbehave = fault::Misbehave::kNone;
    std::uint64_t faults = 0;               // lifetime
    std::vector<std::int64_t> window_us;    // fault times inside the window
    std::int64_t last_fault_us = -1;
    int restarts = 0;
    Duration backoff{0};
    TimerId recovery_timer = kInvalidTimer;
    TimerId probation_timer = kInvalidTimer;
    std::uint64_t corrupt_salt = 0;
    /// Breaker tripped again while probation was still pending: the restored
    /// S element is suspect, so the next recovery rung restarts stateless
    /// (into the configured variant, if any).
    bool retripped = false;
    std::string variant;  // set_recovery_variant target ("" = none)
  };

  void on_fault(const std::string& unit, obs::ComponentFaultReason reason);
  void enter_quarantine(const std::string& unit);
  void schedule_recovery(const std::string& unit, Duration backoff);
  void attempt_recovery(const std::string& unit);
  void exhaust(const std::string& unit);
  void check_probation(const std::string& unit, std::int64_t recovered_us);
  core::CfsUnit* find_unit(const std::string& name) const;
  void journal(obs::RecordKind kind, const std::string& unit, std::uint64_t b,
               std::uint64_t c) const;
  std::int64_t now_us() const { return kit_.scheduler().now().us; }

  core::Manetkit& kit_;
  SupervisorOptions opts_;
  mutable std::mutex mutex_;
  std::map<std::string, UnitState> units_;
  // Units with an active misbehaviour: lets deliver() skip the map lookup —
  // and the lock — entirely on the healthy hot path.
  std::atomic<int> misbehaving_{0};
  obs::Counter* guarded_ctr_;
  obs::Counter* faults_ctr_;
  obs::Counter* deadline_ctr_;
  obs::Counter* quarantines_ctr_;
  obs::Counter* restarts_ctr_;
  obs::Counter* recoveries_ctr_;
  obs::Counter* fallbacks_ctr_;
  obs::Counter* escalations_ctr_;
  obs::Counter* variant_restarts_ctr_;
  obs::Counter* stateless_restarts_ctr_;
  obs::Counter* alloc_faults_ctr_;
};

/// Categories that keep a node routing (fallback candidates).
bool is_routing_category(std::string_view category);

}  // namespace mk::supervision
