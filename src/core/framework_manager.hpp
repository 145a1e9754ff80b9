// The Framework Manager CF (§4.2, Fig. 2).
//
// CFS units register here with their <required-events, provided-events>
// tuples and a *layer* (System CF at layer 0, protocol CFs above). From the
// tuples the manager derives and maintains the event-flow bindings
// automatically:
//
//  * For event type t, units that both require and provide t are
//    *interposers*; they form a chain ordered by descending layer. An event
//    emitted by unit U flows to the next interposer strictly below U's layer;
//    past the last interposer it reaches the *consumers* (units that require
//    but do not provide t).
//  * A consumer holding t in its `exclusive` set receives the event alone —
//    other consumers are skipped (footnote 2 of the paper).
//  * Loops are impossible by construction: re-emission always advances down
//    the chain (the paper's loop-avoidance mechanism).
//
// Changing any unit's tuple at runtime triggers rebind() — the paper's
// declarative reconfiguration-enactment method. Event-type ids are dense, so
// the derived routes live in a vector indexed by type: rebind() empties them
// in place and refills them in one pass over the registrations, and once
// warm an enactment allocates nothing. The manager also hosts the
// *context concentrator*: a façade through which higher-level (decision
// making) software observes context events without knowing which sensor or
// protocol produced them.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cfs.hpp"
#include "core/executor.hpp"
#include "events/event.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "opencom/cf.hpp"
#include "util/scheduler.hpp"

namespace mk::core {

class ManetProtocolCf;

class FrameworkManager : public oc::ComponentFramework {
 public:
  FrameworkManager();
  ~FrameworkManager() override;

  // -- unit registration --------------------------------------------------------
  /// Registers a CFS unit at `layer` (0 = System CF; protocols above).
  /// Throws std::logic_error if a deployment-level rule rejects it.
  void register_unit(CfsUnit* unit, int layer);
  void deregister_unit(CfsUnit* unit);
  std::vector<CfsUnit*> units() const;
  bool is_registered(const CfsUnit* unit) const;

  /// Deployment-level integrity rule, e.g. "at most one reactive protocol".
  using UnitRule =
      std::function<bool(const std::vector<CfsUnit*>&, std::string&)>;
  void add_unit_rule(UnitRule rule);

  // -- binding derivation ---------------------------------------------------------
  /// Recomputes the event-routing topology from the current tuples. Called
  /// automatically on register/deregister/set_tuple.
  void rebind();

  /// Routes an event emitted by `emitter` per the derived bindings.
  void route(CfsUnit* emitter, ev::Event event);

  // -- concurrency (§4.4) -----------------------------------------------------------
  /// Selects the model used for events from below. Applied MANETKit-wide.
  void set_concurrency(ConcurrencyModel model, std::size_t threads = 4,
                       std::size_t batch = 8);
  ConcurrencyModel concurrency() const { return model_; }
  /// Blocks until all in-flight dispatches complete (threaded models).
  void drain();

  // -- context concentrator -----------------------------------------------------------
  using Subscriber = std::function<void(const ev::Event&)>;
  /// Observes every routed event of the named type (context or otherwise).
  void subscribe(const std::string& event_name, Subscriber fn);

  std::uint64_t events_routed() const { return events_routed_; }

  // -- observability ------------------------------------------------------------
  /// Attaches a trace journal: every routed event appends a kEventDispatch
  /// record (a = stable event-type hash, b = target count, c = emitter unit
  /// hash), and unit (de)registration appends kCfBind/kCfUnbind. Records are
  /// attributed to `node` and stamped from `clock` (sim time, so digests
  /// compare across runs). Null detaches.
  void set_journal(obs::Journal* journal, std::uint32_t node,
                   Scheduler* clock);

  /// The attached journal (null when tracing is off) and the node records
  /// are attributed to. Lets co-located components — the soft-state expiry
  /// layer — append their own record kinds through the same sink.
  obs::Journal* journal() const { return journal_; }
  std::uint32_t journal_node() const { return journal_node_; }

  /// Mirrors the manager's counters ("fm.events_routed", "fm.dispatches",
  /// "fm.quarantine_drops") into a shared registry. Null reverts to
  /// internal-only counting.
  void set_metrics(obs::MetricsRegistry* metrics);

  // -- supervision (ISSUE 5) --------------------------------------------------
  /// Installs the guard wrapped around every deliver call (all executor
  /// models, including dedicated per-protocol queues). Null uninstalls.
  /// Drains threaded dispatch first, so once this returns no event is
  /// inside or still bound for the previous guard. Must not be called from
  /// a handler. Survives set_concurrency(): the guard is re-applied to the
  /// new executor.
  void set_dispatch_guard(DispatchGuard* guard);
  DispatchGuard* dispatch_guard() const {
    return guard_.load(std::memory_order_acquire);
  }

  /// Quarantines (or releases) a unit: its tuples drop out of the derived
  /// bindings — rebind() recomputes interposer chains and exclusive delivery
  /// over the remaining units, so traffic is routed *around* it — and events
  /// already in flight towards it, or emitted by its still-running sources,
  /// are dropped and counted ("fm.quarantine_drops"). Deregistration clears
  /// quarantine implicitly. No-op when the unit is not registered.
  void set_quarantined(CfsUnit* unit, bool on);
  std::uint64_t quarantine_drops() const { return quarantine_drops_; }

 private:
  struct Registration {
    CfsUnit* unit;
    int layer;
    std::uint64_t seq;
    std::uint64_t name_hash;  // fnv1a of unit_name() (fixed once registered)
  };

  struct Route {
    std::vector<Registration> interposers;  // descending layer, then seq
    std::vector<Registration> consumers;    // registration order
    CfsUnit* exclusive = nullptr;
  };

  bool is_quarantined(const CfsUnit* unit) const {
    return quarantined_count_.load(std::memory_order_relaxed) != 0 &&
           quarantined_.count(unit) > 0;
  }

  void dispatch(CfsUnit& target, ev::Event event);
  void check_unit_rules(const std::vector<CfsUnit*>& hypothetical) const;

  std::vector<Registration> registrations_;
  std::set<const CfsUnit*> quarantined_;
  // Mirrors quarantined_.size(); lets dispatch() skip the lock entirely in
  // the (overwhelmingly common) no-quarantine case.
  std::atomic<std::size_t> quarantined_count_{0};
  std::atomic<DispatchGuard*> guard_{nullptr};
  std::uint64_t quarantine_drops_ = 0;
  std::uint64_t next_seq_ = 1;
  // Both indexed by event-type id; a type nobody registered reads as empty.
  // rebind() keeps every Route's capacity.
  std::vector<Route> routes_;
  std::vector<std::vector<Subscriber>> subscribers_;
  std::vector<UnitRule> unit_rules_;
  ConcurrencyModel model_ = ConcurrencyModel::kSingleThreaded;
  std::unique_ptr<Executor> executor_;
  std::uint64_t events_routed_ = 0;
  obs::Journal* journal_ = nullptr;
  std::uint32_t journal_node_ = 0;
  Scheduler* journal_clock_ = nullptr;
  obs::Counter* routed_ctr_ = nullptr;
  obs::Counter* dispatch_ctr_ = nullptr;
  obs::Counter* quarantine_drop_ctr_ = nullptr;
};

}  // namespace mk::core
