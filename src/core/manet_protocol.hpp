// The generic ManetProtocol CF (§4.2, Fig. 3): the component framework that
// is instantiated and tailored for each ad-hoc routing protocol.
//
// Structure:
//   ManetProtocolCf  (outer CF, a CfsUnit)
//     ├── ManetControlCf  (nested CF: Control element + Event Handlers +
//     │                    Event Sources + the Event Registry; an integrity
//     │                    rule keeps it the only one)
//     ├── S slot — at most one S component (protocol state)
//     └── F slot — at most one F component (forwarding strategy)
// The S and F elements are members of the CF like any plug-in; the slots
// record which members they are, so one cannot hold two elements.
//
// deliver() runs the unit's handlers inside the CF lock, giving the paper's
// guarantee that user-provided parts of a ManetProtocol run as a single
// critical section: handlers execute atomically, and reconfiguration (which
// also takes the lock) only happens when the unit is quiescent.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cfs.hpp"
#include "core/executor.hpp"
#include "core/ifaces.hpp"
#include "events/event.hpp"
#include "obs/metrics.hpp"
#include "opencom/cf.hpp"

namespace mk::core {

class FrameworkManager;

/// Nested CF holding the C element machinery: plug-in Event Handlers and
/// Event Sources, plus the Event Registry mapping event types to the
/// handlers subscribed to them. The registry is a vector indexed by event
/// type; each list is in component-id order, so a replacement (fresh id)
/// runs last for its types. The handler operations below keep it current;
/// the generic insert/replace/remove do not touch it.
class ManetControlCf : public oc::ComponentFramework {
 public:
  struct Subscription {
    oc::ComponentId id;
    EventHandler* handler;
  };

  ManetControlCf();

  /// Inserts a handler and subscribes it to the types it handles.
  oc::ComponentId add_handler(std::unique_ptr<EventHandler> handler);
  /// Replaces member `old_id` with `handler` (fresh id). Throws, leaving the
  /// composition and registry as they were, if an integrity rule rejects it.
  oc::ComponentId replace_handler(oc::ComponentId old_id,
                                  std::unique_ptr<EventHandler> handler);
  /// Removes member `id`, unsubscribing it first if it is a handler.
  void remove_handler(oc::ComponentId id);

  /// Handlers subscribed to `type`, in component-id order.
  const std::vector<Subscription>& handlers_for(ev::EventTypeId type) const;

  std::vector<EventSource*> sources() const;
  std::vector<EventHandler*> handlers() const;

 private:
  void subscribe(oc::ComponentId id, EventHandler& handler);
  void unsubscribe(const EventHandler& handler);

  std::vector<std::vector<Subscription>> registry_;
};

class ManetProtocolCf : public oc::ComponentFramework, public CfsUnit {
 public:
  /// `sys` may be null for handler-level unit tests.
  ManetProtocolCf(std::string proto_name, Scheduler& sched,
                  net::Addr self, ISysState* sys);
  ~ManetProtocolCf() override;

  // -- CfsUnit ----------------------------------------------------------------
  const std::string& unit_name() const override { return name(); }
  /// Renames the unit (used when one protocol's composition is reused as the
  /// basis of another, e.g. the zone-hybrid built from DYMO).
  void set_unit_name(std::string name) { set_name(std::move(name)); }
  std::string_view category() const override { return category_; }
  void set_category(std::string category) { category_ = std::move(category); }
  const ev::EventTuple& tuple() const override { return tuple_; }
  void deliver(const ev::Event& event) override;

  // -- event tuple (declarative composition) -----------------------------------
  /// Sets the <required, provided> tuple; if the unit is registered with a
  /// Framework Manager this triggers automatic re-binding (§4.5's first
  /// reconfiguration-enactment method).
  void set_tuple(ev::EventTuple tuple);

  /// Convenience builder from names; `exclusive` must be a subset of
  /// `required`.
  void declare_events(const std::vector<std::string>& required,
                      const std::vector<std::string>& provided,
                      const std::vector<std::string>& exclusive = {});

  // -- composition helpers ------------------------------------------------------
  /// Adds a handler plug-in to the nested ManetControl CF.
  oc::ComponentId add_handler(std::unique_ptr<EventHandler> handler);

  /// Replaces a handler (by name) with a new one; used by protocol
  /// variants (power-aware Hello Handler, multipath RE Handler, ...).
  oc::ComponentId replace_handler(std::string_view name,
                                  std::unique_ptr<EventHandler> handler);

  /// Removes a handler by name; returns false if not found.
  bool remove_handler(std::string_view name);

  oc::ComponentId add_source(std::unique_ptr<EventSource> source);

  /// Removes a source by name (stopping it first); returns false if not
  /// found.
  bool remove_source(std::string_view name);

  /// Installs the S element into its slot, replacing the current one. The S
  /// and F elements leave the CF only through these slot operations.
  void set_state(std::unique_ptr<oc::Component> state);

  /// Extracts the S element for carry-over to another protocol instance
  /// (§4.5 state management) and empties the slot. The protocol keeps
  /// running stateless until a new S element is installed.
  std::unique_ptr<oc::Component> take_state();

  /// Installs the F element into its slot, replacing the current one; it
  /// must provide IForward.
  void set_forward(std::unique_ptr<oc::Component> forward);

  /// This protocol's S element (null if none). Read under the CF lock, so a
  /// dedicated-thread handler and a reconfigurer see the slot consistently.
  oc::Component* state_component() const;

  ManetControlCf& control() { return *control_; }
  ProtocolContext& context() { return ctx_; }

  // -- lifecycle ----------------------------------------------------------------
  void start();
  void stop();
  bool running() const { return running_; }

  // -- concurrency ----------------------------------------------------------------
  /// Switches this instance to the thread-per-ManetProtocol model.
  void enable_dedicated_thread();
  void disable_dedicated_thread();
  DedicatedQueue* dedicated() { return dedicated_.get(); }

  // -- wiring (used by FrameworkManager / Manetkit) -----------------------------
  void set_manager(FrameworkManager* manager) { manager_ = manager; }
  FrameworkManager* manager() const { return manager_; }

  /// Emission entry point (ProtocolContext::emit lands here). Routed through
  /// the manager; if none is attached, the emit hook (tests) receives it.
  void emit(ev::Event event);

  using EmitHook = std::function<void(const ev::Event&)>;
  void set_emit_hook(EmitHook hook) { emit_hook_ = std::move(hook); }

  std::uint64_t events_delivered() const { return events_delivered_; }

  // -- observability ------------------------------------------------------------
  /// Re-homes this protocol's metrics (handler/source counters reached via
  /// ProtocolContext::metrics()) onto a shared per-node registry. Null
  /// reverts to the private fallback registry.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry& metrics_registry() {
    return metrics_ != nullptr ? *metrics_ : own_metrics_;
  }

 private:
  /// A CFS slot: which member is the S (or F) element.
  struct Slot {
    oc::ComponentId id = oc::kNoComponent;
    oc::Component* comp = nullptr;
  };
  /// Inserts `comp`, or replaces the slot's current member with it.
  void fill(Slot& slot, std::unique_ptr<oc::Component> comp);

  std::string category_;
  ev::EventTuple tuple_;
  ManetControlCf* control_ = nullptr;  // owned as a CF member
  Slot state_;
  Slot forward_;
  FrameworkManager* manager_ = nullptr;
  EmitHook emit_hook_;
  ProtocolContext ctx_;
  std::unique_ptr<DedicatedQueue> dedicated_;
  bool running_ = false;
  std::uint64_t events_delivered_ = 0;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Resolved on the first delivery into the current registry, so building
  // an instance interns nothing.
  obs::Counter* delivered_ctr_ = nullptr;
};

}  // namespace mk::core
