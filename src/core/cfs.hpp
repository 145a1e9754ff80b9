// The CFS (Control–Forward–State) pattern building blocks (§3, Fig. 1):
//
//  * CfsUnit          — what the Framework Manager composes: anything with an
//                       event tuple and a deliver() entry point (ManetProtocol
//                       CF instances and the System CF).
//  * EventHandler     — plug-in processing logic of a protocol's C element;
//                       handlers run atomically (inside the owning CF's
//                       critical section) and may emit further events.
//  * EventSource      — timer-driven emitters (HELLO generation, TC
//                       diffusion, expiry sweeps); PeriodicSource is the
//                       common one-periodic-timer kind.
//  * ProtocolContext  — the one door through which handlers, sources and
//                       soft-state loss callbacks reach their protocol's
//                       services: event emission, the scheduler and clock,
//                       the protocol's own S element (typed, asserted), the
//                       soft-state layer, kernel routes (through the System
//                       CF's S element), and the metrics registry. Sibling
//                       CFs are not reached through it: code that needs one
//                       looks it up with Manetkit::protocol(name) at use, so
//                       a restarted sibling is always the live instance.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ifaces.hpp"
#include "events/event.hpp"
#include "obs/metrics.hpp"
#include "opencom/component.hpp"
#include "util/scheduler.hpp"
#include "util/timer.hpp"

namespace mk::core {

class CfsUnit {
 public:
  virtual ~CfsUnit() = default;

  virtual const std::string& unit_name() const = 0;

  /// Protocol category ("reactive", "proactive", ...) used by
  /// deployment-level integrity rules; empty for utility units.
  virtual std::string_view category() const { return {}; }

  /// The declarative <required-events, provided-events> contract.
  virtual const ev::EventTuple& tuple() const = 0;

  /// Delivers an event into the unit (runs its handlers / forwarding).
  virtual void deliver(const ev::Event& event) = 0;
};

class ManetProtocolCf;
class SoftExpiry;

/// Execution context handed to handlers and sources.
class ProtocolContext {
 public:
  ProtocolContext(ManetProtocolCf& proto, Scheduler& sched, net::Addr self,
                  ISysState* sys)
      : proto_(proto), sched_(sched), self_(self), sys_(sys) {}

  /// Emits an event from the owning protocol; it is routed by the Framework
  /// Manager per the current event-tuple bindings.
  void emit(ev::Event event);

  Scheduler& scheduler() { return sched_; }
  TimePoint now() const { return sched_.now(); }

  /// This node's address.
  net::Addr self() const { return self_; }

  /// The System CF's S element (kernel routes, devices). May be null in
  /// handler unit tests.
  ISysState* sys() { return sys_; }

  /// The owning protocol's S element (null if none installed).
  oc::Component* state();

  /// The owning protocol's S element as its concrete type; asserts that one
  /// of that type is installed.
  template <typename T>
  T& state_as() {
    auto* s = dynamic_cast<T*>(state());
    if (s == nullptr) missing_state();
    return *s;
  }

  /// The protocol's started soft-state layer (SoftExpiry::start records it,
  /// stop() clears it); null when the composition has none or it is stopped.
  SoftExpiry* soft() { return soft_; }

  /// Installs or replaces the kernel route to `dest`, stamped now(). Does
  /// nothing without a System CF S element (handler unit tests).
  void set_route(net::Addr dest, net::Addr next_hop, std::uint32_t metric);
  /// Withdraws the kernel route to `dest`, if any.
  void remove_route(net::Addr dest);

  ManetProtocolCf& protocol() { return proto_; }

  /// The owning protocol's metrics registry (per-node when deployed through
  /// Manetkit, a private fallback otherwise). Handlers cache the Counter&
  /// they need — counter() interns once, then the increment is one relaxed
  /// atomic add.
  obs::MetricsRegistry& metrics();

 private:
  /// state_as's failure path, kept out of line: aborts naming the unit.
  [[noreturn]] void missing_state() const;

  ManetProtocolCf& proto_;
  Scheduler& sched_;
  net::Addr self_;
  ISysState* sys_;
  SoftExpiry* soft_ = nullptr;

  friend class SoftExpiry;  // records itself on start, clears on stop
};

/// Plug-in event-processing component (the protocol logic lives here).
class EventHandler : public oc::Component {
 public:
  EventHandler(std::string name, const std::vector<std::string>& handled);

  /// The event types handled, sorted and duplicate-free.
  const std::vector<ev::EventTypeId>& handles() const { return handles_; }

  /// Processes one event. Guaranteed atomic w.r.t. other handlers of the
  /// same protocol and w.r.t. reconfiguration.
  virtual void handle(const ev::Event& event, ProtocolContext& ctx) = 0;

 protected:
  std::vector<ev::EventTypeId> handles_;
};

/// Plug-in event source, typically driven by a PeriodicTimer.
class EventSource : public oc::Component {
 public:
  explicit EventSource(std::string name) : oc::Component(std::move(name)) {}

  virtual void start(ProtocolContext& ctx) = 0;
  virtual void stop() = 0;
};

/// An Event Source driven by one PeriodicTimer, armed on start() and
/// cancelled on stop(). Its jitter stream is seeded with the node address
/// plus `seed_offset`, so each periodic source of a node draws its own.
class PeriodicSource : public EventSource {
 public:
  PeriodicSource(std::string name, Duration interval, double jitter,
                 std::uint64_t seed_offset)
      : EventSource(std::move(name)),
        interval_(interval),
        jitter_(jitter),
        seed_offset_(seed_offset) {}

  void start(ProtocolContext& ctx) override {
    timer_ = std::make_unique<PeriodicTimer>(
        ctx.scheduler(), interval_, [this, &ctx] { fire(ctx); }, jitter_,
        ctx.self() + seed_offset_);
    timer_->start();
  }

  void stop() override { timer_.reset(); }

 protected:
  /// One period's work.
  virtual void fire(ProtocolContext& ctx) = 0;

 private:
  Duration interval_;
  double jitter_;
  std::uint64_t seed_offset_;
  std::unique_ptr<PeriodicTimer> timer_;
};

}  // namespace mk::core
