// Scheduler abstraction: the only clock/timer facility protocol code may use.
// SimScheduler, the deterministic discrete-event queue, is its one
// implementation (tests, examples and every bench run in simulated time).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <optional>

#include "util/time.hpp"
#include "util/timer_wheel.hpp"

namespace mk {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Which structure SimScheduler keeps its pending events in. Both produce
/// the same (time, seq) execution order and the same TimerIds, so traced
/// runs digest identically — the heap is kept as the parity oracle for the
/// wheel (see tests/test_timer_wheel.cpp).
enum class SimBackend {
  kWheel,  // hierarchical timing wheel: O(1) arm/cancel, pooled nodes
  kHeap,   // ordered-map comparison queue (the original implementation)
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual TimePoint now() const = 0;

  /// Runs `fn` at absolute time `t` (or as soon after as possible).
  virtual TimerId schedule_at(TimePoint t, std::function<void()> fn) = 0;

  /// Cancels a pending callback. Returns false if it already ran or is unknown.
  virtual bool cancel(TimerId id) = 0;

  TimerId schedule_after(Duration d, std::function<void()> fn) {
    return schedule_at(now() + d, std::move(fn));
  }

  /// Offers an exception thrown by one unit of work inside a fired callback
  /// to the scheduler's fault barrier, as if that unit had been a callback
  /// of its own: true if the barrier swallowed it (carry on with the next
  /// unit), false if the caller must rethrow. A callback that batches
  /// independent work (the medium's one-event broadcast) calls this per
  /// unit so one fault does not cost the rest of the batch.
  virtual bool trap_fault(std::exception_ptr) { return false; }
};

/// Deterministic discrete-event scheduler. Single-threaded: callers drive it
/// via step()/run_until()/run_for(). Events at equal times run in FIFO order.
class SimScheduler final : public Scheduler {
 public:
  explicit SimScheduler(SimBackend backend = SimBackend::kWheel)
      : backend_(backend) {}

  SimBackend backend() const { return backend_; }

  TimePoint now() const override { return now_; }
  TimerId schedule_at(TimePoint t, std::function<void()> fn) override;
  bool cancel(TimerId id) override;

  /// Observer invoked before each queue entry runs (id, fire time). The ids
  /// are deterministic sequence numbers, so a trace journal hooked here
  /// witnesses the exact discrete-event execution order of a run. Null
  /// clears; no overhead when unset beyond one branch per step.
  using FireHook = std::function<void(TimerId, TimePoint)>;
  void set_fire_hook(FireHook hook) { fire_hook_ = std::move(hook); }

  /// Fault barrier over the timer-fire path (supervision, ISSUE 5): when a
  /// scheduled callback throws, the trap is invoked with the captured
  /// exception; returning true swallows the fault (the event loop keeps
  /// running), false — or no trap installed — rethrows to the driver.
  using FaultTrap = std::function<bool(std::exception_ptr)>;
  void set_fault_trap(FaultTrap trap) { fault_trap_ = std::move(trap); }
  bool trap_fault(std::exception_ptr fault) override;

  /// Runs the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= t, then sets now() = t.
  void run_until(TimePoint t);

  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue (bounded by `max_events` as a runaway guard).
  /// Returns the number of events executed.
  std::size_t run_all(std::size_t max_events = 10'000'000);

  std::size_t pending() const {
    return backend_ == SimBackend::kWheel ? wheel_.size() : queue_.size();
  }

 private:
  struct Key {
    std::int64_t us;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// Fire time of the earliest pending event (advances the wheel cursor).
  std::optional<std::int64_t> next_event_us();

  SimBackend backend_;
  TimePoint now_{};
  std::uint64_t next_seq_ = 1;
  TimerWheel wheel_;
  std::map<Key, std::function<void()>> queue_;
  std::map<TimerId, Key> by_id_;
  FireHook fire_hook_;
  FaultTrap fault_trap_;
  // Set when trap_fault() saw the trap decline a fault the caller is now
  // rethrowing, so step() does not offer it to the trap a second time.
  bool fault_declined_ = false;
};

}  // namespace mk
