// Periodic timer utility used to drive Event Source components
// (HELLO emission, TC diffusion, route-table expiry sweeps, ...).
//
// Supports the uniform jitter recommended by the OLSR RFC (each firing is
// drawn from [interval * (1 - jitter), interval]) so that co-located nodes do
// not synchronise their control traffic.
#pragma once

#include <functional>

#include "util/rng.hpp"
#include "util/scheduler.hpp"

namespace mk {

class PeriodicTimer {
 public:
  /// `jitter` in [0,1): fraction of the interval randomly shaved off.
  PeriodicTimer(Scheduler& sched, Duration interval,
                std::function<void()> callback, double jitter = 0.0,
                std::uint64_t seed = 1);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms the timer; first firing after one (jittered) interval.
  void start();

  /// Disarms; pending firing is cancelled.
  void stop();

  bool running() const { return running_; }

  Duration interval() const { return interval_; }

 private:
  void arm();
  void fire();

  Scheduler& sched_;
  Duration interval_;
  std::function<void()> callback_;
  double jitter_;
  Rng rng_;
  bool running_ = false;
  TimerId pending_ = kInvalidTimer;
};

/// One-shot timer with cancel; wraps Scheduler for the common case.
class OneShotTimer {
 public:
  explicit OneShotTimer(Scheduler& sched) : sched_(sched) {}
  ~OneShotTimer() { cancel(); }

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)schedules `fn` after `d`, cancelling any pending shot.
  void schedule(Duration d, std::function<void()> fn);

  void cancel();

  bool pending() const { return id_ != kInvalidTimer; }

 private:
  void fire();

  Scheduler& sched_;
  TimerId id_ = kInvalidTimer;
  // The pending callback lives here, not in the scheduled closure: the
  // closure then captures only `this` (fits std::function's small-buffer
  // slot), so arming a one-shot performs no heap allocation when `fn`
  // itself is small.
  std::function<void()> fn_;
};

}  // namespace mk
