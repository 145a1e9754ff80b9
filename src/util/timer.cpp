#include "util/timer.hpp"

#include <utility>

#include "util/assert.hpp"

namespace mk {

PeriodicTimer::PeriodicTimer(Scheduler& sched, Duration interval,
                             std::function<void()> callback, double jitter,
                             std::uint64_t seed)
    : sched_(sched),
      interval_(interval),
      callback_(std::move(callback)),
      jitter_(jitter),
      rng_(seed) {
  MK_ASSERT(interval_.count() > 0);
  MK_ASSERT(jitter_ >= 0.0 && jitter_ < 1.0);
  MK_ASSERT(callback_ != nullptr);
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  running_ = false;
  if (pending_ != kInvalidTimer) {
    sched_.cancel(pending_);
    pending_ = kInvalidTimer;
  }
}

void PeriodicTimer::arm() {
  auto delay = interval_;
  if (jitter_ > 0.0) {
    delay = Duration{static_cast<std::int64_t>(
        static_cast<double>(interval_.count()) *
        (1.0 - jitter_ * rng_.uniform()))};
  }
  pending_ = sched_.schedule_after(delay, [this] { fire(); });
}

void PeriodicTimer::fire() {
  pending_ = kInvalidTimer;
  if (!running_) return;
  callback_();
  // The callback may have stopped (or destroyed-and-restarted) the timer.
  if (running_ && pending_ == kInvalidTimer) arm();
}

void OneShotTimer::schedule(Duration d, std::function<void()> fn) {
  cancel();
  fn_ = std::move(fn);
  id_ = sched_.schedule_after(d, [this] { fire(); });
}

void OneShotTimer::fire() {
  id_ = kInvalidTimer;
  // Move out first: the callback may destroy this timer or reschedule it.
  std::function<void()> fn = std::move(fn_);
  fn();
}

void OneShotTimer::cancel() {
  if (id_ != kInvalidTimer) {
    sched_.cancel(id_);
    id_ = kInvalidTimer;
    fn_ = nullptr;  // release captured resources with the shot
  }
}

}  // namespace mk
