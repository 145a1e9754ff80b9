#include "util/scheduler.hpp"

#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mk {

// ---------------------------------------------------------------- SimScheduler

TimerId SimScheduler::schedule_at(TimePoint t, std::function<void()> fn) {
  MK_ASSERT(fn != nullptr);
  if (t < now_) t = now_;  // never schedule into the past
  const TimerId id = next_seq_++;
  if (backend_ == SimBackend::kWheel) {
    wheel_.insert(t.us, id, std::move(fn));
  } else {
    Key key{t.us, id};
    queue_.emplace(key, std::move(fn));
    by_id_.emplace(id, key);
  }
  return id;
}

bool SimScheduler::cancel(TimerId id) {
  if (backend_ == SimBackend::kWheel) return wheel_.cancel(id);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  queue_.erase(it->second);
  by_id_.erase(it);
  return true;
}

std::optional<std::int64_t> SimScheduler::next_event_us() {
  if (backend_ == SimBackend::kWheel) {
    auto key = wheel_.peek();
    if (!key) return std::nullopt;
    return key->us;
  }
  if (queue_.empty()) return std::nullopt;
  return queue_.begin()->first.us;
}

bool SimScheduler::step() {
  Key key;
  std::function<void()> fn;
  if (backend_ == SimBackend::kWheel) {
    TimerWheel::Key k;
    if (!wheel_.pop(k, fn)) return false;
    key = Key{k.us, k.seq};
  } else {
    if (queue_.empty()) return false;
    auto it = queue_.begin();
    key = it->first;
    fn = std::move(it->second);
    queue_.erase(it);
    by_id_.erase(key.seq);
  }
  now_ = TimePoint{key.us};
  if (fire_hook_) fire_hook_(key.seq, now_);
  if (fault_trap_) {
    try {
      fn();
    } catch (...) {
      if (std::exchange(fault_declined_, false)) throw;
      if (!fault_trap_(std::current_exception())) throw;
    }
  } else {
    fn();
  }
  return true;
}

bool SimScheduler::trap_fault(std::exception_ptr fault) {
  if (!fault_trap_) return false;
  if (fault_trap_(std::move(fault))) return true;
  fault_declined_ = true;
  return false;
}

void SimScheduler::run_until(TimePoint t) {
  for (auto next = next_event_us(); next && *next <= t.us;
       next = next_event_us()) {
    step();
  }
  if (now_ < t) now_ = t;
}

std::size_t SimScheduler::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace mk
