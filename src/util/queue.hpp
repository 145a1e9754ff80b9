// Thread-safe FIFO used by the thread-per-ManetProtocol concurrency model and
// the thread pool. Closeable so consumer threads can shut down cleanly.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace mk {

template <typename T>
class BlockingQueue {
 public:
  /// Enqueues unless the queue has been closed. Returns false if closed.
  bool push(T value) {
    {
      std::scoped_lock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Drains up to `max` items into `out` (appended in FIFO order), blocking
  /// until at least one is available or the queue is closed and empty.
  /// Returns the number appended — 0 means closed-and-drained. Callers pass
  /// the same vector each round so steady-state batches reuse its capacity.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    std::size_t n = 0;
    while (n < max && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    return n;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void close() {
    {
      std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::scoped_lock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace mk
