#include "util/timer_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/assert.hpp"

namespace mk {

namespace {

constexpr std::size_t kInitialIdCapacity = 256;  // power of two

}  // namespace

TimerWheel::TimerWheel() : ids_(kInitialIdCapacity) {
  for (auto& h : heads_) h = kNil;
  for (auto& t : tails_) t = kNil;
  std::memset(bitmap_, 0, sizeof(bitmap_));
  pool_.reserve(256);
}

// ------------------------------------------------------------------ node pool

std::uint32_t TimerWheel::alloc_node() {
  if (free_head_ != kNil) {
    std::uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void TimerWheel::free_node(std::uint32_t idx) {
  Node& n = pool_[idx];
  n.fn = nullptr;  // release the closure eagerly
  n.prev = kNil;
  n.loc = kLocFree;
  n.next = free_head_;
  free_head_ = idx;
}

// ------------------------------------------------------------------ placement

void TimerWheel::place(std::uint32_t idx) {
  Node& n = pool_[idx];
  std::int64_t t = tick_of(n.us);
  // A deadline at or behind the cursor lands in the cursor's own slot: the
  // scan finds it immediately and the per-slot (us, seq) ordering still fires
  // it before anything later.
  if (t < cursor_) t = cursor_;
  for (int level = 0; level < kLevels; ++level) {
    const std::int64_t base = cursor_ & ~(level_span(level) - 1);
    if (t < base + level_span(level)) {
      const int slot = static_cast<int>((t >> (kSlotBits * level)) &
                                        (kSlots - 1));
      const int loc = level * kSlots + slot;
      n.loc = static_cast<std::int16_t>(loc);
      // Link after the last entry whose key is <= n's: a level-0 slot stays
      // sorted, so its head is its minimum. Higher levels just append.
      std::uint32_t after = tails_[loc];
      if (level == 0) {
        const Key key{n.us, n.seq};
        while (after != kNil && key < Key{pool_[after].us, pool_[after].seq}) {
          after = pool_[after].prev;
        }
      }
      n.prev = after;
      n.next = after == kNil ? heads_[loc] : pool_[after].next;
      if (n.prev != kNil) {
        pool_[n.prev].next = idx;
      } else {
        heads_[loc] = idx;
      }
      if (n.next != kNil) {
        pool_[n.next].prev = idx;
      } else {
        tails_[loc] = idx;
      }
      bitmap_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++wheel_count_;
      return;
    }
  }
  n.loc = kLocOverflow;
  overflow_.emplace(Key{n.us, n.seq}, idx);
}

void TimerWheel::unlink(std::uint32_t idx) {
  Node& n = pool_[idx];
  const int loc = n.loc;
  MK_ASSERT(loc >= 0 && loc < kLocOverflow);
  if (n.prev != kNil) {
    pool_[n.prev].next = n.next;
  } else {
    heads_[loc] = n.next;
  }
  if (n.next != kNil) {
    pool_[n.next].prev = n.prev;
  } else {
    tails_[loc] = n.prev;
  }
  if (heads_[loc] == kNil) {
    const int level = loc >> kSlotBits;
    const int slot = loc & (kSlots - 1);
    bitmap_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  n.prev = n.next = kNil;
}

void TimerWheel::cascade(int level, int slot) {
  const int loc = level * kSlots + slot;
  cascade_scratch_.clear();
  for (std::uint32_t i = heads_[loc]; i != kNil; i = pool_[i].next) {
    cascade_scratch_.push_back({Key{pool_[i].us, pool_[i].seq}, i});
  }
  heads_[loc] = tails_[loc] = kNil;
  bitmap_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  wheel_count_ -= cascade_scratch_.size();
  std::sort(cascade_scratch_.begin(), cascade_scratch_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Strictly descends (the slot's window is now cursor-local) into levels
  // that are all empty, so in key order every level-0 placement appends.
  for (const auto& entry : cascade_scratch_) place(entry.second);
}

int TimerWheel::first_slot(int level) const {
  for (int w = 0; w < kSlots / 64; ++w) {
    if (bitmap_[level][w] != 0) {
      return w * 64 + std::countr_zero(bitmap_[level][w]);
    }
  }
  return -1;
}

// ------------------------------------------------------------------ interface

void TimerWheel::insert(std::int64_t us, std::uint64_t seq,
                        std::function<void()> fn) {
  if (size_ == 0) cursor_ = tick_of(us);  // nothing pending: re-anchor
  const std::uint32_t idx = alloc_node();
  Node& n = pool_[idx];
  n.us = us;
  n.seq = seq;
  n.fn = std::move(fn);
  auto [id, fresh] = ids_.emplace(seq);
  MK_ASSERT(fresh, "timer sequence number already pending");
  *id = idx;
  place(idx);
  ++size_;
}

bool TimerWheel::cancel(std::uint64_t seq) {
  const auto taken = ids_.take(seq);
  if (!taken) return false;
  const std::uint32_t idx = *taken;
  Node& n = pool_[idx];
  if (n.loc == kLocOverflow) {
    overflow_.erase(Key{n.us, n.seq});
  } else {
    unlink(idx);
    --wheel_count_;
  }
  free_node(idx);
  --size_;
  return true;
}

std::optional<TimerWheel::Key> TimerWheel::peek() {
  if (size_ == 0) return std::nullopt;
  std::optional<Key> wheel_min;
  if (wheel_count_ > 0) {
    for (;;) {
      const int s0 = first_slot(0);
      if (s0 >= 0) {
        cursor_ = (cursor_ & ~static_cast<std::int64_t>(kSlots - 1)) + s0;
        const Node& head = pool_[heads_[s0]];  // sorted slot: its minimum
        wheel_min = Key{head.us, head.seq};
        break;
      }
      // Level 0 exhausted: jump to the next occupied slot at the lowest
      // occupied level (its entries are the earliest anywhere above) and
      // cascade it down into the window the cursor just entered.
      int level = -1;
      int slot = -1;
      for (int l = 1; l < kLevels; ++l) {
        const int s = first_slot(l);
        if (s >= 0) {
          level = l;
          slot = s;
          break;
        }
      }
      MK_ASSERT(level > 0, "wheel count positive but no occupied slot");
      const std::int64_t base = cursor_ & ~(level_span(level) - 1);
      cursor_ = base + slot * slot_span(level);
      cascade(level, slot);
    }
  }
  if (!overflow_.empty()) {
    const Key& front = overflow_.begin()->first;
    if (!wheel_min || front < *wheel_min) return front;
  }
  return wheel_min;
}

bool TimerWheel::pop(Key& key, std::function<void()>& fn) {
  auto k = peek();
  if (!k) return false;
  key = *k;
  if (!overflow_.empty() && overflow_.begin()->first == *k) {
    const std::uint32_t idx = overflow_.begin()->second;
    overflow_.erase(overflow_.begin());
    fn = std::move(pool_[idx].fn);
    ids_.erase(k->seq);
    free_node(idx);
    --size_;
    return true;
  }
  // peek() left the cursor on the slot whose head is the minimum.
  const int loc = static_cast<int>(cursor_) & (kSlots - 1);
  const std::uint32_t idx = heads_[loc];
  MK_ASSERT(idx != kNil && pool_[idx].seq == k->seq,
            "peeked minimum is not its slot's head");
  unlink(idx);
  --wheel_count_;
  fn = std::move(pool_[idx].fn);
  ids_.erase(k->seq);
  free_node(idx);
  --size_;
  return true;
}

}  // namespace mk
