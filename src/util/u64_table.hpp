// Open-addressed hash table keyed by 64-bit integers: linear probing over
// power-of-two parallel key/value arrays, backward-shift deletion (no
// tombstones, so probe chains stay as short as the load allows), growth by
// doubling at 70% load. It indexes the timer wheel's pending ids and the
// soft-state layer's per-set entries; both are written on every timer arm
// or HELLO refresh, where a node-based map costs an allocation per insert
// and a pointer chase per level.
//
// One key value is reserved: kEmptyKey (all ones) marks a free cell and may
// not be stored. Timer ids are sequence numbers and soft-state keys fit in
// 56 bits, so neither reaches it.
//
// Iteration (for_each) visits cells in hash order, which depends on the
// insertion history: nothing whose order reaches a journal may iterate it.
// Pointers returned by find/emplace stay valid until the next emplace or
// erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mk {

template <typename V>
class U64Table {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// `capacity` (a power of two, or 0 to allocate on first insert) sizes
  /// the initial arrays.
  explicit U64Table(std::size_t capacity = 0) {
    MK_ASSERT((capacity & (capacity - 1)) == 0, "capacity must be 2^k");
    if (capacity > 0) rehash(capacity);
  }

  std::size_t size() const { return used_; }
  bool empty() const { return used_ == 0; }
  std::size_t capacity() const { return keys_.size(); }

  V* find(std::uint64_t key) {
    const std::size_t p = locate(key);
    return p == kNone ? nullptr : &vals_[p];
  }
  const V* find(std::uint64_t key) const {
    const std::size_t p = locate(key);
    return p == kNone ? nullptr : &vals_[p];
  }
  bool contains(std::uint64_t key) const { return locate(key) != kNone; }

  /// The value under `key`, value-initialised and inserted if absent; the
  /// flag is true when it was inserted.
  std::pair<V*, bool> emplace(std::uint64_t key) {
    MK_ASSERT(key != kEmptyKey, "U64Table reserves the all-ones key");
    if ((used_ + 1) * 10 > keys_.size() * 7) {
      rehash(keys_.empty() ? kMinCapacity : keys_.size() * 2);
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t p = home(key, mask);
    while (keys_[p] != kEmptyKey) {
      if (keys_[p] == key) return {&vals_[p], false};
      p = (p + 1) & mask;
    }
    keys_[p] = key;
    vals_[p] = V{};
    ++used_;
    return {&vals_[p], true};
  }

  /// Removes `key` and returns its value, or nullopt if absent.
  std::optional<V> take(std::uint64_t key) {
    std::size_t p = locate(key);
    if (p == kNone) return std::nullopt;
    std::optional<V> out(std::move(vals_[p]));
    // Backward shift: pull each later member of the probe chain whose home
    // does not lie cyclically in (p, q] into the hole, so lookups never
    // need a tombstone to keep walking.
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t q = (p + 1) & mask; keys_[q] != kEmptyKey;
         q = (q + 1) & mask) {
      if (((q - home(keys_[q], mask)) & mask) >= ((q - p) & mask)) {
        keys_[p] = keys_[q];
        vals_[p] = std::move(vals_[q]);
        p = q;
      }
    }
    keys_[p] = kEmptyKey;
    vals_[p] = V{};
    --used_;
    return out;
  }
  bool erase(std::uint64_t key) { return take(key).has_value(); }

  /// Empties the table; capacity is kept.
  void clear() {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) {
        keys_[i] = kEmptyKey;
        vals_[i] = V{};
      }
    }
    used_ = 0;
  }

  /// Visits every (key, value) in cell order. `fn` must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], vals_[i]);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], vals_[i]);
    }
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  /// Probe start: a multiplicative (Fibonacci) mix, so sequential ids and
  /// addresses spread over the cells.
  static std::size_t home(std::uint64_t key, std::size_t mask) {
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
  }

  std::size_t locate(std::uint64_t key) const {
    if (used_ == 0) return kNone;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t p = home(key, mask); keys_[p] != kEmptyKey;
         p = (p + 1) & mask) {
      if (keys_[p] == key) return p;
    }
    return kNone;
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> keys(capacity, kEmptyKey);
    std::vector<V> vals(capacity);
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == kEmptyKey) continue;
      std::size_t p = home(keys_[i], mask);
      while (keys[p] != kEmptyKey) p = (p + 1) & mask;
      keys[p] = keys_[i];
      vals[p] = std::move(vals_[i]);
    }
    keys_ = std::move(keys);
    vals_ = std::move(vals);
  }

  std::vector<std::uint64_t> keys_;  // kEmptyKey marks a free cell
  std::vector<V> vals_;
  std::size_t used_ = 0;
};

}  // namespace mk
