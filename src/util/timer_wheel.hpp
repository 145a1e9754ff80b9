// Hierarchical timing wheel (Varghese & Lauck) backing SimScheduler's
// discrete-event queue. The ordered-map oracle costs two map-node
// allocations per arm and O(log n) per arm/cancel; with the soft-state
// expiry layer arming one deadline per link/neighbor/topology entry, timer
// traffic dominates scheduled work, so arm/cancel must be O(1) and
// allocation-free in steady state.
//
// Shape: 4 levels x 256 slots over a 1024 us tick. Level 0 resolves single
// ticks (~0.26 s horizon); each higher level covers 256x the span of the one
// below (level 3 reaches ~51 days). Deadlines beyond that — e.g. the fault
// planner's "never" crash sentinel — fall into a sorted overflow map that is
// only consulted for its minimum. Slots are intrusive doubly-linked lists
// over a pooled node vector (free-list recycled, never shrunk), per-level
// occupancy bitmaps make empty-region scans word-sized jumps, and an
// open-addressed id index (util/u64_table.hpp) gives O(1) cancel by TimerId.
//
// Ordering invariant: every level-0 slot is a list sorted by (us, seq), so
// its head is the slot's minimum. Higher-level slots are unordered; a
// cascade sorts a slot's entries once and re-places them in that order.
//
// Cost model:
//   - arm: O(1). A level-0 arm links after the last entry whose key is <=
//     its own, walking back from the slot's tail; seq grows monotonically,
//     so a burst at one deadline always appends. The walk is only long for
//     an arm that lands earlier inside a slot already holding later
//     entries, and that is paid once per arm, never per pop.
//   - cancel: O(1) (id index + unlink).
//   - peek/pop: O(1) — the head of the first occupied level-0 slot, found
//     through the bitmap, plus the overflow map's minimum.
//   - cascade: one sort per higher-level slot as the cursor enters its
//     window; it runs only when every lower level is empty, so each
//     placement appends.
//
// Determinism contract (the journal digests hang off this): entries pop in
// strict (us, seq) order, FIFO among equal deadlines, and ids are the same
// caller-assigned sequence numbers the ordered-map oracle hands out — so an
// oracle-backed and a wheel-backed run of the same seed produce identical
// kTimerFire streams.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "util/u64_table.hpp"

namespace mk {

class TimerWheel {
 public:
  /// Total order over pending entries: fire time, then insertion sequence.
  struct Key {
    std::int64_t us;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  TimerWheel();

  /// Inserts a callback at absolute time `us` with caller-assigned unique
  /// sequence number `seq` (used as the cancel handle and the FIFO tie-break).
  void insert(std::int64_t us, std::uint64_t seq, std::function<void()> fn);

  /// Removes a pending entry. Returns false if unknown (already fired or
  /// cancelled).
  bool cancel(std::uint64_t seq);

  /// Key of the earliest pending entry without removing it. Advances the
  /// internal cursor over empty slots (cascading higher levels as windows
  /// open), which is safe: the cursor never passes a pending entry.
  std::optional<Key> peek();

  /// Removes and returns the earliest pending entry.
  bool pop(Key& key, std::function<void()>& fn);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Geometry (exposed for the unit tests that walk cascade boundaries).
  static constexpr int kTickShift = 10;  // 1024 us per tick
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;  // 256 per level
  static constexpr int kLevels = 4;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::int16_t kLocOverflow = kLevels * kSlots;
  static constexpr std::int16_t kLocFree = -1;

  struct Node {
    std::int64_t us = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::int16_t loc = kLocFree;  // level * kSlots + slot, or kLocOverflow
  };

  static std::int64_t tick_of(std::int64_t us) { return us >> kTickShift; }
  /// Span, in ticks, a slot at `level` covers (1, 256, 2^16, 2^24).
  static std::int64_t slot_span(int level) {
    return std::int64_t{1} << (kSlotBits * level);
  }
  /// Span, in ticks, of `level`'s whole window (256, 2^16, 2^24, 2^32).
  static std::int64_t level_span(int level) {
    return std::int64_t{1} << (kSlotBits * (level + 1));
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  /// Places node `idx` by its tick relative to the cursor (level choice per
  /// the current-rotation rule; ticks at/behind the cursor land in the
  /// cursor's own level-0 slot so the scan finds them immediately). Level-0
  /// slots stay sorted by (us, seq); higher levels append at the tail.
  void place(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// Re-places every node in (level, slot), in (us, seq) order, after the
  /// cursor entered that slot's window — all of them now fit a lower level.
  void cascade(int level, int slot);
  /// First occupied slot index at `level`, or -1. All pending slots at a
  /// level are at or ahead of the cursor's index there (see place()).
  int first_slot(int level) const;

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t heads_[kLevels * kSlots];
  std::uint32_t tails_[kLevels * kSlots];
  std::uint64_t bitmap_[kLevels][kSlots / 64];
  std::int64_t cursor_ = 0;  // tick: no wheel entry fires before it
  std::size_t size_ = 0;        // wheel + overflow
  std::size_t wheel_count_ = 0; // wheel only
  std::map<Key, std::uint32_t> overflow_;
  std::vector<std::pair<Key, std::uint32_t>> cascade_scratch_;  // reused
  U64Table<std::uint32_t> ids_;  // seq -> pool index of a pending entry
};

}  // namespace mk
