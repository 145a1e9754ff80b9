// Shared soft-state expiry layer (ISSUE 6). MANET protocol state is almost
// entirely soft: link/neighbor sets, MPR selector sets, TC-derived topology
// tuples, reactive route-table entries and duplicate caches all carry
// RFC-style holding times and must vanish — with a loss event — when their
// deadline lapses. Before this component each protocol CF ran its own
// PeriodicTimer sweep, which coupled expiry latency to the sweep cadence and
// (the ISSUE-6 bug) let stale state survive partitions between sweeps.
//
// SoftExpiry is an Event Source that protocols register *sets* into: a set
// has a name (journaled as a stable hash), a default holding time, a loss
// callback, and an optional reseed enumerator (used after a supervised
// restart re-instantiates sources around a carried S element). Entries are
// per-key deadlines armed directly on the scheduler — one timer per entry,
// which the hierarchical timer wheel makes O(1) to arm and cancel.
//
// Handlers, loss callbacks and seeds all reach the layer and the protocol's
// S element through the ProtocolContext they are handed: start() records
// the source on the context (ctx.soft()), stop() clears it, and seeds
// receive the same context, so no plug-in caches either pointer.
//
// Refreshes are lazy: touch() on an already-armed entry just records the new
// deadline, and the timer re-arms itself when the stale deadline fires. A
// link refreshed every HELLO therefore costs one probe of the set's
// open-addressed table (util/u64_table.hpp) per HELLO but only one
// scheduler arm per holding time, keeping steady-state timer traffic (and
// allocations) low. The table is never iterated where order could reach
// the journal: expiries fire in the scheduler's (time, seq) order, and
// stop() only cancels.
//
// Every true expiry appends a kSoftExpire journal record (through the
// owning Framework Manager's journal, when tracing is attached), so
// partition chaos runs can assert on the expiry stream itself.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/cfs.hpp"
#include "util/time.hpp"
#include "util/u64_table.hpp"

namespace mk::core {

/// The soft-state Event Source. Build-time: protocols define their sets
/// when the CF is composed; run-time: handlers touch()/drop() keys as
/// protocol messages arrive, and loss callbacks fire from the scheduler.
class SoftExpiry final : public EventSource {
 public:
  using SetId = std::uint8_t;

  /// Invoked when an entry's holding time lapses (after the entry is gone).
  using LossFn = std::function<void(std::uint64_t key, ProtocolContext& ctx)>;
  /// Enumerates keys to re-arm when the source (re)starts over carried
  /// state; each gets a fresh default hold.
  using SeedFn =
      std::function<std::vector<std::uint64_t>(ProtocolContext& ctx)>;

  SoftExpiry();

  // -- EventSource ------------------------------------------------------------
  void start(ProtocolContext& ctx) override;
  void stop() override;

  /// Registers a soft-state set; returns its id (stable for this instance).
  SetId define_set(std::string name, Duration hold, LossFn on_expire,
                   SeedFn seed = nullptr);

  /// Arms or refreshes `key` to expire at now() + the set's holding time.
  void touch(SetId set, std::uint64_t key);

  /// Arms or refreshes `key` with an explicit deadline (reactive routes
  /// carry per-entry lifetimes).
  void touch_at(SetId set, std::uint64_t key, TimePoint deadline);

  /// Forgets `key` without a loss event (explicit removal, e.g. LOST link
  /// codes). Returns false if the key was not tracked.
  bool drop(SetId set, std::uint64_t key);

  bool contains(SetId set, std::uint64_t key) const;

  /// The recorded deadline of `key`, or nullopt if it is not tracked.
  std::optional<TimePoint> deadline(SetId set, std::uint64_t key) const;

  /// Tracked entries (== armed deadlines) in one set / across all sets.
  std::size_t size(SetId set) const;
  std::size_t armed() const;

 private:
  struct Entry {
    TimePoint deadline{};  // authoritative expiry time
    TimePoint armed_at{};  // when the pending timer actually fires
    TimerId timer = kInvalidTimer;
  };
  struct Set {
    std::string name;
    std::uint64_t name_hash = 0;
    Duration hold{};
    LossFn on_expire;
    SeedFn seed;
    U64Table<Entry> entries;
  };

  void arm(SetId set, std::uint64_t key, Entry& entry, TimePoint at);
  void fire(SetId set, std::uint64_t key);

  ProtocolContext* ctx_ = nullptr;
  std::vector<Set> sets_;
};

/// A seed's keys from a range of addresses (or other integer keys), in
/// range order.
template <typename Range>
std::vector<std::uint64_t> seed_keys(const Range& keys) {
  return std::vector<std::uint64_t>(keys.begin(), keys.end());
}

}  // namespace mk::core
