// S element of the DYMO CF: the reactive routing table (with sequence
// numbers and lifetimes), the pending route-discovery (RREQ) table with
// binary exponential backoff, and the RREQ/RERR duplicate set.
//
// The route representation carries a *path list* so the multipath variant
// can replace the S component with one that accommodates multiple
// link-disjoint paths per destination (§5.2) while sharing this base.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "protocols/reactive.hpp"
#include "protocols/timing.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"
#include "util/u64_table.hpp"

namespace mk::proto {

struct DymoPath {
  net::Addr next_hop = net::kNoAddr;
  std::uint8_t hops = 0;
};

/// Most paths one route holds: the multipath variant's link-disjoint
/// alternates; the standard S component keeps one.
inline constexpr std::size_t kDymoMaxPaths = 3;

/// A route's path list, held inline (no heap block per route): [0] is the
/// active path, the rest are alternates in promotion order.
class DymoPaths {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == kDymoMaxPaths; }
  const DymoPath& front() const { return paths_[0]; }
  const DymoPath* begin() const { return paths_.data(); }
  const DymoPath* end() const { return paths_.data() + size_; }

  void push_back(DymoPath p) {
    MK_ASSERT(!full(), "DYMO route holds at most kDymoMaxPaths paths");
    paths_[size_++] = p;
  }
  /// Drops the active path; the first alternate becomes active.
  void pop_front() {
    std::move(paths_.begin() + 1, paths_.begin() + size_, paths_.begin());
    --size_;
  }

 private:
  std::array<DymoPath, kDymoMaxPaths> paths_{};
  std::uint8_t size_ = 0;
};

struct DymoRoute {
  net::Addr dest = net::kNoAddr;
  std::uint16_t seqnum = 0;
  bool valid = true;
  TimePoint expires{};
  DymoPaths paths;  // [0] is the active path

  const DymoPath* active() const {
    return paths.empty() ? nullptr : &paths.front();
  }
  /// The active path stands for the route (invalidate_via matches it).
  RouteView view() const {
    const DymoPath* p = active();
    if (p == nullptr) return RouteView{net::kNoAddr, 0, false, expires};
    return RouteView{p->next_hop, p->hops, valid, expires};
  }
  /// Marks the route invalid; the RERR reports its seqnum as is.
  std::uint16_t invalidate() {
    valid = false;
    return seqnum;
  }
};

/// The message a duplicate-set tuple was seen in. RREQs number from the
/// originator's own seqnum and RERRs from its RERR counter, so equal
/// numbers of the two kinds are unrelated and their tuples are kept apart.
enum class DupKind : std::uint8_t { kRreq = 0, kRerr = 1 };

/// Packs a duplicate-set tuple into one key (also its soft-state key).
inline std::uint64_t dymo_dup_key(DupKind kind, net::Addr origin,
                                  std::uint16_t seq) {
  return (static_cast<std::uint64_t>(kind) << 48) |
         (static_cast<std::uint64_t>(origin) << 16) | seq;
}

class DymoState : public ReactiveTable<DymoRoute> {
 public:
  DymoState();

  // -- routing table ------------------------------------------------------------
  /// Applies learned routing information in one table lookup. Accepted
  /// (`changed`) if the destination is unknown, the seqnum is newer, or
  /// seqnum ties and the hop count improves (loop-freedom rule): the path
  /// list resets to the single new path and the lifetime refreshes. A
  /// same-info update over the active path refreshes the lifetime only.
  /// Returns the entry's deadline either way.
  RouteUpdate update_route(net::Addr dest, std::uint16_t seq,
                           net::Addr next_hop, std::uint8_t hops,
                           TimePoint now, Duration lifetime);

  /// Removes one route outright (soft-state expiry); returns true if it was
  /// present.
  bool drop_route(net::Addr dest) { return erase_route(dest); }

  /// Discovery try limit of the pending table (RREQ_TRIES).
  static constexpr std::uint8_t kMaxTries = kDymoRreqTries;

  /// Number for the next RERR this node sends, its own or relayed.
  std::uint16_t next_rerr_seq() { return rerr_seq_++; }

  // -- RREQ/RERR duplicate set (keys from dymo_dup_key) -------------------------
  bool check_duplicate(std::uint64_t key, TimePoint now);
  /// Removes one tuple (soft-state expiry); returns true if it was present.
  bool drop_duplicate(std::uint64_t key) { return duplicates_.erase(key); }
  /// All live tuples, in key order (expiry re-seeding).
  std::vector<std::uint64_t> duplicate_entries() const;

  std::string describe() const override;

  // -- IStateCodec (S-element replication, ISSUE 10) ----------------------------
  /// Route table (with path lists), own sequence number and the RREQ
  /// duplicate tuples. Pending discoveries are transient negotiation state —
  /// their retry timers died with the crashed node — and are not carried;
  /// nor are the RERR counter and RERR tuples, which only suppress RERR
  /// copies within the duplicate hold.
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 private:
  std::uint16_t rerr_seq_ = 1;
  // Last sighting per dymo_dup_key. Hash order never leaves the table:
  // duplicate_entries and encode_state sort the keys.
  U64Table<TimePoint> duplicates_;
};

/// Multipath S component: same tables, plus alternate link-disjoint paths.
class MultipathDymoState final : public DymoState {
 public:
  MultipathDymoState() = default;

  /// State transfer from the standard S component (route table carried over).
  explicit MultipathDymoState(const DymoState& base);

  static constexpr std::size_t kMaxPaths = kDymoMaxPaths;

  /// Records an alternate path if its next hop is disjoint from every
  /// existing path's next hop. Returns true if added.
  bool add_alternate_path(net::Addr dest, net::Addr next_hop,
                          std::uint8_t hops);

  /// Drops the active path and promotes the next alternate; returns the new
  /// active path, or nullopt if none remain (route becomes invalid).
  std::optional<DymoPath> fail_over(net::Addr dest);

  std::size_t path_count(net::Addr dest) const;
};

}  // namespace mk::proto
