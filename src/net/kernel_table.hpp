// Per-node "kernel" routing table — the OS forwarding state a routing daemon
// manipulates (the System CF's S element wraps this, mirroring the paper's
// kernel route-table manipulation API).
//
// Host routes only (a deliberate, uniform simplification — see DESIGN.md):
// each entry maps a destination address to a next hop. The entries live in
// one address-sorted vector: the data plane's per-packet lookup is a binary
// search over contiguous memory, and iteration (dests_via, entries, the
// journal records of clear) runs in address order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/address.hpp"
#include "obs/journal.hpp"
#include "util/scheduler.hpp"
#include "util/time.hpp"

namespace mk::net {

struct RouteEntry {
  Addr dest = kNoAddr;
  Addr next_hop = kNoAddr;
  std::uint32_t metric = 0;  // hop count
  TimePoint installed_at{};
};

class KernelRouteTable {
 public:
  /// Adds or replaces the route to `entry.dest`. Reinstalling a route with
  /// the same next hop and metric is a no-op: the stored entry
  /// (its `installed_at` included) stays as it was.
  void set_route(const RouteEntry& entry);

  /// Removes the route to `dest`; returns true if one existed.
  bool remove_route(Addr dest);

  /// All routes whose next hop is `next_hop` (used for invalidation after a
  /// link break).
  std::vector<Addr> dests_via(Addr next_hop) const;

  std::optional<RouteEntry> lookup(Addr dest) const;

  std::vector<RouteEntry> entries() const;

  std::size_t size() const { return routes_.size(); }
  void clear();

  /// Monotonic change counter, bumped once per effective change: an install
  /// that adds a route or moves its next hop or metric, a removal,
  /// or clearing a non-empty table. Identical reinstalls leave it alone, so
  /// an unchanged generation means an unchanged table — the OLSR route
  /// calculator's memo relies on that.
  std::uint64_t generation() const { return generation_; }

  /// Attaches a trace journal: effective route changes (install with a new
  /// next hop or metric, removal, clear) append kRouteAdd/kRouteDel records
  /// stamped with `clock`'s current time and attributed to node `self`.
  /// Identical periodic reinstalls are not journalled — they carry no
  /// information and would drown the trace. Null detaches.
  void set_journal(obs::Journal* journal, Addr self, Scheduler* clock);

 private:
  std::vector<RouteEntry> routes_;  // sorted by dest
  std::uint64_t generation_ = 0;
  obs::Journal* journal_ = nullptr;
  Addr self_ = kNoAddr;
  Scheduler* clock_ = nullptr;
};

}  // namespace mk::net
