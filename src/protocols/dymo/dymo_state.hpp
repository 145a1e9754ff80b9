// S element of the DYMO CF: the reactive routing table (with sequence
// numbers and lifetimes), the pending route-discovery (RREQ) table with
// binary exponential backoff, and the RREQ duplicate set.
//
// The route representation carries a *path list* so the multipath variant
// can replace the S component with one that accommodates multiple
// link-disjoint paths per destination (§5.2) while sharing this base.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/ifaces.hpp"
#include "core/state_codec.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "protocols/pending_discoveries.hpp"
#include "util/time.hpp"

namespace mk::proto {

struct DymoPath {
  net::Addr next_hop = net::kNoAddr;
  std::uint8_t hops = 0;
};

struct DymoRoute {
  net::Addr dest = net::kNoAddr;
  std::uint16_t seqnum = 0;
  bool valid = true;
  TimePoint expires{};
  std::vector<DymoPath> paths;  // [0] is the active path

  const DymoPath* active() const { return paths.empty() ? nullptr : &paths[0]; }
};

struct IDymoState : oc::Interface {
  virtual std::optional<DymoRoute> route_to(net::Addr dest) const = 0;
  virtual std::size_t route_count() const = 0;
};

class DymoState : public oc::Component,
                  public core::IState,
                  public core::IStateCodec,
                  public IDymoState {
 public:
  DymoState();

  // -- routing table ------------------------------------------------------------
  /// Applies learned routing information. Accepted (returns true) if the
  /// destination is unknown, the seqnum is newer, or seqnum ties and the hop
  /// count improves (loop-freedom rule). Resets the path list to the single
  /// new path and refreshes the lifetime.
  bool update_route(net::Addr dest, std::uint16_t seq, net::Addr next_hop,
                    std::uint8_t hops, TimePoint now, Duration lifetime);

  /// Invalidates all valid routes whose *active* path uses `next_hop`;
  /// returns (dest, seq) pairs for the RERR.
  std::vector<std::pair<net::Addr, std::uint16_t>> invalidate_via(
      net::Addr next_hop);

  /// Invalidates one destination; returns its seq if a valid route existed.
  std::optional<std::uint16_t> invalidate(net::Addr dest);

  void extend_lifetime(net::Addr dest, TimePoint now, Duration lifetime);

  /// Removes one route outright (soft-state expiry); returns true if it was
  /// present.
  bool drop_route(net::Addr dest) { return routes_.erase(dest) > 0; }

  std::optional<DymoRoute> route_to(net::Addr dest) const override;
  DymoRoute* mutable_route(net::Addr dest);
  std::size_t route_count() const override { return routes_.size(); }
  const std::map<net::Addr, DymoRoute>& all_routes() const { return routes_; }

  // -- sequence number --------------------------------------------------------------
  std::uint16_t own_seq() const { return own_seq_; }
  std::uint16_t bump_seq() { return ++own_seq_; }

  // -- pending discoveries --------------------------------------------------------------
  static constexpr std::uint8_t kMaxTries = 3;
  PendingDiscoveries& pending() { return pending_; }

  // -- RREQ duplicate set ------------------------------------------------------------------
  bool check_duplicate(net::Addr origin, std::uint16_t seq, TimePoint now);
  /// Removes one tuple (soft-state expiry); returns true if it was present.
  bool drop_duplicate(net::Addr origin, std::uint16_t seq);
  /// All live tuples (expiry re-seeding).
  std::vector<std::pair<net::Addr, std::uint16_t>> duplicate_entries() const;

  std::string describe() const override;

  // -- IStateCodec (S-element replication, ISSUE 10) ----------------------------
  /// Route table (with path lists), own sequence number and the RREQ
  /// duplicate set. Pending discoveries are transient negotiation state —
  /// their retry timers died with the crashed node — and are not carried.
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 protected:
  std::map<net::Addr, DymoRoute> routes_;

 private:
  std::uint16_t own_seq_ = 1;
  PendingDiscoveries pending_{kMaxTries};
  std::map<std::pair<net::Addr, std::uint16_t>, TimePoint> duplicates_;
};

/// Multipath S component: same tables, plus alternate link-disjoint paths.
class MultipathDymoState final : public DymoState {
 public:
  MultipathDymoState() = default;

  /// State transfer from the standard S component (route table carried over).
  explicit MultipathDymoState(const DymoState& base);

  static constexpr std::size_t kMaxPaths = 3;

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
