// S element of the AODV CF (RFC 3561 core): routing table with destination
// sequence numbers and precursor lists, RREQ-ID duplicate cache, and the
// pending-discovery table.
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

struct AodvRoute {
  net::Addr dest = net::kNoAddr;
  net::Addr next_hop = net::kNoAddr;
  std::uint16_t dest_seq = 0;
  bool seq_valid = false;
  std::uint8_t hops = 0;
  bool valid = true;
  TimePoint expires{};
  std::set<net::Addr> precursors;
};

/// How long an expired/invalidated entry is retained (sequence-number
/// memory) before deletion — RFC 3561's DELETE_PERIOD. Forgetting too early
/// lets stale same-sequence adverts re-form loops.
inline constexpr Duration kAodvDeletePeriod = sec(15);

struct IAodvState : oc::Interface {
  virtual std::optional<AodvRoute> route_to(net::Addr dest) const = 0;
  virtual std::size_t route_count() const = 0;
};

class AodvState : public oc::Component,
                  public core::IState,
                  public core::IStateCodec,
                  public IAodvState {
 public:
  AodvState();

  /// Standard AODV acceptance rule (newer seq, or equal seq with fewer
  /// hops, or unknown seq on the existing entry).
  bool update_route(net::Addr dest, std::uint16_t seq, bool seq_valid,
                    net::Addr next_hop, std::uint8_t hops, TimePoint now,
                    Duration lifetime);

  void add_precursor(net::Addr dest, net::Addr precursor);

  std::vector<std::pair<net::Addr, std::uint16_t>> invalidate_via(
      net::Addr next_hop);
  std::optional<std::uint16_t> invalidate(net::Addr dest);
  void extend_lifetime(net::Addr dest, TimePoint now, Duration lifetime);

  /// Two-phase expiry (RFC 3561, soft-state layer). Phase 1 — a *valid*
  /// entry lapsed: mark invalid, bump dest_seq, keep the seqnum memory for
  /// kAodvDeletePeriod and return the retention deadline with `invalidated`
  /// set (caller removes the kernel route). Phase 2 — an *invalid* entry
  /// lapsed: delete it outright, returns nullopt. If the deadline moved into
  /// the future meanwhile, returns it untouched so the caller can re-arm.
  std::optional<TimePoint> lapse_route(net::Addr dest, TimePoint now,
                                       bool& invalidated);

  std::optional<AodvRoute> route_to(net::Addr dest) const override;
  std::size_t route_count() const override { return routes_.size(); }
  const std::map<net::Addr, AodvRoute>& all_routes() const { return routes_; }

  std::uint16_t own_seq() const { return own_seq_; }
  std::uint16_t bump_seq() { return ++own_seq_; }
  std::uint32_t next_rreq_id() { return ++rreq_id_; }

  /// RREQ duplicate cache keyed by (originator, rreq id).
  bool check_rreq_seen(net::Addr origin, std::uint32_t rreq_id, TimePoint now);
  /// Removes one cache tuple by originator and the rreq id's *low 24 bits*
  /// (the soft-state key only carries those; ids are monotonic per node, so
  /// the truncation cannot collide within rreq_id_hold). Returns true if a
  /// matching tuple existed.
  bool drop_rreq_seen(net::Addr origin, std::uint32_t rreq_id_low24);
  /// All live cache tuples (expiry re-seeding).
  std::vector<std::pair<net::Addr, std::uint32_t>> rreq_seen_entries() const;

  // -- pending discoveries (same discipline as DYMO) ---------------------------
  static constexpr std::uint8_t kMaxTries = 2;  // RREQ_RETRIES in RFC 3561
  PendingDiscoveries& pending() { return pending_; }

  std::string describe() const override;

  // -- IStateCodec (S-element replication, ISSUE 10) ----------------------------
  /// Route table (with precursors and seqnum memory), own sequence number,
  /// RREQ-ID counter and the RREQ duplicate cache. Pending discoveries are
  /// transient negotiation state and are not carried.
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 private:
  std::map<net::Addr, AodvRoute> routes_;
  std::uint16_t own_seq_ = 1;
  std::uint32_t rreq_id_ = 0;
  std::map<std::pair<net::Addr, std::uint32_t>, TimePoint> rreq_seen_;
  PendingDiscoveries pending_{kMaxTries};
};

}  // namespace mk::proto
