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

#include "net/address.hpp"
#include "protocols/reactive.hpp"
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

  RouteView view() const { return RouteView{next_hop, hops, valid, expires}; }
  /// Marks the route invalid and reports its incremented seqnum (RFC 3561
  /// §6.11: increment on invalidation).
  std::uint16_t invalidate() {
    valid = false;
    return ++dest_seq;
  }
};

/// How long an expired/invalidated entry is retained (sequence-number
/// memory) before deletion — RFC 3561's DELETE_PERIOD. Forgetting too early
/// lets stale same-sequence adverts re-form loops.
inline constexpr Duration kAodvDeletePeriod = sec(15);

class AodvState : public ReactiveTable<AodvRoute> {
 public:
  AodvState();

  /// Standard AODV acceptance rule (newer seq, or equal seq with fewer
  /// hops, or unknown seq on the existing entry), applied in one table
  /// lookup; an accepted update keeps the entry's precursors. A rejected
  /// update over the same next hop refreshes a valid entry's lifetime.
  /// Returns the entry's deadline either way.
  RouteUpdate update_route(net::Addr dest, std::uint16_t seq, bool seq_valid,
                           net::Addr next_hop, std::uint8_t hops,
                           TimePoint now, Duration lifetime);

  void add_precursor(net::Addr dest, net::Addr precursor);

  /// Two-phase expiry (RFC 3561, soft-state layer). Phase 1 — a *valid*
  /// entry lapsed: mark invalid, bump dest_seq, keep the seqnum memory for
  /// kAodvDeletePeriod and return the retention deadline with `invalidated`
  /// set (caller removes the kernel route). Phase 2 — an *invalid* entry
  /// lapsed: delete it outright, returns nullopt. If the deadline moved into
  /// the future meanwhile, returns it untouched so the caller can re-arm.
  std::optional<TimePoint> lapse_route(net::Addr dest, TimePoint now,
                                       bool& invalidated);

  std::uint32_t next_rreq_id() { return ++rreq_id_; }

  /// RREQ duplicate cache keyed by (originator, rreq id).
  bool check_rreq_seen(net::Addr origin, std::uint32_t rreq_id, TimePoint now);
  /// Removes one cache tuple by originator and the rreq id's *low 24 bits*
  /// (the soft-state key only carries those; ids are monotonic per node, so
  /// the truncation cannot collide within the tuple's holding time). Returns
  /// true if a matching tuple existed.
  bool drop_rreq_seen(net::Addr origin, std::uint32_t rreq_id_low24);
  /// All live cache tuples (expiry re-seeding).
  std::vector<std::pair<net::Addr, std::uint32_t>> rreq_seen_entries() const;

  /// Discovery try limit of the pending table (RREQ_RETRIES in RFC 3561).
  static constexpr std::uint8_t kMaxTries = 2;

  std::string describe() const override;

  // -- IStateCodec (S-element replication, ISSUE 10) ----------------------------
  /// Route table (with precursors and seqnum memory), own sequence number,
  /// RREQ-ID counter and the RREQ duplicate cache. Pending discoveries are
  /// transient negotiation state and are not carried.
  void encode_state(std::vector<std::uint8_t>& out) const override;
  bool decode_state(std::span<const std::uint8_t> blob) override;
  void reset_state() override;

 private:
  std::uint32_t rreq_id_ = 0;
  std::map<std::pair<net::Addr, std::uint32_t>, TimePoint> rreq_seen_;
};

}  // namespace mk::proto
