// Greedy geographic routing ("gpsr") — a position-based protocol in the
// style of GPSR [Karp & Kung 2000], which the paper cites as part of the
// protocol-diversity motivation (§1). Implementing it exercises a protocol
// family structurally unlike the link-state/distance-vector ones: next hops
// come from geometry, not topology exchange.
//
// Composition (everything reused except the geometry):
//  * Positions ride on the Neighbour Detection CF's HELLOs via the
//    piggyback service (a position beacon, as in real GPSR).
//  * The destination's position comes from a pluggable *location service*;
//    the testbed supplies an oracle (real deployments use GPS + a lookup
//    overlay — see DESIGN.md substitutions).
//  * NO_ROUTE (exclusive) triggers a greedy next-hop computation: the
//    symmetric neighbour strictly closest to the destination. Routes are
//    installed with short lifetimes so greedy decisions track mobility.
//
// Scope note: perimeter (face) recovery is NOT implemented — at a local
// minimum the packet is dropped after the NetLink buffer times out, exactly
// like greedy-only GPSR. The greedy property tests use topologies where
// greedy suffices (grids, dense geometric graphs).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/manet_protocol.hpp"
#include "core/manetkit.hpp"
#include "core/soft_state.hpp"
#include "net/node.hpp"
#include "protocols/neighbor/neighbor_state.hpp"

namespace mk::proto {

/// Resolves a destination address to a position (the location service).
using LocationService =
    std::function<std::optional<net::Position>(net::Addr)>;

/// Greedy routes are re-evaluated at least this often under mobility.
inline constexpr Duration kGpsrRouteLifetime = sec(1);
/// How often greedy choices for active destinations are re-evaluated
/// (genuinely periodic: mobility moves neighbours between deadlines).
inline constexpr Duration kGpsrSweepInterval = msec(500);
/// Positions older than this are distrusted (neighbour may have moved).
inline constexpr Duration kGpsrPositionHold = sec(6);

/// Soft-state set ids of the GPSR CF, fixed by definition order in
/// build_gpsr_cf.
namespace gpsr_sets {
inline constexpr core::SoftExpiry::SetId kPosition = 0;
inline constexpr core::SoftExpiry::SetId kActive = 1;
}  // namespace gpsr_sets

struct IGpsrState : oc::Interface {
  virtual std::optional<net::Position> position_of(net::Addr a) const = 0;
  virtual std::size_t known_positions() const = 0;
};

class GpsrState : public oc::Component, public core::IState, public IGpsrState {
 public:
  GpsrState();

  void note_position(net::Addr a, net::Position p) { positions_[a] = p; }
  /// Forgets one neighbour position (soft-state expiry); true if present.
  bool drop_position(net::Addr a) { return positions_.erase(a) > 0; }
  /// Addresses with known positions (expiry re-seeding).
  std::vector<net::Addr> position_addrs() const;

  std::optional<net::Position> position_of(net::Addr a) const override;
  std::size_t known_positions() const override { return positions_.size(); }

  /// Destinations with greedily installed routes (for refresh/invalidation).
  std::map<net::Addr, TimePoint>& active_dests() { return active_; }

  std::string describe() const override;

 private:
  std::map<net::Addr, net::Position> positions_;
  std::map<net::Addr, TimePoint> active_;
};

std::unique_ptr<core::ManetProtocolCf> build_gpsr_cf(core::Manetkit& kit,
                                                     LocationService locate);

/// Registers "gpsr" (layer 20; occupies the on-demand/NO_ROUTE slot, so it
/// is categorised "reactive" for the single-owner integrity rule).
void register_gpsr(core::Manetkit& kit, LocationService locate);

GpsrState* gpsr_state(core::ManetProtocolCf& cf);

/// Pure greedy step (exposed for property tests): among `neighbors` with
/// known positions, the one strictly closer to `dest` than `self`;
/// kNoAddr at a local minimum.
net::Addr greedy_next_hop(const IGpsrState& st, net::Position self,
                          net::Position dest,
                          const std::vector<net::Addr>& neighbors);

}  // namespace mk::proto
