// OLSR routing-table calculation, as a replaceable component: the default
// computes min-hop routes by breadth-first search straight over the 1-hop/
// 2-hop neighbourhood plus the TC-learned topology set, and installs host
// routes in the kernel table. The power-aware variant substitutes an
// energy-cost metric (avoiding low-battery relays) and Dijkstra.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cfs.hpp"
#include "core/manetkit.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "protocols/neighbor/neighbor_state.hpp"
#include "protocols/olsr/olsr_state.hpp"
#include "util/u64_table.hpp"

namespace mk::proto {

class MprState;

struct IRouteCalculator : oc::Interface {
  /// Recomputes all routes and syncs the kernel table (writing new or changed
  /// routes, removing stale OLSR-owned ones). A no-op while `self`, both S
  /// elements' version() stamps and the kernel table's generation equal the
  /// last sync's: the result would be the same.
  virtual void recompute(core::ProtocolContext& ctx) = 0;
};

class RouteCalculator : public oc::Component, public IRouteCalculator {
 public:
  /// Neighbourhood information comes from the MprState of `kit`'s "mpr" CF
  /// (a cross-CF direct-call binding in the paper's terms), resolved again
  /// only when the kit's deployment or that CF's composition moves, so a
  /// restarted MPR CF or a replaced S element is seen.
  explicit RouteCalculator(core::Manetkit& kit);

  void recompute(core::ProtocolContext& ctx) override;

 protected:
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

  /// Sets hops_ and first_ (the first hop's index) of each index reachable
  /// from self_, hops_ = kNone elsewhere. Hops: RFC 3626 §10's level-by-level
  /// search, each level in index order, so parents are those of a
  /// (dist, index)-ordered Dijkstra.
  virtual void search(const OlsrState& st);

  /// Calls fn(v) per directed edge u -> v, directed away from the node that
  /// vouches for it (RFC 3626 §10: a bidirectional TC edge would let a
  /// partitioned-away origin's stale TC resurrect a severed link): self ->
  /// symmetric neighbour -> its 2-hop set minus self, origin -> advertised.
  /// An address without an index is noted for recompute() and skipped.
  template <class Fn>
  void expand(std::uint32_t u, Fn&& fn);

  // Every address met so far, sorted, so index order is address order (it
  // decides tie-breaks and install order). Arrays indexed by it keep their
  // capacity: a steady-state recompute allocates nothing.
  std::vector<net::Addr> known_;
  std::uint32_t self_ = kNone;
  std::vector<std::uint32_t> hops_, first_;

 private:
  std::uint32_t index_of(net::Addr a);

  core::StateRef<MprState> mpr_;
  const NeighborTable* nbr_ = nullptr;  // mpr_'s, as of this recompute
  U64Table<std::uint32_t> index_;          // address -> index in known_
  std::vector<net::Addr> unseen_;          // met without an index
  std::vector<const std::vector<net::Addr>*> adv_;  // advertised set or null
  std::vector<std::uint32_t> frontier_, next_;

  // Routes the last sync installed, sorted by dest, and the next sync's.
  struct Route {
    net::Addr dest, next_hop;
    std::uint32_t hops;
    bool operator==(const Route&) const = default;
  };
  std::vector<Route> routes_, fresh_;

  // Inputs of the last sync (RFC 3626 §10): stamps (never 0) and generation.
  // The table needs no identity check: a CF's System S element is fixed at
  // construction.
  struct Inputs {
    net::Addr self = net::kNoAddr;
    std::uint64_t neighbors = 0, olsr = 0, generation = 0;
    bool operator==(const Inputs&) const = default;
  } synced_;
};

/// Energy-aware path selection: traversal cost grows steeply as the relay's
/// advertised residual battery drops, so min-cost paths are the
/// longest-lifetime paths.
class EnergyRouteCalculator final : public RouteCalculator {
 public:
  using RouteCalculator::RouteCalculator;

 protected:
  void search(const OlsrState& st) override;

 private:
  std::vector<double> dist_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
};

}  // namespace mk::proto
