// OLSR routing-table calculation, as a replaceable component: the default
// computes min-hop shortest paths (Dijkstra) over 1-hop/2-hop neighbourhood
// plus the TC-learned topology set, and installs host routes in the kernel
// table. The power-aware variant substitutes an energy-cost metric
// (maximise route lifetime by avoiding low-battery relays).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cfs.hpp"
#include "core/manetkit.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "protocols/olsr/olsr_state.hpp"

namespace mk::proto {

struct IRouteCalculator : oc::Interface {
  /// Recomputes all routes and syncs the kernel table (writing new or changed
  /// routes, removing stale OLSR-owned ones). A no-op while `self`, both S
  /// elements' version() stamps and the kernel table's generation equal the
  /// last sync's: the result would be the same.
  virtual void recompute(core::ProtocolContext& ctx) = 0;
};

class RouteCalculator : public oc::Component, public IRouteCalculator {
 public:
  /// Neighbourhood information comes from the MprState of `kit`'s "mpr" CF,
  /// looked up on every recompute (a cross-CF direct-call binding in the
  /// paper's terms, resolved at use so a restarted MPR CF is seen).
  explicit RouteCalculator(core::Manetkit& kit);

  void recompute(core::ProtocolContext& ctx) override;

 protected:
  /// Cost of traversing intermediate node `via` (hop metric = 1.0). Read
  /// once per node per recompute; it may depend only on `st` and `via`.
  virtual double node_cost(const OlsrState& st, net::Addr via) const;

  core::Manetkit& kit_;

 private:
  void build_index(net::Addr self);

  // Dijkstra scratch, reused across recomputes: addresses are mapped onto a
  // dense index space so distance/parent lookups are array reads and the
  // whole computation performs no steady-state allocation (the capacity of
  // every vector survives between calls).
  std::vector<std::pair<net::Addr, net::Addr>> scratch_edges_;
  std::vector<net::Addr> scratch_nodes_;  // sorted; position = dense index
  std::vector<std::uint32_t> slots_;      // address hash table -> index
  std::vector<std::uint32_t> adj_;        // CSR targets, grouped by source
  std::vector<std::uint32_t> adj_start_;  // CSR offsets into adj_
  std::vector<double> scratch_cost_;      // node_cost per dense index
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> hops_;

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
  double node_cost(const OlsrState& st, net::Addr via) const override;
};

}  // namespace mk::proto
