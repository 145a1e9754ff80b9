// OLSR routing-table calculation, as a replaceable component: the default
// computes min-hop shortest paths (Dijkstra) over 1-hop/2-hop neighbourhood
// plus the TC-learned topology set, and installs host routes in the kernel
// table. The power-aware variant substitutes an energy-cost metric
// (maximise route lifetime by avoiding low-battery relays).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cfs.hpp"
#include "core/manetkit.hpp"
#include "net/address.hpp"
#include "opencom/component.hpp"
#include "protocols/olsr/olsr_state.hpp"

namespace mk::proto {

struct IRouteCalculator : oc::Interface {
  /// Recomputes all routes and syncs the kernel table (adding new routes,
  /// removing stale OLSR-owned ones).
  virtual void recompute(core::ProtocolContext& ctx) = 0;
};

class RouteCalculator : public oc::Component, public IRouteCalculator {
 public:
  /// Neighbourhood information comes from the S element of `kit`'s "mpr"
  /// CF, looked up on every recompute (a cross-CF direct-call binding in the
  /// paper's terms, resolved at use so a restarted MPR CF is seen).
  explicit RouteCalculator(core::Manetkit& kit);

  void recompute(core::ProtocolContext& ctx) override;

 protected:
  RouteCalculator(std::string type_name, core::Manetkit& kit);

  /// Cost of traversing intermediate node `via` (hop metric = 1.0).
  virtual double node_cost(const OlsrState& st, net::Addr via) const;

  core::Manetkit& kit_;

 private:
  // Dijkstra scratch, reused across recomputes: addresses are mapped onto a
  // dense index space so distance/parent lookups are array reads and the
  // whole computation performs no steady-state allocation (the capacity of
  // every vector survives between calls).
  std::vector<std::pair<net::Addr, net::Addr>> scratch_edges_;
  std::vector<net::Addr> scratch_nodes_;  // sorted; position = dense index
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_idx_;
  std::vector<std::uint32_t> adj_start_;  // CSR offsets into edge_idx_
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> hops_;
  std::vector<net::Addr> fresh_;
};

/// Energy-aware path selection: traversal cost grows steeply as the relay's
/// advertised residual battery drops, so min-cost paths are the
/// longest-lifetime paths.
class EnergyRouteCalculator final : public RouteCalculator {
 public:
  explicit EnergyRouteCalculator(core::Manetkit& kit);

 protected:
  double node_cost(const OlsrState& st, net::Addr via) const override;
};

}  // namespace mk::proto
