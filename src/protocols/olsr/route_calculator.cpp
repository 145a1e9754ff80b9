#include "protocols/olsr/route_calculator.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/manet_protocol.hpp"
#include "protocols/neighbor/neighbor_cf.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

RouteCalculator::RouteCalculator(core::Manetkit& kit)
    : RouteCalculator("olsr.RouteCalculator", kit) {}

RouteCalculator::RouteCalculator(std::string type_name, core::Manetkit& kit)
    : oc::Component(std::move(type_name)), kit_(kit) {
  set_instance_name("RouteCalculator");
  provide("IRouteCalculator", static_cast<IRouteCalculator*>(this));
}

double RouteCalculator::node_cost(const OlsrState&, net::Addr) const {
  return 1.0;
}

void RouteCalculator::recompute(core::ProtocolContext& ctx) {
  OlsrState& st = ctx.state_as<OlsrState>();
  INeighborState* nbr = neighbor_state(kit_, "mpr");
  if (ctx.sys() == nullptr || nbr == nullptr) return;

  net::Addr self = ctx.self();

  // Build the adjacency view: symmetric 1-hop links, 2-hop links learned
  // from HELLOs, and TC-advertised links. Edges are *directed* away from the
  // node that vouches for them (RFC 3626 §10): a destination is reachable
  // only through a chain of still-fresh advertisements starting at our own
  // link set. Treating TC edges as bidirectional — the pre-ISSUE-6 bug —
  // let a partitioned-away origin's stale TC (topology hold 15 s) resurrect
  // the severed link from the *far* side, so mid-partition recomputes never
  // dropped routes and kRouteDel was only ever journaled after the heal.
  //
  // The whole computation runs on reused member scratch over a dense index
  // space: addresses sort into scratch_nodes_ (position = index), edges
  // dedupe into a CSR adjacency, and Dijkstra's maps become flat arrays.
  // Index order equals address order, so every tie-break (heap pops, edge
  // iteration, install order) matches the former std::map-based version.
  scratch_edges_.clear();
  for (net::Addr n : nbr->sym_neighbors()) {
    scratch_edges_.emplace_back(self, n);
    for (net::Addr t : nbr->two_hop_via(n)) {
      if (t != self) scratch_edges_.emplace_back(n, t);
    }
  }
  st.append_topology_edges(scratch_edges_);

  scratch_nodes_.clear();
  scratch_nodes_.push_back(self);
  for (const auto& [a, b] : scratch_edges_) {
    scratch_nodes_.push_back(a);
    scratch_nodes_.push_back(b);
  }
  std::sort(scratch_nodes_.begin(), scratch_nodes_.end());
  scratch_nodes_.erase(
      std::unique(scratch_nodes_.begin(), scratch_nodes_.end()),
      scratch_nodes_.end());
  const auto n = static_cast<std::uint32_t>(scratch_nodes_.size());
  auto idx_of = [this](net::Addr a) {
    return static_cast<std::uint32_t>(
        std::lower_bound(scratch_nodes_.begin(), scratch_nodes_.end(), a) -
        scratch_nodes_.begin());
  };

  edge_idx_.clear();
  for (const auto& [a, b] : scratch_edges_) {
    edge_idx_.emplace_back(idx_of(a), idx_of(b));
  }
  std::sort(edge_idx_.begin(), edge_idx_.end());
  edge_idx_.erase(std::unique(edge_idx_.begin(), edge_idx_.end()),
                  edge_idx_.end());
  adj_start_.assign(n + 1, 0);
  for (const auto& [u, v] : edge_idx_) adj_start_[u + 1]++;
  for (std::uint32_t i = 1; i <= n; ++i) adj_start_[i] += adj_start_[i - 1];

  // Dijkstra from self; edge weight = node_cost(entered node).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::uint32_t kNoParent = 0xFFFF'FFFFu;
  dist_.assign(n, kInf);
  parent_.assign(n, kNoParent);
  hops_.assign(n, 0);
  heap_.clear();
  const std::uint32_t self_idx = idx_of(self);
  dist_[self_idx] = 0.0;
  heap_.emplace_back(0.0, self_idx);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    for (std::uint32_t e = adj_start_[u]; e < adj_start_[u + 1]; ++e) {
      std::uint32_t v = edge_idx_[e].second;
      double w = node_cost(st, scratch_nodes_[v]);
      double nd = d + w;
      if (nd < dist_[v] - 1e-12) {
        dist_[v] = nd;
        parent_[v] = u;
        hops_[v] = hops_[u] + 1;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }

  // Resolve next hops and sync the kernel table.
  fresh_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == self_idx || parent_[i] == kNoParent) continue;
    std::uint32_t hop = i;
    while (parent_[hop] != kNoParent && parent_[hop] != self_idx) {
      hop = parent_[hop];
    }
    if (parent_[hop] == kNoParent) continue;  // unreachable glitch
    ctx.set_route(scratch_nodes_[i], scratch_nodes_[hop], hops_[i]);
    fresh_.push_back(scratch_nodes_[i]);  // ascending: index order
  }
  for (net::Addr old_dest : st.installed_dests()) {
    if (!std::binary_search(fresh_.begin(), fresh_.end(), old_dest)) {
      ctx.remove_route(old_dest);
    }
  }
  // Swap, don't move: fresh_ keeps the displaced capacity for next time.
  st.installed_dests().swap(fresh_);
}

EnergyRouteCalculator::EnergyRouteCalculator(core::Manetkit& kit)
    : RouteCalculator("olsr.EnergyRouteCalculator", kit) {}

double EnergyRouteCalculator::node_cost(const OlsrState& st,
                                        net::Addr via) const {
  // Residual-energy cost: a relay at full charge costs ~1 hop; a nearly
  // drained relay costs ~20, steering routes around it.
  return 1.0 / std::max(0.05, st.energy_of(via));
}

}  // namespace mk::proto
