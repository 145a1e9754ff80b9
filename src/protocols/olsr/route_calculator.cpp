#include "protocols/olsr/route_calculator.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "core/manet_protocol.hpp"
#include "protocols/mpr/mpr_cf.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mk::proto {

RouteCalculator::RouteCalculator(core::Manetkit& kit)
    : oc::Component("RouteCalculator"), kit_(kit) {}

double RouteCalculator::node_cost(const OlsrState&, net::Addr) const {
  return 1.0;
}

void RouteCalculator::recompute(core::ProtocolContext& ctx) {
  OlsrState& st = ctx.state_as<OlsrState>();
  const INeighborState* nbr = mpr_state(kit_);
  if (ctx.sys() == nullptr || nbr == nullptr) return;
  const net::KernelRouteTable& table = ctx.sys()->kernel_table();
  const net::Addr self = ctx.self();

  // RFC 3626 §10: recalculate only when the inputs change. The result is a
  // pure function of `self`, the neighbour table and the S element, and the
  // sync touches only the kernel table and installed_dests(): while their
  // stamps and generation match the last sync, it would change nothing.
  if (Inputs{self, nbr->version(), st.version(), table.generation()} ==
      synced_) {
    return;
  }

  // Build the adjacency view: symmetric 1-hop links, 2-hop links learned
  // from HELLOs, and TC-advertised links, each *directed* away from the node
  // that vouches for it (RFC 3626 §10). Bidirectional TC edges would let a
  // partitioned-away origin's stale TC resurrect the severed link from the
  // far side, so mid-partition recomputes would never drop a route.
  scratch_edges_.clear();
  for (net::Addr n : nbr->sym_neighbors()) {
    scratch_edges_.emplace_back(self, n);
    for (net::Addr t : nbr->two_hop_via(n)) {
      if (t != self) scratch_edges_.emplace_back(n, t);
    }
  }
  st.append_topology_edges(scratch_edges_);
  build_index(self);
  const auto n = static_cast<std::uint32_t>(scratch_nodes_.size());
  scratch_cost_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    scratch_cost_[i] = node_cost(st, scratch_nodes_[i]);
  }

  // Dijkstra from self; edge weight = cost of the entered node.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::uint32_t kNoParent = 0xFFFF'FFFFu;
  dist_.assign(n, kInf);
  parent_.assign(n, kNoParent);
  hops_.assign(n, 0);
  heap_.clear();
  const auto self_idx = static_cast<std::uint32_t>(
      std::lower_bound(scratch_nodes_.begin(), scratch_nodes_.end(), self) -
      scratch_nodes_.begin());
  dist_[self_idx] = 0.0;
  heap_.emplace_back(0.0, self_idx);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    for (std::uint32_t e = adj_start_[u]; e < adj_start_[u + 1]; ++e) {
      std::uint32_t v = adj_[e];
      double nd = d + scratch_cost_[v];
      if (nd < dist_[v] - 1e-12) {
        dist_[v] = nd;
        parent_[v] = u;
        hops_[v] = hops_[u] + 1;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }

  // Resolve next hops and sync the kernel table. While the generation is the
  // last sync's, the table holds routes_: write only new or changed routes.
  const bool diff = table.generation() == synced_.generation;
  auto prev = routes_.cbegin();
  fresh_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == self_idx || parent_[i] == kNoParent) continue;
    std::uint32_t hop = i;
    while (parent_[hop] != kNoParent && parent_[hop] != self_idx) {
      hop = parent_[hop];
    }
    if (parent_[hop] == kNoParent) continue;  // unreachable glitch
    const Route r{scratch_nodes_[i], scratch_nodes_[hop], hops_[i]};
    while (prev != routes_.cend() && prev->dest < r.dest) ++prev;
    if (!diff || prev == routes_.cend() || *prev != r) {
      ctx.set_route(r.dest, r.next_hop, r.hops);
    }
    fresh_.push_back(r);  // ascending: index order
  }
  for (net::Addr old_dest : st.installed_dests()) {
    if (!std::ranges::binary_search(fresh_, old_dest, {}, &Route::dest)) {
      ctx.remove_route(old_dest);
    }
  }
  st.installed_dests().clear();
  for (const Route& r : fresh_) st.installed_dests().push_back(r.dest);
  // Swap, don't move: fresh_ keeps the displaced capacity for next time.
  routes_.swap(fresh_);
  synced_ = {self, nbr->version(), st.version(), table.generation()};
}

void RouteCalculator::build_index(net::Addr self) {
  // Dense index space: every address of the edge view gets a position in
  // scratch_nodes_, sorted ascending, so Dijkstra's maps become flat arrays.
  // Index order equals address order, so every tie-break (heap pops, install
  // order) is decided by address. An open-addressing table maps address ->
  // index with one probe per endpoint, so only the distinct addresses are
  // sorted, never the edge list.
  constexpr std::uint32_t kEmpty = 0xFFFF'FFFFu;
  const unsigned bits = std::bit_width(2 * scratch_edges_.size() + 1);
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  auto slot_of = [&](net::Addr a) -> std::uint32_t& {
    std::size_t h = (std::uint64_t{a} * 0x9E37'79B9'7F4A'7C15u) >> (64 - bits);
    while (slots_[h] != kEmpty && scratch_nodes_[slots_[h]] != a) {
      h = (h + 1) & mask;
    }
    return slots_[h];
  };
  auto note = [&](net::Addr a) {
    std::uint32_t& slot = slot_of(a);
    if (slot == kEmpty) {
      slot = static_cast<std::uint32_t>(scratch_nodes_.size());
      scratch_nodes_.push_back(a);
    }
  };
  slots_.assign(mask + 1, kEmpty);
  scratch_nodes_.clear();
  note(self);
  for (const auto& [a, b] : scratch_edges_) {
    note(a);
    note(b);
  }
  std::sort(scratch_nodes_.begin(), scratch_nodes_.end());
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  const auto n = static_cast<std::uint32_t>(scratch_nodes_.size());
  for (std::uint32_t i = 0; i < n; ++i) slot_of(scratch_nodes_[i]) = i;

  // CSR adjacency by counting sort on the source index. Targets keep
  // collection order and duplicates survive; neither changes the result,
  // since relaxing one target never reads another and a repeated edge
  // cannot improve a distance it has just set.
  adj_start_.assign(n + 2, 0);
  for (const auto& [a, b] : scratch_edges_) adj_start_[slot_of(a) + 2]++;
  for (std::uint32_t i = 2; i <= n + 1; ++i) adj_start_[i] += adj_start_[i - 1];
  adj_.resize(scratch_edges_.size());
  for (const auto& [a, b] : scratch_edges_) {
    adj_[adj_start_[slot_of(a) + 1]++] = slot_of(b);
  }
  adj_start_.pop_back();
}

double EnergyRouteCalculator::node_cost(const OlsrState& st,
                                        net::Addr via) const {
  // Residual-energy cost: a relay at full charge costs ~1 hop; a nearly
  // drained relay costs ~20, steering routes around it.
  return 1.0 / std::max(0.05, st.energy_of(via));
}

}  // namespace mk::proto
