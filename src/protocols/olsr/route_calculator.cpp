#include "protocols/olsr/route_calculator.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/manet_protocol.hpp"
#include "protocols/mpr/mpr_state.hpp"

namespace mk::proto {

namespace {

/// `n` copies of `value`, growing capacity geometrically (unlike assign()).
template <class T>
void reset(std::vector<T>& v, std::size_t n, T value) {
  v.resize(n);
  std::fill(v.begin(), v.end(), value);
}

}  // namespace

RouteCalculator::RouteCalculator(core::Manetkit& kit)
    : oc::Component("RouteCalculator"), mpr_(kit, "mpr") {}

std::uint32_t RouteCalculator::index_of(net::Addr a) {
  if (const std::uint32_t* i = index_.find(a)) return *i;
  unseen_.push_back(a);
  return kNone;
}

template <class Fn>
void RouteCalculator::expand(std::uint32_t u, Fn&& fn) {
  auto visit = [&](net::Addr a) {
    if (const std::uint32_t v = index_of(a); v != kNone) fn(v);
  };
  if (u == self_) {
    for (net::Addr n : nbr_->sym_neighbors()) visit(n);
  }
  if (hops_[u] <= 1 && nbr_->is_sym_neighbor(known_[u])) {
    for (net::Addr t : nbr_->two_hop_via(known_[u])) {
      if (t != known_[self_]) visit(t);
    }
  }
  if (adv_[u] != nullptr) {
    for (net::Addr t : *adv_[u]) visit(t);
  }
}

void RouteCalculator::recompute(core::ProtocolContext& ctx) {
  OlsrState& st = ctx.state_as<OlsrState>();
  nbr_ = mpr_.get();
  if (ctx.sys() == nullptr || nbr_ == nullptr) return;
  const net::KernelRouteTable& table = ctx.sys()->kernel_table();
  const net::Addr self = ctx.self();

  // RFC 3626 §10: recalculate only when the inputs change. The result is a
  // pure function of `self`, the neighbour table and the S element, and the
  // sync touches only the kernel table and installed_dests(): while their
  // stamps and generation match the last sync, it would change nothing.
  if (Inputs{self, nbr_->version(), st.version(), table.generation()} ==
      synced_) {
    return;
  }

  // Each origin's advertised set is looked up once into an index-aligned
  // array, then the search runs. Addresses met without an index are added,
  // keeping known_ sorted, and the search runs again: rare once the network
  // is known. It never stops early, as an address seen only deeper in the
  // walk would go unindexed.
  for (;;) {
    self_ = index_of(self);
    reset<const std::vector<net::Addr>*>(adv_, known_.size(), nullptr);
    st.for_each_origin([&](net::Addr origin, const auto& advertised) {
      if (const std::uint32_t* i = index_.find(origin)) adv_[*i] = &advertised;
    });
    if (self_ != kNone) search(st);
    if (unseen_.empty()) break;
    known_.insert(known_.end(), unseen_.begin(), unseen_.end());
    unseen_.clear();
    std::sort(known_.begin(), known_.end());
    known_.erase(std::unique(known_.begin(), known_.end()), known_.end());
    index_.clear();
    for (std::uint32_t v = 0; v < known_.size(); ++v) {
      *index_.emplace(known_[v]).first = v;
    }
  }

  // Sync the kernel table. While the generation is the last sync's, the
  // table holds routes_: write only new or changed routes.
  const bool diff = table.generation() == synced_.generation;
  auto prev = routes_.cbegin();
  fresh_.clear();
  for (std::uint32_t v = 0; v < known_.size(); ++v) {
    if (v == self_ || hops_[v] == kNone) continue;
    const Route r{known_[v], known_[first_[v]], hops_[v]};
    while (prev != routes_.cend() && prev->dest < r.dest) ++prev;
    if (!diff || prev == routes_.cend() || *prev != r) {
      ctx.set_route(r.dest, r.next_hop, r.hops);
    }
    fresh_.push_back(r);  // ascending: index order
  }
  // Both lists ascend: one merge walk finds the routes to withdraw.
  auto kept = fresh_.cbegin();
  for (net::Addr old_dest : st.installed_dests()) {
    while (kept != fresh_.cend() && kept->dest < old_dest) ++kept;
    if (kept == fresh_.cend() || kept->dest != old_dest) {
      ctx.remove_route(old_dest);
    }
  }
  st.installed_dests().clear();
  for (const Route& r : fresh_) st.installed_dests().push_back(r.dest);
  // Swap, don't move: fresh_ keeps the displaced capacity for next time.
  routes_.swap(fresh_);
  synced_ = {self, nbr_->version(), st.version(), table.generation()};
}

void RouteCalculator::search(const OlsrState&) {
  reset(hops_, known_.size(), kNone);
  first_.resize(known_.size());
  hops_[self_] = 0;
  frontier_.assign(1, self_);
  for (std::uint32_t level = 1; !frontier_.empty(); ++level) {
    next_.clear();
    for (std::uint32_t u : frontier_) {
      expand(u, [&](std::uint32_t v) {
        if (hops_[v] != kNone) return;
        hops_[v] = level;
        first_[v] = u == self_ ? v : first_[u];
        next_.push_back(v);
      });
    }
    std::sort(next_.begin(), next_.end());
    frontier_.swap(next_);
  }
}

void EnergyRouteCalculator::search(const OlsrState& st) {
  // Dijkstra from self, popping in (dist, index) order.
  const std::size_t n = known_.size();
  reset(dist_, n, std::numeric_limits<double>::infinity());
  reset(hops_, n, kNone);
  first_.resize(n);
  dist_[self_] = 0.0;
  hops_[self_] = 0;
  heap_.assign(1, {0.0, self_});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    expand(u, [&, d = d, u = u](std::uint32_t v) {
      // Residual-energy cost of entering v: ~1 hop at full charge, ~20
      // nearly drained. It reads only the S element, whose version()
      // moves with every energy level.
      const double nd = d + 1.0 / std::max(0.05, st.energy_of(known_[v]));
      if (nd < dist_[v] - 1e-12) {
        dist_[v] = nd;
        hops_[v] = hops_[u] + 1;
        first_[v] = u == self_ ? v : first_[u];
        heap_.emplace_back(dist_[v], v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    });
  }
}

}  // namespace mk::proto
