#include "protocols/mpr/mpr_calculator.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace mk::proto {

MprCalculator::MprCalculator() : oc::Component("MprCalculator") {}

bool MprCalculator::prefer(const MprState& state, net::Addr a, net::Addr b,
                           std::size_t cover_a, std::size_t cover_b) const {
  if (cover_a != cover_b) return cover_a > cover_b;
  std::uint8_t wa = state.willingness_of(a);
  std::uint8_t wb = state.willingness_of(b);
  if (wa != wb) return wa > wb;
  std::size_t da = state.two_hop_via(a).size();
  std::size_t db = state.two_hop_via(b).size();
  if (da != db) return da > db;
  return a < b;  // deterministic tiebreak
}

std::set<net::Addr> MprCalculator::compute(const MprState& state,
                                           net::Addr self) const {
  std::set<net::Addr> mprs;

  // One pass over the symmetric neighbourhood fills all scratch at once:
  // candidate coverage slices (willingness > NEVER only) and the strict
  // 2-hop set (union over *all* symmetric neighbours — a node reachable only
  // through a WILL_NEVER neighbour still counts as uncovered, exactly as the
  // former strict_two_hop() computed it).
  cands_.clear();
  covers_flat_.clear();
  uncovered_.clear();
  for (net::Addr n : state.sym_neighbors()) {
    bool candidate = state.willingness_of(n) != wire::kWillNever;
    auto begin = static_cast<std::uint32_t>(covers_flat_.size());
    for (net::Addr t : state.two_hop_via(n)) {
      if (t == self || state.is_sym_neighbor(t)) continue;
      uncovered_.push_back(t);
      if (candidate) covers_flat_.push_back(t);
    }
    if (candidate) {
      cands_.push_back(
          {n, begin, static_cast<std::uint32_t>(covers_flat_.size()), false});
      if (state.willingness_of(n) == wire::kWillAlways) {
        mprs.insert(n);
        cands_.back().selected = true;
      }
    }
  }
  std::sort(uncovered_.begin(), uncovered_.end());
  uncovered_.erase(std::unique(uncovered_.begin(), uncovered_.end()),
                   uncovered_.end());
  covered_.assign(uncovered_.size(), 0);
  std::size_t remaining = uncovered_.size();

  auto upos = [this](net::Addr t) -> std::ptrdiff_t {
    auto it = std::lower_bound(uncovered_.begin(), uncovered_.end(), t);
    if (it == uncovered_.end() || *it != t) return -1;
    return it - uncovered_.begin();
  };
  auto mark_covers = [&](const Candidate& c) {
    for (std::uint32_t i = c.begin; i < c.end; ++i) {
      std::ptrdiff_t p = upos(covers_flat_[i]);
      if (p >= 0 && covered_[static_cast<std::size_t>(p)] == 0) {
        covered_[static_cast<std::size_t>(p)] = 1;
        --remaining;
      }
    }
  };
  for (const auto& c : cands_) {
    if (c.selected) mark_covers(c);
  }

  // Neighbours that are the *only* path to some 2-hop node. Each candidate's
  // coverage slice is sorted (two-hop sets iterate ascending), so membership
  // is a binary search; the last covering candidate in address order is the
  // sole path when n_paths == 1, matching the old map iteration.
  for (std::size_t p = 0; p < uncovered_.size(); ++p) {
    if (covered_[p] != 0) continue;
    net::Addr t = uncovered_[p];
    net::Addr sole = net::kNoAddr;
    std::size_t n_paths = 0;
    for (const auto& c : cands_) {
      if (std::binary_search(covers_flat_.begin() + c.begin,
                             covers_flat_.begin() + c.end, t)) {
        ++n_paths;
        sole = c.addr;
      }
    }
    if (n_paths == 1) mprs.insert(sole);
  }
  for (auto& c : cands_) {
    if (!c.selected && mprs.count(c.addr) > 0) {
      c.selected = true;
      mark_covers(c);
    }
  }

  // Greedy cover of the remainder.
  while (remaining > 0) {
    std::size_t best = cands_.size();
    std::size_t best_cover = 0;
    for (std::size_t ci = 0; ci < cands_.size(); ++ci) {
      const Candidate& c = cands_[ci];
      if (c.selected) continue;
      std::size_t cnt = 0;
      for (std::uint32_t i = c.begin; i < c.end; ++i) {
        std::ptrdiff_t p = upos(covers_flat_[i]);
        if (p >= 0 && covered_[static_cast<std::size_t>(p)] == 0) ++cnt;
      }
      if (cnt == 0) continue;
      if (best == cands_.size() ||
          prefer(state, c.addr, cands_[best].addr, cnt, best_cover)) {
        best = ci;
        best_cover = cnt;
      }
    }
    if (best == cands_.size()) break;  // some 2-hop nodes are unreachable
    mprs.insert(cands_[best].addr);
    cands_[best].selected = true;
    mark_covers(cands_[best]);
  }
  return mprs;
}

bool MprCalculator::update(MprState& state, net::Addr self) {
  const std::pair inputs{state.version(), self};
  if (std::exchange(updated_, inputs) == inputs) return false;
  return state.set_mprs(compute(state, self));
}

bool EnergyMprCalculator::prefer(const MprState& state, net::Addr a,
                                 net::Addr b, std::size_t cover_a,
                                 std::size_t cover_b) const {
  std::uint8_t wa = state.willingness_of(a);
  std::uint8_t wb = state.willingness_of(b);
  if (wa != wb) return wa > wb;  // energy first
  return MprCalculator::prefer(state, a, b, cover_a, cover_b);
}

}  // namespace mk::proto
