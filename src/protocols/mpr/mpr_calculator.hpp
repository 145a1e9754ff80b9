// MPR selection (RFC 3626 §8.3.1 greedy heuristic), as a replaceable
// component — the power-aware OLSR variant swaps in EnergyMprCalculator,
// which prefers high-willingness (high-battery) relays.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "opencom/component.hpp"
#include "protocols/mpr/mpr_state.hpp"

namespace mk::proto {

struct IMprCalculator : oc::Interface {
  /// Sets `state`'s MPR set to one covering every strict 2-hop neighbour;
  /// true if it changed. A no-op while `state`'s version() and `self` equal
  /// this calculator's previous update's: the set is already that result.
  virtual bool update(MprState& state, net::Addr self) = 0;
};

/// Standard greedy cover: WILL_ALWAYS first, then sole-cover neighbours,
/// then repeatedly the neighbour covering the most uncovered 2-hop nodes
/// (ties: higher willingness, then higher reachability/degree).
class MprCalculator : public oc::Component, public IMprCalculator {
 public:
  MprCalculator();
  /// Computes the MPR set covering every strict 2-hop neighbour.
  std::set<net::Addr> compute(const MprState& state, net::Addr self) const;
  bool update(MprState& state, net::Addr self) override;

 protected:
  /// Selection preference between candidates covering the same number of
  /// uncovered nodes. Overridden by the energy-aware variant.
  virtual bool prefer(const MprState& state, net::Addr a, net::Addr b,
                      std::size_t cover_a, std::size_t cover_b) const;

 private:
  // Selection scratch, reused across computes (mutable: compute() is const).
  // Candidates sit in sym-neighbour (= address) order; each owns a
  // [begin, end) slice of covers_flat_, sorted ascending. The uncovered
  // 2-hop set is a sorted vector with a parallel covered-mark array, so the
  // greedy cover runs without per-node allocation.
  struct Candidate {
    net::Addr addr = net::kNoAddr;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool selected = false;
  };
  mutable std::vector<Candidate> cands_;
  mutable std::vector<net::Addr> covers_flat_;
  mutable std::vector<net::Addr> uncovered_;
  mutable std::vector<char> covered_;

  // (version(), self) of the last update; stamps are never 0.
  std::pair<std::uint64_t, net::Addr> updated_{0, net::kNoAddr};
};

/// Power-aware variant [Mahfoudh & Minet 2008 flavour]: willingness (derived
/// from residual battery) dominates the choice so low-energy nodes are
/// relieved of relaying duty.
class EnergyMprCalculator final : public MprCalculator {
 protected:
  bool prefer(const MprState& state, net::Addr a, net::Addr b,
              std::size_t cover_a, std::size_t cover_b) const override;
};

}  // namespace mk::proto
