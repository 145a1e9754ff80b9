// Scale conformance for the spatial-hash topology core (perf_opt ISSUE 7).
//
// The grid backend (SpatialGrid + RangeLinkTracker) must be *bit-identical*
// to the exhaustive O(n²) reference oracle: same link sets at every mobility
// step and same ordered journal digests — the flip ordering rule
// (sort by (min addr, max addr) before applying) is what pins the journal
// stream down. On top of conformance, the smoke test bounds the medium's
// pair-eval counter so the grid path can never silently regress to an
// all-pairs scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/spatial_index.hpp"
#include "net/topology.hpp"
#include "testbed/world.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

using net::topo::TopologyBackend;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1234;
  return std::strtoull(env, nullptr, 10);
}

/// Neighbour sets of every node, in address order (flat copy for equality).
std::vector<std::vector<net::Addr>> link_sets(testbed::SimWorld& world) {
  std::vector<std::vector<net::Addr>> out;
  out.reserve(world.size());
  for (std::size_t i = 0; i < world.size(); ++i) {
    auto span = world.medium().neighbors_of(world.addr(i));
    out.emplace_back(span.begin(), span.end());
  }
  return out;
}

// ------------------------------------------------------------- SpatialGrid

using SlotPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Every pair the sweep visits, as (min slot, max slot), sorted. Duplicates
/// are kept, so an equality check also pins "exactly once".
SlotPairs candidate_pairs(const net::SpatialGrid& grid) {
  SlotPairs out;
  grid.for_each_candidate_pair([&](std::uint32_t a, std::uint32_t b) {
    out.emplace_back(std::min(a, b), std::max(a, b));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialGrid, CandidatePairsCoverNineCellNeighbourhood) {
  // One slot in each cell of a 3x3 block, a second slot in the centre cell
  // and one far away: the sweep must visit exactly the pairs whose cells
  // touch (including diagonals), each once.
  net::SpatialGrid grid(100.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cell;
  for (std::int64_t cy = 0; cy < 3; ++cy) {
    for (std::int64_t cx = 0; cx < 3; ++cx) cell.emplace_back(cx, cy);
  }
  cell.emplace_back(1, 1);
  cell.emplace_back(5, 5);
  for (std::uint32_t i = 0; i < cell.size(); ++i) {
    grid.insert(i, {100.0 * double(cell[i].first) + 10.0 + i,
                    100.0 * double(cell[i].second) + 10.0 + i});
  }
  SlotPairs expected;
  for (std::uint32_t i = 0; i < cell.size(); ++i) {
    for (std::uint32_t j = i + 1; j < cell.size(); ++j) {
      if (std::abs(cell[i].first - cell[j].first) <= 1 &&
          std::abs(cell[i].second - cell[j].second) <= 1) {
        expected.emplace_back(i, j);
      }
    }
  }
  EXPECT_EQ(candidate_pairs(grid), expected);
}

TEST(SpatialGrid, MoveRelocatesAcrossCells) {
  net::SpatialGrid grid(100.0);
  grid.insert(7, {10, 10});
  grid.insert(8, {20, 20});
  EXPECT_EQ(candidate_pairs(grid), (SlotPairs{{7, 8}}));
  grid.move(7, {10, 10}, {510, 510});
  EXPECT_TRUE(candidate_pairs(grid).empty());
  grid.insert(9, {520, 520});
  EXPECT_EQ(candidate_pairs(grid), (SlotPairs{{7, 9}}));
  grid.move(9, {520, 520}, {590, 590});  // same cell: stays a candidate
  EXPECT_EQ(candidate_pairs(grid), (SlotPairs{{7, 9}}));
}

TEST(SpatialGrid, NegativeCoordinatesHashDistinctCells) {
  net::SpatialGrid grid(100.0);
  grid.insert(0, {-50, -50});    // cell (-1,-1)
  grid.insert(1, {50, 50});      // cell (0,0)
  grid.insert(2, {-150, -150});  // cell (-2,-2)
  EXPECT_EQ(candidate_pairs(grid), (SlotPairs{{0, 1}, {0, 2}}))
      << "cells must floor across the origin: (-2,-2) does not touch (0,0)";
}

// -------------------------------------------------- stateless apply parity

TEST(TopologyScale, StatelessGridApplyMatchesReference) {
  const std::size_t n = 64;
  SimScheduler sg, sr;
  net::SimMedium mg(sg), mr(sr);
  obs::Journal jg, jr;
  mg.set_journal(&jg);
  mr.set_journal(&jr);
  std::vector<std::unique_ptr<net::SimNode>> ng, nr;
  std::vector<net::SimNode*> pg, pr;
  for (std::uint32_t i = 0; i < n; ++i) {
    ng.push_back(std::make_unique<net::SimNode>(i, mg, sg));
    nr.push_back(std::make_unique<net::SimNode>(i, mr, sr));
    pg.push_back(ng.back().get());
    pr.push_back(nr.back().get());
  }
  Rng rng_g(chaos_seed()), rng_r(chaos_seed());
  // Several rounds of fresh placements: each apply must tear down the stale
  // links of the previous round identically on both backends.
  for (int round = 0; round < 5; ++round) {
    net::topo::random_geometric(mg, pg, 900, 900, 250, rng_g,
                                TopologyBackend::kGrid);
    net::topo::random_geometric(mr, pr, 900, 900, 250, rng_r,
                                TopologyBackend::kReference);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto a = mg.neighbors_of(net::addr_for_index(i));
      auto b = mr.neighbors_of(net::addr_for_index(i));
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "round " << round << " node " << i;
    }
    ASSERT_EQ(jg.ordered_digest(), jr.ordered_digest()) << "round " << round;
  }
  EXPECT_LT(mg.stats().pair_evals, mr.stats().pair_evals)
      << "grid backend must test fewer pairs than the all-pairs oracle";
}

// ------------------------------------------- randomized mobility parity

/// The ISSUE 7 acceptance scenario: 500 nodes under RandomWaypoint for 60
/// sim-seconds; grid and reference backends must produce identical link sets
/// at every step and identical ordered journal digests throughout.
TEST(TopologyScale, GridMatchesReferenceUnder500NodeRandomWaypoint) {
  const std::size_t n = 500;
  const std::uint64_t seed = chaos_seed();
  net::RandomWaypoint::Params p;
  p.width = 4000;
  p.height = 4000;
  p.range = 250;
  testbed::SimWorld grid_world(n, /*seed=*/seed);
  testbed::SimWorld ref_world(n, /*seed=*/seed);
  obs::Journal& jg = grid_world.enable_tracing();
  obs::Journal& jr = ref_world.enable_tracing();
  grid_world.enable_mobility(p, seed ^ 0x5ca1e, TopologyBackend::kGrid);
  ref_world.enable_mobility(p, seed ^ 0x5ca1e, TopologyBackend::kReference);
  ASSERT_EQ(jg.ordered_digest(), jr.ordered_digest()) << "initial placement";

  for (int step = 0; step < 60; ++step) {
    grid_world.step_mobility(sec(1));
    ref_world.step_mobility(sec(1));
    ASSERT_EQ(link_sets(grid_world), link_sets(ref_world))
        << "link sets diverged at step " << step << " (seed " << seed << ")";
    ASSERT_EQ(jg.ordered_digest(), jr.ordered_digest())
        << "journal diverged at step " << step << " (seed " << seed << ")";
  }
  EXPECT_GT(grid_world.medium().stats().link_flips, 0u)
      << "60s of mobility must actually churn links";
  EXPECT_LT(grid_world.medium().stats().pair_evals,
            ref_world.medium().stats().pair_evals / 4)
      << "grid stepping must test far fewer pairs";
}

/// Sparse movement: a handful of movers — including a teleport far beyond
/// grid adjacency, whose old links only the merge-diff against the medium
/// can find — must leave the medium exactly where the exhaustive oracle says.
TEST(TopologyScale, SparseMovesStayExact) {
  const std::size_t n = 100;
  SimScheduler sched;
  net::SimMedium medium(sched);
  std::vector<std::unique_ptr<net::SimNode>> owned;
  std::vector<net::SimNode*> nodes;
  Rng rng(chaos_seed());
  for (std::uint32_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<net::SimNode>(i, medium, sched));
    owned.back()->set_position({rng.uniform(0.0, 2000.0),
                                rng.uniform(0.0, 2000.0)});
    nodes.push_back(owned.back().get());
  }
  net::topo::RangeLinkTracker tracker(medium, nodes, 250.0);
  for (int round = 0; round < 20; ++round) {
    // 3 jitterers and, every 4th round, a teleport.
    for (int m = 0; m < 3; ++m) {
      auto slot = static_cast<std::size_t>(rng.uniform(0.0, double(n)));
      if (slot >= n) slot = n - 1;
      net::Position p = nodes[slot]->position();
      nodes[slot]->set_position({p.x + rng.uniform(-40.0, 40.0),
                                 p.y + rng.uniform(-40.0, 40.0)});
    }
    if (round % 4 == 0) {
      std::size_t slot = round % n;
      nodes[slot]->set_position({rng.uniform(0.0, 2000.0),
                                 rng.uniform(0.0, 2000.0)});
    }
    tracker.update();
    std::uint64_t flips_before = medium.stats().link_flips;
    net::topo::apply_range_links(medium, nodes, 250.0,
                                 TopologyBackend::kReference);
    ASSERT_EQ(medium.stats().link_flips, flips_before)
        << "oracle corrected the tracker at round " << round
        << " (seed " << chaos_seed() << ")";
  }
}

/// An update() with no node moved tests no pair and flips no link; a link
/// from a tracked node to an address outside the tracked set survives the
/// sweep that follows a move.
TEST(TopologyScale, TrackerSkipsStillFleetAndKeepsUntrackedLinks) {
  const std::uint32_t n = 20;
  SimScheduler sched;
  net::SimMedium medium(sched);
  std::vector<std::unique_ptr<net::SimNode>> owned;
  std::vector<net::SimNode*> nodes;
  Rng rng(chaos_seed());
  for (std::uint32_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<net::SimNode>(i, medium, sched));
    owned.back()->set_position({rng.uniform(0.0, 600.0),
                                rng.uniform(0.0, 600.0)});
    nodes.push_back(owned.back().get());
  }
  // The outsider's address sorts above every tracked one, so node 0 owns
  // the pair in the merge-diff and only the tracked-set check keeps it.
  net::SimNode outsider(n, medium, sched);
  outsider.set_position({5000, 5000});
  net::topo::RangeLinkTracker tracker(medium, nodes, 250.0);
  medium.set_link(nodes[0]->addr(), outsider.addr(), true);

  const auto evals = medium.stats().pair_evals;
  const auto flips = medium.stats().link_flips;
  tracker.update();
  EXPECT_EQ(medium.stats().pair_evals, evals) << "nothing moved";
  EXPECT_EQ(medium.stats().link_flips, flips) << "nothing moved";

  nodes[0]->set_position({2000, 2000});  // out of range of every node
  tracker.update();
  EXPECT_GT(medium.stats().pair_evals, evals) << "a move must run the sweep";
  EXPECT_TRUE(medium.has_link(nodes[0]->addr(), outsider.addr()))
      << "the sweep tore down a link outside the tracked set";
}

// --------------------------------------------------- tier-1 scale smoke

/// Fast guard: a 100-node mobile world must stay O(n·k) — the pair-eval
/// counter is bounded far below what any quadratic recompute would burn, and
/// a final reference oracle pass over the same medium must find nothing to
/// fix (zero flips), proving the tracked links were exact.
TEST(TopologyScale, HundredNodeSmokeStaysSubQuadratic) {
  const std::size_t n = 100;
  const int steps = 20;
  net::RandomWaypoint::Params p;
  p.width = 4000;
  p.height = 4000;
  p.range = 250;
  testbed::SimWorld world(n, 42);
  world.enable_mobility(p, 7, TopologyBackend::kGrid);

  std::uint64_t evals_before = world.medium().stats().pair_evals;
  for (int s = 0; s < steps; ++s) world.step_mobility(msec(100));
  std::uint64_t evals = world.medium().stats().pair_evals - evals_before;

  const std::uint64_t quadratic = static_cast<std::uint64_t>(steps) * n *
                                  (n - 1) / 2;
  EXPECT_LT(evals, static_cast<std::uint64_t>(steps) * n * 10)
      << "grid stepping must stay O(n·k), got " << evals << " pair tests vs "
      << quadratic << " for the all-pairs scan";

  // Oracle cross-check on the same medium: exact tracked links mean the
  // exhaustive pass has zero corrections to apply.
  std::vector<net::SimNode*> ptrs;
  for (std::size_t i = 0; i < n; ++i) ptrs.push_back(&world.node(i));
  std::uint64_t flips_before = world.medium().stats().link_flips;
  net::topo::apply_range_links(world.medium(), ptrs, p.range,
                               TopologyBackend::kReference);
  EXPECT_EQ(world.medium().stats().link_flips, flips_before)
      << "reference oracle found links the grid tracker got wrong";
}

}  // namespace
}  // namespace mk
