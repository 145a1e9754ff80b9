// Determinism and conformance for the Gauss–Markov mobility model and the
// on-off traffic generator (scenario-matrix ISSUE).
//
// Gauss–Markov shares RandomWaypoint's RangeLinkTracker path, so
// it inherits the same acceptance bar: the grid backend must be bit-identical
// to the O(n²) reference oracle (link sets and ordered journal digests at
// every step), one seed must reproduce one trajectory exactly, and different
// seeds must actually diverge. OnOffFlow gets the same treatment through its
// flip schedule: the (time, state) transition list is the determinism
// witness.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "testbed/traffic.hpp"
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

std::vector<std::vector<net::Addr>> link_sets(testbed::SimWorld& world) {
  std::vector<std::vector<net::Addr>> out;
  out.reserve(world.size());
  for (std::size_t i = 0; i < world.size(); ++i) {
    auto span = world.medium().neighbors_of(world.addr(i));
    out.emplace_back(span.begin(), span.end());
  }
  return out;
}

// ------------------------------------------------------------ Gauss–Markov

TEST(GaussMarkov, GridMatchesReferenceUnderMobility) {
  const std::size_t n = 150;
  const std::uint64_t seed = chaos_seed();
  net::GaussMarkov::Params p;
  p.width = 2000;
  p.height = 2000;
  p.range = 250;
  testbed::SimWorld grid_world(n, seed);
  testbed::SimWorld ref_world(n, seed);
  obs::Journal& jg = grid_world.enable_tracing();
  obs::Journal& jr = ref_world.enable_tracing();
  grid_world.enable_mobility(p, seed ^ 0x9a055, TopologyBackend::kGrid);
  ref_world.enable_mobility(p, seed ^ 0x9a055, TopologyBackend::kReference);
  ASSERT_EQ(jg.ordered_digest(), jr.ordered_digest()) << "initial placement";

  for (int step = 0; step < 30; ++step) {
    grid_world.step_mobility(sec(1));
    ref_world.step_mobility(sec(1));
    ASSERT_EQ(link_sets(grid_world), link_sets(ref_world))
        << "link sets diverged at step " << step << " (seed " << seed << ")";
    ASSERT_EQ(jg.ordered_digest(), jr.ordered_digest())
        << "journal diverged at step " << step << " (seed " << seed << ")";
  }
  EXPECT_GT(grid_world.medium().stats().link_flips, 0u)
      << "30s of Gauss-Markov motion must churn links";
  EXPECT_LT(grid_world.medium().stats().pair_evals,
            ref_world.medium().stats().pair_evals / 4)
      << "grid stepping must test far fewer pairs";
}

TEST(GaussMarkov, SameSeedReproducesDigest) {
  const std::uint64_t seed = chaos_seed();
  net::GaussMarkov::Params p;
  auto run = [&](TopologyBackend backend) {
    testbed::SimWorld world(60, seed);
    obs::Journal& journal = world.enable_tracing();
    world.enable_mobility(p, seed ^ 0x60d, backend);
    for (int step = 0; step < 50; ++step) world.step_mobility(msec(200));
    return journal.digests();
  };
  const auto a = run(TopologyBackend::kGrid);
  const auto b = run(TopologyBackend::kGrid);
  EXPECT_EQ(a.ordered, b.ordered);
  EXPECT_EQ(a.records, b.records);
  // The reference backend replays the same trajectory: identical stream.
  const auto c = run(TopologyBackend::kReference);
  EXPECT_EQ(a.ordered, c.ordered);
}

TEST(GaussMarkov, DifferentSeedsDiverge) {
  net::GaussMarkov::Params p;
  auto run = [&](std::uint64_t mobility_seed) {
    testbed::SimWorld world(60, 42);
    obs::Journal& journal = world.enable_tracing();
    world.enable_mobility(p, mobility_seed);
    for (int step = 0; step < 50; ++step) world.step_mobility(msec(200));
    return journal.ordered_digest();
  };
  EXPECT_NE(run(chaos_seed()), run(chaos_seed() + 1))
      << "different mobility seeds must produce different link histories";
}

TEST(GaussMarkov, StaysInsideFieldBounds) {
  const std::size_t n = 40;
  net::GaussMarkov::Params p;
  p.width = 400;   // small field + fast nodes: reflections every few steps
  p.height = 300;
  p.mean_speed = 20;
  p.speed_sigma = 8;
  p.range = 120;
  testbed::SimWorld world(n, chaos_seed());
  world.enable_mobility(p, chaos_seed() ^ 0xb0b);
  for (int step = 0; step < 200; ++step) {
    world.step_mobility(msec(500));
    for (std::size_t i = 0; i < n; ++i) {
      const net::Position pos = world.node(i).position();
      ASSERT_GE(pos.x, 0.0) << "node " << i << " step " << step;
      ASSERT_LE(pos.x, p.width) << "node " << i << " step " << step;
      ASSERT_GE(pos.y, 0.0) << "node " << i << " step " << step;
      ASSERT_LE(pos.y, p.height) << "node " << i << " step " << step;
    }
  }
}

// ---------------------------------------------------------------- OnOffFlow

std::vector<std::pair<std::int64_t, bool>> flip_log(
    const testbed::OnOffFlow& flow) {
  std::vector<std::pair<std::int64_t, bool>> out;
  out.reserve(flow.flips().size());
  for (const auto& f : flow.flips()) out.emplace_back(f.at.us, f.on);
  return out;
}

struct OnOffRun {
  std::vector<std::pair<std::int64_t, bool>> flips;
  std::uint64_t sent = 0;
};

OnOffRun run_onoff(std::uint64_t flow_seed, bool deterministic) {
  testbed::SimWorld world(2, 42);
  world.linear();
  testbed::OnOffFlow::Params p;
  p.interval = msec(100);
  p.mean_on = sec(1);
  p.mean_off = msec(500);
  p.deterministic = deterministic;
  testbed::OnOffFlow flow(world.node(0), world.addr(1), p, flow_seed);
  flow.start();
  world.run_for(sec(20));
  flow.stop();
  return {flip_log(flow), flow.sent()};
}

TEST(OnOffFlow, SameSeedSameSchedule) {
  const auto a = run_onoff(chaos_seed(), /*deterministic=*/false);
  const auto b = run_onoff(chaos_seed(), /*deterministic=*/false);
  ASSERT_GT(a.flips.size(), 4u) << "20s must see several on/off transitions";
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_GT(a.sent, 0u);
}

TEST(OnOffFlow, DifferentSeedsDiverge) {
  const auto a = run_onoff(chaos_seed(), /*deterministic=*/false);
  const auto b = run_onoff(chaos_seed() + 1, /*deterministic=*/false);
  EXPECT_NE(a.flips, b.flips)
      << "exponential period draws must depend on the flow seed";
}

TEST(OnOffFlow, DeterministicModeFlipsAtExactMeans) {
  const auto a = run_onoff(chaos_seed(), /*deterministic=*/true);
  // start() flips ON at t=0; then OFF after exactly 1s, ON 500ms later, ...
  ASSERT_GE(a.flips.size(), 5u);
  EXPECT_EQ(a.flips[0], (std::pair<std::int64_t, bool>{0, true}));
  EXPECT_EQ(a.flips[1], (std::pair<std::int64_t, bool>{1000000, false}));
  EXPECT_EQ(a.flips[2], (std::pair<std::int64_t, bool>{1500000, true}));
  EXPECT_EQ(a.flips[3], (std::pair<std::int64_t, bool>{2500000, false}));
  EXPECT_EQ(a.flips[4], (std::pair<std::int64_t, bool>{3000000, true}));
  // Deterministic mode ignores the seed entirely.
  const auto b = run_onoff(chaos_seed() + 17, /*deterministic=*/true);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.sent, b.sent);
}

TEST(OnOffFlow, OffPeriodsActuallyGateSending) {
  // A plain CBR flow over the same window sends every interval; the on-off
  // flow must send strictly less (it spends OFF windows silent) but still
  // more than nothing.
  testbed::SimWorld world(2, 42);
  world.linear();
  testbed::CbrFlow cbr(world.node(0), world.addr(1), msec(100));
  cbr.start();
  world.run_for(sec(20));
  cbr.stop();

  const auto onoff = run_onoff(chaos_seed(), /*deterministic=*/true);
  EXPECT_GT(onoff.sent, 0u);
  EXPECT_LT(onoff.sent, cbr.sent())
      << "on-off gating must suppress sends during OFF periods";
}

}  // namespace
}  // namespace mk
