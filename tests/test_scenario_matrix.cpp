// Tier-1 conformance for the scenario-matrix harness (ctest label:
// scenario). A small slice of the shoot-out matrix — 2 protocols x 2
// mobility models x 1 load — must be (a) reproducible: running the same
// CellSpec twice yields identical ordered journal digests and identical
// metrics; (b) clean: zero routing-invariant violations; (c) sane: PDR in
// (0,1], latency positive exactly when packets arrived. On top of the
// matrix slice, the clock-drift cells pin end-to-end latency to exact
// sim-time values: the DeliverySink clock is the scheduler, so a drifted
// transmitter scales latency by precisely its drift factor — wall-clock
// leakage or double-stamping would break the equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "testbed/scenario/scenario.hpp"
#include "testbed/traffic.hpp"
#include "testbed/world.hpp"
#include "util/scheduler.hpp"

namespace mk {
namespace {

using testbed::scenario::CellResult;
using testbed::scenario::CellSpec;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1234;
  return std::strtoull(env, nullptr, 10);
}

/// The tier-1 slice: reactive protocols (route acquisition is part of what
/// the harness must measure) under both mobility models, CBR load, no
/// faults. Small field/short window keep the whole slice under a few
/// seconds of wall clock.
std::vector<CellSpec> tier1_cells() {
  CellSpec base;
  base.nodes = 30;
  base.width = base.height = 800;
  base.flows = 6;
  base.warmup = sec(3);
  base.duration = sec(8);
  base.seed = chaos_seed();
  return testbed::scenario::expand_matrix(
      base, {"dymo", "aodv"}, {"random_waypoint", "gauss_markov"},
      {false}, {{"none", ""}}, {base.seed});
}

TEST(ScenarioMatrix, CellsAreDigestStableAndSane) {
  for (const CellSpec& spec : tier1_cells()) {
    const std::string key = testbed::scenario::cell_key(spec);
    const CellResult a = testbed::scenario::run_cell(spec);
    const CellResult b = testbed::scenario::run_cell(spec);

    // (a) reproducibility: bit-identical record streams and metrics.
    EXPECT_EQ(a.digest.ordered, b.digest.ordered) << key;
    EXPECT_EQ(a.digest.canonical, b.digest.canonical) << key;
    EXPECT_EQ(a.digest.records, b.digest.records) << key;
    EXPECT_EQ(a.sent, b.sent) << key;
    EXPECT_EQ(a.received, b.received) << key;
    EXPECT_DOUBLE_EQ(a.latency_p99_ms, b.latency_p99_ms) << key;
    EXPECT_DOUBLE_EQ(a.convergence_ms, b.convergence_ms) << key;

    // (b) clean runs: the continuous invariant checker saw nothing.
    EXPECT_EQ(a.invariant_violations, 0u) << key;
    EXPECT_EQ(a.loop_violations + a.invalid_next_hop_violations +
                  a.asymmetric_link_violations,
              a.invariant_violations)
        << key;

    // (c) sanity: traffic flowed and the metrics are in range.
    EXPECT_GT(a.sent, 0u) << key;
    EXPECT_GT(a.pdr, 0.0) << key;
    EXPECT_LE(a.pdr, 1.0) << key;
    EXPECT_GT(a.digest.records, 0u) << key;
    ASSERT_EQ(a.flows.size(), spec.flows) << key;
    for (const testbed::FlowStats& f : a.flows) {
      if (f.received > 0) {
        EXPECT_GT(f.latency_p50_ms, 0.0) << key << " flow " << f.src;
        EXPECT_GE(f.latency_max_ms, f.latency_p50_ms)
            << key << " flow " << f.src;
      } else {
        EXPECT_EQ(f.latency_p50_ms, 0.0) << key << " flow " << f.src;
      }
      EXPECT_LE(f.received, f.sent)
          << key << " flow " << f.src << ": more deliveries than sends";
    }
  }
}

TEST(ScenarioMatrix, DistinctSeedsChangeTheJournal) {
  CellSpec spec = tier1_cells().front();
  const CellResult a = testbed::scenario::run_cell(spec);
  spec.seed = spec.seed + 1;
  const CellResult b = testbed::scenario::run_cell(spec);
  EXPECT_NE(a.digest.ordered, b.digest.ordered)
      << "the cell seed must actually drive the run";
}

TEST(ScenarioMatrix, ExpandMatrixCoversTheCrossProduct) {
  CellSpec base;
  const auto cells = testbed::scenario::expand_matrix(
      base, {"olsr", "dymo"}, {"random_waypoint", "gauss_markov"},
      {false, true}, {{"none", ""}, {"stress", "at 1s loss 0.5 for 1s"}},
      {1, 2, 3});
  EXPECT_EQ(cells.size(), 2u * 2 * 2 * 2 * 3);
  std::vector<std::string> keys;
  for (const auto& c : cells) keys.push_back(testbed::scenario::cell_key(c));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end())
      << "cell keys must be unique across the matrix";
}

// ----------------------------------------------------- clock-drift latency

/// One-hop latency for a 256-byte data payload: base 500us + 1us/byte over
/// the 310-byte wire frame (34B header + 256B payload + 20B trailer).
constexpr double kOneHopMs = 0.810;

/// Runs a 2-node OLSR chain, sends CBR packets from node 0 under `plan`,
/// and returns every delivered packet's end-to-end latency in ms.
std::vector<double> drift_latencies(const std::string& plan_text) {
  testbed::SimWorld world(2, chaos_seed());
  world.linear();
  world.deploy_all("olsr");
  auto converged = world.run_until_routed(sec(30));
  EXPECT_TRUE(converged.has_value());
  if (!plan_text.empty()) {
    world.apply_fault_plan(fault::FaultPlan::parse(plan_text));
  }
  testbed::DeliverySink sink(world.node(1));
  testbed::CbrFlow flow(world.node(0), world.addr(1), msec(250),
                        /*payload=*/256);
  flow.start();
  world.run_for(sec(5));
  flow.stop();
  world.run_for(msec(100));
  EXPECT_GT(sink.received(), 0u);
  return sink.latencies_ms().values();
}

TEST(ScenarioMatrix, LatencyIsSimTimeWithoutDrift) {
  for (double ms : drift_latencies("")) {
    EXPECT_DOUBLE_EQ(ms, kOneHopMs)
        << "undrifted one-hop latency must be exactly base + per-byte delay";
  }
}

TEST(ScenarioMatrix, ClockDriftScalesLatencyExactly) {
  // The drifted node's oscillator runs slow: every frame it transmits takes
  // factor x the nominal propagation delay. Latency is pure sim-time, so the
  // delivered latencies are exact multiples — no wall-clock jitter, no
  // re-stamping at intermediate layers.
  for (double ms : drift_latencies("at 0s drift 0 2.0 for 60s")) {
    EXPECT_DOUBLE_EQ(ms, 2.0 * kOneHopMs);
  }
  for (double ms : drift_latencies("at 0s drift 0 1.5 for 60s")) {
    EXPECT_DOUBLE_EQ(ms, 1.5 * kOneHopMs);
  }
  // Drift on the *receiver* leaves the sender's frames untouched.
  for (double ms : drift_latencies("at 0s drift 1 2.0 for 60s")) {
    EXPECT_DOUBLE_EQ(ms, kOneHopMs);
  }
}

}  // namespace
}  // namespace mk
