// Scenario-matrix harness: the reproducible protocol shoot-out.
//
// A CellSpec names one point in the evaluation matrix — {protocol, node
// count, mobility model, traffic load, fault plan, seed} — and run_cell()
// executes it as a fully deterministic simulation: every random draw
// (placement, mobility, on-off schedules, fault outcomes) descends from the
// cell seed, so two runs of the same spec produce bit-identical journals.
// The CellResult carries the metrics the paper's evaluation compares across
// protocols (delivery ratio, end-to-end latency percentiles, control
// overhead, route-convergence time) plus the evidence that makes the number
// trustworthy: the journal digest pair and the invariant-violation count.
//
// bench/scenario_matrix.cpp sweeps the full matrix into BENCH_scenarios.json;
// tests/test_scenario_matrix.cpp pins a small tier-1 slice.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "obs/journal.hpp"
#include "testbed/traffic.hpp"
#include "util/scheduler.hpp"

namespace mk::testbed::scenario {

/// One cell of the evaluation matrix. Everything influencing the run is in
/// here (plus nothing else), so the spec doubles as the cell's identity.
struct CellSpec {
  std::string protocol = "olsr";  // olsr | dymo | aodv | zrp | gpsr
  std::size_t nodes = 50;
  std::string mobility = "random_waypoint";  // random_waypoint | gauss_markov
  net::topo::TopologyBackend backend = net::topo::TopologyBackend::kGrid;

  // Field + motion (kept gentle by default: a 50-node fleet at 250m range
  // in 1000x1000m stays connected enough for meaningful PDR comparisons).
  double width = 1000.0;
  double height = 1000.0;
  double range = 250.0;
  double max_speed = 4.0;  // RWP max (min 1); GM mean_speed = max_speed / 2

  // Traffic: `flows` unicast flows, src i -> (i + nodes/2) % nodes.
  std::size_t flows = 10;
  Duration interval = msec(200);
  std::uint16_t payload = 256;
  bool on_off = false;          // gate each flow with an on-off process
  Duration mean_on = sec(2);
  Duration mean_off = sec(1);

  /// FaultPlan text (see fault/plan.hpp), armed right after warmup; empty =
  /// fault-free cell. Label is carried separately for reporting.
  std::string fault_label = "none";
  std::string fault_plan;

  Duration warmup = sec(5);    // protocol boot + first mobility settling
  Duration duration = sec(30); // measured traffic window
  Duration drain = sec(1);     // post-stop window for in-flight deliveries
  Duration step = msec(100);   // mobility step cadence

  std::uint64_t seed = 1234;
};

/// Stable one-line identity for reports and JSON keys:
///   <proto>/n<nodes>/<mobility>/<cbr|onoff>/<fault>/s<seed>
std::string cell_key(const CellSpec& spec);

/// Outcome of one cell run.
struct CellResult {
  std::string key;

  // Delivery.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  double pdr = 0.0;

  // End-to-end latency over delivered packets, ms (0 when nothing arrived).
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  // Control overhead across the whole run (boot included — the proactive
  // protocols' standing cost is part of the comparison).
  std::uint64_t control_frames = 0;
  std::uint64_t control_bytes = 0;
  double control_bytes_per_delivery = 0.0;  // control_bytes / max(1, received)

  /// Sim time from traffic start until every flow's source first held a
  /// kernel route to its destination (checked once per mobility step;
  /// negative = never converged inside the window). Per-flow on purpose:
  /// reactive protocols only acquire the routes traffic asks for.
  double convergence_ms = -1.0;

  /// Routing-invariant violations over the run: the total, then by kind.
  std::uint64_t invariant_violations = 0;
  std::uint64_t loop_violations = 0;
  std::uint64_t invalid_next_hop_violations = 0;
  std::uint64_t asymmetric_link_violations = 0;
  obs::Journal::DigestSnapshot digest;  // over the cell's entire record stream

  std::vector<FlowStats> flows;
};

/// Runs one cell start-to-finish in a fresh SimWorld. Deterministic in the
/// spec: same CellSpec -> identical CellResult including digest.ordered.
CellResult run_cell(const CellSpec& spec);

/// Cartesian sweep helper used by the bench driver and the conformance
/// tests: every combination of the given axes over `base` (axes with one
/// entry pin that dimension).
std::vector<CellSpec> expand_matrix(const CellSpec& base,
                                    const std::vector<std::string>& protocols,
                                    const std::vector<std::string>& mobilities,
                                    const std::vector<bool>& on_off_loads,
                                    const std::vector<std::pair<std::string, std::string>>& fault_plans,
                                    const std::vector<std::uint64_t>& seeds);

}  // namespace mk::testbed::scenario
