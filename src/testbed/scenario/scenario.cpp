#include "testbed/scenario/scenario.hpp"

#include <sstream>

#include "fault/plan.hpp"
#include "testbed/world.hpp"
#include "util/assert.hpp"

namespace mk::testbed::scenario {

namespace {

// Seed-derivation salts: each stochastic subsystem of a cell draws from its
// own stream so adding one never perturbs the others.
constexpr std::uint64_t kMobilitySalt = 0x6d0b111711ull;
constexpr std::uint64_t kFaultSalt = 0xfa0175eedull;
constexpr std::uint64_t kTrafficSalt = 0x0f10f10f1ull;

std::vector<FlowSpec> build_flows(const CellSpec& spec) {
  MK_ENSURE(spec.nodes >= 2, "scenario cell needs at least two nodes");
  std::vector<FlowSpec> flows;
  flows.reserve(spec.flows);
  // Deterministic antipodal pattern: flow i runs i -> i + n/2 (mod n), so
  // flows cross the field and no (src, dst) pair repeats for flows < nodes.
  for (std::size_t i = 0; i < spec.flows; ++i) {
    FlowSpec f;
    f.src = i % spec.nodes;
    f.dst = (i + spec.nodes / 2) % spec.nodes;
    if (f.dst == f.src) f.dst = (f.dst + 1) % spec.nodes;
    f.interval = spec.interval;
    f.payload = spec.payload;
    f.on_off = spec.on_off;
    f.on_off_params.mean_on = spec.mean_on;
    f.on_off_params.mean_off = spec.mean_off;
    flows.push_back(f);
  }
  return flows;
}

}  // namespace

std::string cell_key(const CellSpec& spec) {
  std::ostringstream out;
  out << spec.protocol << "/n" << spec.nodes << '/' << spec.mobility << '/'
      << (spec.on_off ? "onoff" : "cbr") << '/' << spec.fault_label << "/s"
      << spec.seed;
  return out.str();
}

CellResult run_cell(const CellSpec& spec) {
  SimWorld world(spec.nodes, spec.seed);
  obs::Journal& journal = world.enable_tracing();
  obs::InvariantChecker& checker = world.enable_invariants();

  if (spec.mobility == "gauss_markov") {
    net::GaussMarkov::Params p;
    p.width = spec.width;
    p.height = spec.height;
    p.range = spec.range;
    p.mean_speed = spec.max_speed / 2.0;
    p.speed_sigma = spec.max_speed / 8.0;
    world.enable_mobility(p, spec.seed ^ kMobilitySalt, spec.backend);
  } else {
    MK_ENSURE(spec.mobility == "random_waypoint",
              "unknown mobility model (want random_waypoint | gauss_markov)");
    net::RandomWaypoint::Params p;
    p.width = spec.width;
    p.height = spec.height;
    p.range = spec.range;
    p.max_speed = spec.max_speed;
    world.enable_mobility(p, spec.seed ^ kMobilitySalt, spec.backend);
  }

  if (spec.protocol == "gpsr") world.register_gpsr_oracle();
  world.deploy_all(spec.protocol);

  // Warmup: protocols boot and the fleet starts moving before measurement.
  for (Duration t{0}; t < spec.warmup; t += spec.step) {
    world.step_mobility(spec.step);
  }

  // Fault-plan times are relative to the end of warmup (= traffic start),
  // so one plan text means the same thing whatever the warmup length.
  if (!spec.fault_plan.empty()) {
    world.apply_fault_plan(fault::FaultPlan::parse(spec.fault_plan),
                           spec.seed ^ kFaultSalt);
  }

  TrafficMatrix traffic(world, build_flows(spec), spec.seed ^ kTrafficSalt);
  traffic.start();
  const TimePoint t0 = world.now();
  Duration convergence{-1};
  for (Duration t{0}; t < spec.duration; t += spec.step) {
    world.step_mobility(spec.step);
    if (convergence.count() < 0 && traffic.all_flows_routed()) {
      convergence = world.now() - t0;
    }
  }
  traffic.stop();
  world.run_for(spec.drain);  // let in-flight packets land (mobility frozen)

  CellResult out;
  out.key = cell_key(spec);
  out.sent = traffic.total_sent();
  out.received = traffic.total_received();
  out.pdr = out.sent == 0 ? 0.0
                          : static_cast<double>(out.received) /
                                static_cast<double>(out.sent);
  const Samples lat = traffic.merged_latencies_ms();
  if (lat.count() > 0) {
    out.latency_mean_ms = lat.mean();
    out.latency_p50_ms = lat.quantile(0.50);
    out.latency_p99_ms = lat.quantile(0.99);
    out.latency_max_ms = lat.max();
  }
  const net::MediumStats ms = world.medium().stats();
  out.control_frames = ms.control_frames;
  out.control_bytes = ms.control_bytes;
  out.control_bytes_per_delivery =
      static_cast<double>(ms.control_bytes) /
      static_cast<double>(out.received == 0 ? 1 : out.received);
  out.convergence_ms = convergence.count() < 0 ? -1.0 : to_ms(convergence);
  out.invariant_violations = checker.violations().size();
  for (const obs::InvariantChecker::Violation& v : checker.violations()) {
    using Kind = obs::InvariantChecker::Violation::Kind;
    switch (v.kind) {
      case Kind::kLoop: ++out.loop_violations; break;
      case Kind::kInvalidNextHop: ++out.invalid_next_hop_violations; break;
      case Kind::kAsymmetricLink: ++out.asymmetric_link_violations; break;
    }
  }
  out.digest = journal.digests();
  out.flows = traffic.all_flow_stats();
  return out;
}

std::vector<CellSpec> expand_matrix(
    const CellSpec& base, const std::vector<std::string>& protocols,
    const std::vector<std::string>& mobilities,
    const std::vector<bool>& on_off_loads,
    const std::vector<std::pair<std::string, std::string>>& fault_plans,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<CellSpec> cells;
  cells.reserve(protocols.size() * mobilities.size() * on_off_loads.size() *
                fault_plans.size() * seeds.size());
  for (const std::string& proto : protocols) {
    for (const std::string& mob : mobilities) {
      for (bool onoff : on_off_loads) {
        for (const auto& [label, plan] : fault_plans) {
          for (std::uint64_t seed : seeds) {
            CellSpec cell = base;
            cell.protocol = proto;
            cell.mobility = mob;
            cell.on_off = onoff;
            cell.fault_label = label;
            cell.fault_plan = plan;
            cell.seed = seed;
            cells.push_back(cell);
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace mk::testbed::scenario
