// Scenario-matrix shoot-out driver: sweeps every cell of
//   {protocol} x {mobility model} x {traffic load} x {fault plan}
// at 50 nodes, runs each cell TWICE with the same seed, and emits one JSON
// report (stdout or argv[1]) with per-cell delivery/latency/overhead/
// convergence metrics plus the two runs' journal digests. A cell is
// "digest_stable" when both runs produced the same ordered digest — the
// reproducibility claim the report rides on. bench/run_scenarios.sh wraps
// this binary and fails the build on missing cells, NaN metrics or digest
// instability.
//
// Seed comes from MK_CHAOS_SEED (default 1234) so the CI chaos matrix
// re-runs the whole shoot-out under different randomness.
//
// Usage: scenario_matrix [out.json] [--quick]
//   --quick  shrinks the measured window (CI smoke; full window by default)

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "testbed/scenario/scenario.hpp"

namespace {

using mk::testbed::scenario::CellResult;
using mk::testbed::scenario::CellSpec;

std::uint64_t env_seed() {
  const char* env = std::getenv("MK_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1234;
  return std::strtoull(env, nullptr, 10);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

void emit_cell(std::ostream& out, const CellSpec& spec, const CellResult& r,
               const CellResult& rerun) {
  const bool stable = r.digest.ordered == rerun.digest.ordered &&
                      r.digest.records == rerun.digest.records;
  out << "    {\n"
      << "      \"key\": \"" << r.key << "\",\n"
      << "      \"protocol\": \"" << spec.protocol << "\",\n"
      << "      \"nodes\": " << spec.nodes << ",\n"
      << "      \"mobility\": \"" << spec.mobility << "\",\n"
      << "      \"traffic\": \"" << (spec.on_off ? "onoff" : "cbr") << "\",\n"
      << "      \"fault\": \"" << spec.fault_label << "\",\n"
      << "      \"seed\": " << spec.seed << ",\n"
      << "      \"sent\": " << r.sent << ",\n"
      << "      \"received\": " << r.received << ",\n"
      << "      \"pdr\": " << r.pdr << ",\n"
      << "      \"latency_mean_ms\": " << r.latency_mean_ms << ",\n"
      << "      \"latency_p50_ms\": " << r.latency_p50_ms << ",\n"
      << "      \"latency_p99_ms\": " << r.latency_p99_ms << ",\n"
      << "      \"latency_max_ms\": " << r.latency_max_ms << ",\n"
      << "      \"control_frames\": " << r.control_frames << ",\n"
      << "      \"control_bytes\": " << r.control_bytes << ",\n"
      << "      \"control_bytes_per_delivery\": "
      << r.control_bytes_per_delivery << ",\n"
      << "      \"convergence_ms\": " << r.convergence_ms << ",\n"
      << "      \"invariant_violations\": " << r.invariant_violations << ",\n"
      << "      \"loop_violations\": " << r.loop_violations << ",\n"
      << "      \"invalid_next_hop_violations\": "
      << r.invalid_next_hop_violations << ",\n"
      << "      \"asymmetric_link_violations\": "
      << r.asymmetric_link_violations << ",\n"
      << "      \"journal_records\": " << r.digest.records << ",\n"
      << "      \"digest_ordered\": \"" << hex(r.digest.ordered) << "\",\n"
      << "      \"digest_canonical\": \"" << hex(r.digest.canonical) << "\",\n"
      << "      \"rerun_digest_ordered\": \"" << hex(rerun.digest.ordered)
      << "\",\n"
      << "      \"digest_stable\": " << (stable ? "true" : "false") << "\n"
      << "    }";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  CellSpec base;
  base.nodes = 50;
  base.flows = 10;
  base.warmup = mk::sec(5);
  base.duration = quick ? mk::sec(10) : mk::sec(30);

  const std::vector<std::string> protocols = {"olsr", "dymo", "aodv", "zrp",
                                              "gpsr"};
  const std::vector<std::string> mobilities = {"random_waypoint",
                                               "gauss_markov"};
  const std::vector<bool> loads = {false, true};  // cbr, onoff
  // Fault-plan times are relative to traffic start (end of warmup).
  const std::vector<std::pair<std::string, std::string>> faults = {
      {"none", ""},
      {"stress",
       "at 3s loss 0.3 for 2s\n"
       "at 8s partition 0 1 2 3 4 | 5 6 7 8 9\n"
       "at 12s heal\n"
       "at 15s drift 3 1.4 for 5s\n"
       "at 15s drift 7 0.6 for 5s\n"},
  };

  const auto cells = mk::testbed::scenario::expand_matrix(
      base, protocols, mobilities, loads, faults, {env_seed()});

  std::ofstream file;
  if (!out_path.empty()) file.open(out_path);
  std::ostream& out = out_path.empty() ? std::cout : file;

  out << "{\n"
      << "  \"bench\": \"scenario_matrix\",\n"
      << "  \"seed\": " << env_seed() << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"cells\": [\n";

  std::size_t unstable = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& spec = cells[i];
    std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1, cells.size(),
                 mk::testbed::scenario::cell_key(spec).c_str());
    const CellResult first = mk::testbed::scenario::run_cell(spec);
    const CellResult rerun = mk::testbed::scenario::run_cell(spec);
    if (first.digest.ordered != rerun.digest.ordered) ++unstable;
    emit_cell(out, spec, first, rerun);
    out << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";

  std::fprintf(stderr, "%zu cells, %zu digest-unstable\n", cells.size(),
               unstable);
  return unstable == 0 ? 0 : 1;
}
