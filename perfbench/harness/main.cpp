// perfbench: wall cost of a simulated second of a complete protocol world.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run pools the workload's episodes: its world, with the traffic started
// at a different offset in each (drawn from --seed, one per stratum of the
// second after warmup). --trace 0 runs the episodes untraced, repeating them
// until --seconds have passed, and prints the end-to-end metrics. --trace 1
// runs each once untraced and once through the ledger and prints the
// per-layer metrics. Every repeat and every traced episode must reproduce
// the first pass's simulated outcome (journal digest included), or the run
// is not correct. The last stdout line is the result object; the line
// before it names the build.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/log.hpp"
#include "util/stats.hpp"
#include "worlds.hpp"

namespace {

using perfbench::EpisodeResult;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const Workload& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    usage("--seconds must be positive and --trace 0 or 1");
  }
  return a;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

double quantile(const std::vector<double>& xs, double q) {
  mk::Samples s;
  for (double x : xs) s.add(x);
  return s.count() == 0 ? 0.0 : s.quantile(q);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// How a per-layer amount pools over a run's episodes.
enum class Pool {
  kRate,  // summed, then divided by the simulated seconds of all windows
  kSum,   // summed
  kMean,  // averaged over episodes
  kMax,   // largest episode value
};

struct LayerSpec {
  std::string name;
  const char* unit;
  Pool pool;
};

std::vector<LayerSpec> layer_specs() {
  std::vector<LayerSpec> specs;
  for (const char* share : {"routing", "neighborhood", "System"}) {
    specs.push_back({std::string("core.deliver.") + share +
                         ".self_ms_per_sim_s",
                     "ms/s", Pool::kRate});
  }
  specs.push_back({"core.deliver.self_ms_per_sim_s", "ms/s", Pool::kRate});
  for (const char* unit :
       {"System", "neighbor", "mpr", "olsr", "dymo", "aodv", "replication"}) {
    specs.push_back({std::string("core.deliver.") + unit + ".calls_per_sim_s",
                     "1/s", Pool::kRate});
  }
  const std::vector<LayerSpec> rest = {
      {"protocols.olsr.tc_in_per_sim_s", "1/s", Pool::kRate},
      {"protocols.dymo.discoveries_per_sim_s", "1/s", Pool::kRate},
      {"protocols.aodv.discoveries_per_sim_s", "1/s", Pool::kRate},
      {"net.kernel.route_changes_per_sim_s", "1/s", Pool::kRate},
      {"obs.journal.records_per_sim_s", "1/s", Pool::kRate},
      {"obs.invariants.self_ms_per_sim_s", "ms/s", Pool::kRate},
      {"obs.invariants.checks_per_sim_s", "1/s", Pool::kRate},
      {"obs.invariants.loops", "count", Pool::kSum},
      {"obs.invariants.invalid_next_hop", "count", Pool::kSum},
      {"obs.invariants.asymmetric", "count", Pool::kSum},
      {"util.scheduler.residual_ms_per_sim_s", "ms/s", Pool::kRate},
      {"util.scheduler.timer_fires_per_sim_s", "1/s", Pool::kRate},
      {"util.scheduler.pending_mean", "count", Pool::kMean},
      {"util.scheduler.pending_max", "count", Pool::kMax},
      {"util.mem.allocs_per_sim_s", "1/s", Pool::kRate},
      {"net.mobility.step_ms_per_sim_s", "ms/s", Pool::kRate},
      {"net.medium.pair_evals_per_sim_s", "1/s", Pool::kRate},
      {"net.medium.link_flips_per_sim_s", "1/s", Pool::kRate},
      {"net.medium.frames_tx_per_sim_s", "1/s", Pool::kRate},
      {"net.medium.frames_rx_per_sim_s", "1/s", Pool::kRate},
      {"net.medium.drops_per_sim_s", "1/s", Pool::kRate},
      {"packetbb.parse_ns_per_frame", "ns", Pool::kMean},
      {"packetbb.serialize_ns_per_frame", "ns", Pool::kMean},
      {"packetbb.bytes_per_frame", "B", Pool::kMean},
      {"core.fm.events_routed_per_sim_s", "1/s", Pool::kRate},
      {"core.fm.dispatches_per_sim_s", "1/s", Pool::kRate},
      {"core.soft_state.expiries_per_sim_s", "1/s", Pool::kRate},
      {"core.reconfig.cf_binds_per_sim_s", "1/s", Pool::kRate},
      {"core.reconfig.replace_attempts", "count", Pool::kSum},
      {"core.reconfig.replace_rollbacks", "count", Pool::kSum},
      {"supervision.guarded_dispatches_per_sim_s", "1/s", Pool::kRate},
      {"supervision.faults", "count", Pool::kSum},
      {"replication.piggybacked_per_sim_s", "1/s", Pool::kRate},
      {"replication.checkpoints_stored_per_sim_s", "1/s", Pool::kRate},
      {"fault.frames_dropped", "count", Pool::kSum},
      {"trace.coverage", "ratio", Pool::kMean},
  };
  specs.insert(specs.end(), rest.begin(), rest.end());
  return specs;
}

struct Totals {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t enactments = 0;
  std::uint64_t enact_failures = 0;
  double sim_s = 0.0;
  std::vector<double> latencies_ms;
};

Totals pool(const std::vector<EpisodeResult>& episodes) {
  Totals t;
  for (const EpisodeResult& e : episodes) {
    t.sent += e.sent;
    t.received += e.received;
    t.control_bytes += e.control_bytes;
    t.enactments += e.enactments;
    t.enact_failures += e.enact_failures;
    t.sim_s += e.sim_window_s;
    t.latencies_ms.insert(t.latencies_ms.end(), e.latencies_ms.begin(),
                          e.latencies_ms.end());
  }
  return t;
}

void print_result(bool correct, const Totals& t,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.sent + t.enactments),
              static_cast<unsigned long long>(t.enact_failures));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) {
    usage(("unknown workload " + args.workload).c_str());
  }
  // Per-violation WARN lines would put log I/O inside the timed window; the
  // checker's hook counts violations by kind instead.
  mk::log::set_level(mk::log::Level::kError);

  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto n = static_cast<std::size_t>(workload->episodes);
  auto episode = [&](std::size_t i, bool traced) {
    return perfbench::run_episode(
        *workload, perfbench::traffic_offset(args.seed, i, n), traced);
  };

  // First pass: the reference outcome of every episode. A traced run pairs
  // each with its traced twin, after one untimed episode that absorbs the
  // process's cold start, so trace.overhead compares warm neighbours.
  std::vector<EpisodeResult> first;
  std::vector<EpisodeResult> traced;
  if (args.trace == 1) episode(0, false);
  for (std::size_t i = 0; i < n; ++i) {
    first.push_back(episode(i, false));
    if (args.trace == 1) traced.push_back(episode(i, true));
  }
  const Totals totals = pool(first);
  bool correct = totals.received > 0 && totals.sent > 0;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Wall-clock figures per episode, one per repeat; each repeat must replay
    // the first pass exactly. Repeats run until the time is up.
    // step_s[episode][repeat][step]
    std::vector<std::vector<std::vector<double>>> step_s(n);
    std::vector<double> setup_s;
    auto keep = [&](std::size_t i, const EpisodeResult& e) {
      step_s[i].push_back(e.step_s);
      setup_s.push_back(e.setup_s);
    };
    for (std::size_t i = 0; i < n; ++i) keep(i, first[i]);
    for (std::size_t rep = 0; elapsed() < args.seconds; ++rep) {
      const std::size_t i = rep % n;
      const EpisodeResult again = episode(i, false);
      correct = correct && perfbench::same_outcome(again, first[i]);
      keep(i, again);
    }
    // A window's wall time is the sum over its steps of each step's median
    // over repeats, which sheds a stall that hit one repeat of one step.
    double wall_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& reps = step_s[i];
      for (std::size_t b = 0; b < reps.front().size(); ++b) {
        std::vector<double> at;
        for (const auto& r : reps) at.push_back(r[b]);
        wall_s += median(at);
      }
    }
    metrics = {
        {"wall_ms_per_sim_s", wall_s * 1e3 / totals.sim_s, "ms/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"pdr", ratio(totals.received, totals.sent), "ratio"},
        {"latency_mean_ms", mean(totals.latencies_ms), "ms"},
        {"control_bytes_per_delivery",
         ratio(totals.control_bytes, totals.received), "B"},
    };
  } else {
    double traced_wall = 0.0;
    double untraced_wall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const EpisodeResult& e = traced[i];
      correct = correct && e.codec_roundtrip_ok &&
                perfbench::same_outcome(e, first[i]);
      traced_wall += e.window_s;
      untraced_wall += first[i].window_s;
    }
    // Allocations and enactment latency come from the untraced pass: the
    // ledger allocates and its spans would add to every enactment.
    std::uint64_t allocs = 0;
    std::vector<double> enact_us;
    for (const EpisodeResult& e : first) {
      allocs += e.window_allocs;
      enact_us.insert(enact_us.end(), e.enact_us.begin(), e.enact_us.end());
    }

    for (const auto& spec : layer_specs()) {
      double value = 0.0;
      if (spec.name == "util.mem.allocs_per_sim_s") {
        value = static_cast<double>(allocs) / totals.sim_s;
      } else {
        for (const EpisodeResult& e : traced) {
          auto it = e.layers.find(spec.name);
          const double v = it == e.layers.end() ? 0.0 : it->second;
          value = spec.pool == Pool::kMax ? std::max(value, v) : value + v;
        }
        if (spec.pool == Pool::kRate) value /= totals.sim_s;
        if (spec.pool == Pool::kMean) value /= static_cast<double>(n);
      }
      metrics.push_back({spec.name, value, spec.unit});
    }
    metrics.push_back(
        {"core.reconfig.enact_p50_us", quantile(enact_us, 0.50), "us"});
    metrics.push_back(
        {"core.reconfig.enact_p99_us", quantile(enact_us, 0.99), "us"});
    metrics.push_back({"core.reconfig.enactments",
                       static_cast<double>(enact_us.size()), "count"});
    metrics.push_back({"trace.overhead", traced_wall / untraced_wall, "ratio"});

    // Every time row of the ledger, per unit too, for the reader (stderr).
    std::map<std::string, double> rows;
    for (const EpisodeResult& e : traced) {
      for (const auto& [name, v] : e.layers) {
        if (name.ends_with("ms_per_sim_s")) {
          rows[name] += v / totals.sim_s;
        }
      }
    }
    for (const auto& [name, v] : rows) {
      std::fprintf(stderr, "ledger %-48s %10.3f ms/s\n", name.c_str(), v);
    }
  }

  std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"episodes\": %d, \"elapsed_s\": %.3f}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, static_cast<int>(n),
              elapsed());
  print_result(correct, totals, metrics);
  return 0;
}
