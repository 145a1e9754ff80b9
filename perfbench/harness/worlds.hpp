// The benchmark's protocol worlds: three seeded workloads run through
// SimWorld's public API with journal and invariant checking on, either
// untraced (end-to-end numbers) or traced through the outside-in ledger
// (per-layer numbers). A traced run must produce the same ordered journal
// digest as an untraced one: the wrappers observe, they never steer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"
#include "testbed/scenario/scenario.hpp"
#include "util/time.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// World, traffic and timing. Its seed (placement and motion) stays the
  /// committed cells' 1234, so a world's cost compares from commit to commit.
  mk::testbed::scenario::CellSpec cell;
  /// Supervision, checkpoint replication and the rolling reconfiguration
  /// schedule (each step enacts on a tenth of the fleet).
  bool reconfig = false;
  /// Episodes per pass, each starting its traffic at its own seeded offset:
  /// the cost of a world depends on how its timers line up, so a run pools
  /// several alignments rather than letting one decide the figures.
  int episodes = 1;
  /// Rounds of the post-window enactment probe (steady-state workloads,
  /// which do not reconfigure in their window).
  int probe_rounds = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The run seed's input to an episode: how long after warmup the traffic
/// starts. It shifts every packet against the protocols' timers and the
/// mobility steps, so outcomes and digests differ per seed while the world
/// stays the same map. A world's cost depends on that offset, so episode
/// `episode` of `episodes` draws it from its own equal slice of the second
/// after warmup, and every run covers the whole second evenly.
mk::Duration traffic_offset(std::uint64_t run_seed, std::size_t episode,
                            std::size_t episodes);

struct EpisodeResult {
  // Simulated outcomes: identical on every run of one (workload, seed).
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t control_bytes = 0;
  std::vector<double> latencies_ms;
  /// Invariant violations by kind: loop, invalid next hop, asymmetric link.
  std::array<std::uint64_t, 3> violations{};
  mk::obs::Journal::DigestSnapshot digest;
  std::uint64_t enactments = 0;
  std::uint64_t enact_failures = 0;  // threw or rolled back

  // Wall clock and allocator.
  double setup_s = 0.0;       // world build + deploy + warmup (not the offset)
  double window_s = 0.0;      // traffic window + drain
  /// The window's wall time step by step (the drain is the last entry).
  std::vector<double> step_s;
  double sim_window_s = 0.0;  // simulated seconds in that wall window
  std::vector<double> enact_us;
  std::uint64_t window_allocs = 0;

  /// Traced episodes only: raw per-layer amounts over the window, keyed by
  /// metric name (counts and milliseconds, which the caller turns into
  /// rates, plus the codec timings over sampled control payloads).
  /// Untraced episodes leave it empty.
  std::map<std::string, double> layers;
  /// Every sampled payload round-tripped the codec byte for byte.
  bool codec_roundtrip_ok = true;
};

/// Runs the workload's world once. A zero offset reproduces
/// scenario::run_cell for the workload's cell.
EpisodeResult run_episode(const Workload& workload, mk::Duration traffic_offset,
                          bool traced);

/// Same outcome, bit for bit, in every simulated field (digest included).
bool same_outcome(const EpisodeResult& a, const EpisodeResult& b);

}  // namespace perfbench
