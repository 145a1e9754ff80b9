// Digest self-test for the benchmark harness:
//  * a traced episode of each workload reproduces the untraced episode's
//    simulated outcome, ordered journal digest included, so the ledger's
//    spans observe the program without perturbing it;
//  * an untraced episode of each fault-free workload, its traffic started
//    right after warmup, reproduces scenario::run_cell's digest for the same
//    CellSpec, so the harness runs the committed scenario cells and not a
//    look-alike.
// Exits non-zero on the first mismatch.
#include <cstdio>

#include "testbed/scenario/scenario.hpp"
#include "util/log.hpp"
#include "worlds.hpp"

namespace {

// Any run seed: its second episode starts traffic off the step grid.
constexpr std::uint64_t kRunSeed = 7;

int failures = 0;

void check(bool ok, const char* what, const std::string& workload) {
  std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", workload.c_str(), what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  mk::log::set_level(mk::log::Level::kError);
  for (const perfbench::Workload& w : perfbench::workloads()) {
    const mk::Duration offset = perfbench::traffic_offset(
        kRunSeed, 1, static_cast<std::size_t>(w.episodes));
    const auto plain = perfbench::run_episode(w, offset, false);
    const auto traced = perfbench::run_episode(w, offset, true);
    check(plain.received > 0, "packets delivered", w.name);
    check(plain.enact_failures == 0, "every enactment committed", w.name);
    check(perfbench::same_outcome(plain, traced),
          "traced run has the untraced outcome and ordered digest", w.name);
    check(traced.codec_roundtrip_ok, "sampled payloads round-trip the codec",
          w.name);
    if (!w.cell.fault_plan.empty()) continue;

    const auto reference = mk::testbed::scenario::run_cell(w.cell);
    const auto aligned = perfbench::run_episode(w, mk::Duration{0}, false);
    check(reference.digest.ordered == aligned.digest.ordered &&
              reference.digest.records == aligned.digest.records &&
              reference.sent == aligned.sent &&
              reference.received == aligned.received,
          "reproduces run_cell's digest for its CellSpec", w.name);
  }
  return failures == 0 ? 0 : 1;
}
