#!/usr/bin/env bash
# Runs the scenario-matrix shoot-out and records the validated report in
# BENCH_scenarios.json at the repo root.
#
# The validator fails (non-zero exit) when any expected cell is missing,
# any metric is NaN/absent, or any cell's two same-seed runs disagreed on
# the ordered journal digest — a silent hole in the matrix must not look
# like a passing benchmark.
#
# Usage: bench/run_scenarios.sh [build-dir] [--quick]
#   --quick  passes the short measurement window through to the driver (CI)
# Seed: MK_CHAOS_SEED (default 1234).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build"
quick=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick="--quick" ;;
    *) build_dir="$arg" ;;
  esac
done
bench_bin="$build_dir/bench/scenario_matrix"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not built (cmake --build $build_dir --target scenario_matrix)" >&2
  exit 1
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
"$bench_bin" "$raw" $quick

python3 - "$raw" "$repo_root/BENCH_scenarios.json" <<'EOF'
import json
import math
import sys

report = json.load(open(sys.argv[1]))
cells = {c["key"]: c for c in report.get("cells", [])}

PROTOCOLS = ["olsr", "dymo", "aodv", "zrp", "gpsr"]
MOBILITIES = ["random_waypoint", "gauss_markov"]
TRAFFICS = ["cbr", "onoff"]
FAULTS = ["none", "stress"]
NUMERIC = [
    "pdr", "latency_mean_ms", "latency_p50_ms", "latency_p99_ms",
    "latency_max_ms", "control_bytes_per_delivery", "convergence_ms",
]

errors = []
seed = report.get("seed")
for proto in PROTOCOLS:
    for mob in MOBILITIES:
        for traffic in TRAFFICS:
            for fault in FAULTS:
                key = f"{proto}/n50/{mob}/{traffic}/{fault}/s{seed}"
                cell = cells.get(key)
                if cell is None:
                    errors.append(f"missing cell: {key}")
                    continue
                for field in NUMERIC:
                    v = cell.get(field)
                    if v is None or not isinstance(v, (int, float)) \
                            or math.isnan(v) or math.isinf(v):
                        errors.append(f"{key}: {field} missing or NaN ({v!r})")
                kinds = sum(cell.get(k, 0) for k in (
                    "loop_violations", "invalid_next_hop_violations",
                    "asymmetric_link_violations"))
                if kinds != cell.get("invariant_violations"):
                    errors.append(f"{key}: violations by kind sum to {kinds}, "
                                  f"not the total "
                                  f"{cell.get('invariant_violations')}")
                if cell.get("sent", 0) <= 0:
                    errors.append(f"{key}: no traffic sent")
                if not cell.get("digest_stable", False):
                    errors.append(f"{key}: ordered digest differs between "
                                  "same-seed runs")
                # Fault-free cells must actually deliver; faulted cells may
                # legitimately lose everything during a partition.
                if fault == "none" and not (0.0 < cell.get("pdr", 0.0) <= 1.0):
                    errors.append(f"{key}: fault-free PDR out of (0,1]: "
                                  f"{cell.get('pdr')}")

if errors:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    sys.exit(1)

json.dump(report, open(sys.argv[2], "w"), indent=2)
n = len(report["cells"])
stable = sum(1 for c in report["cells"] if c["digest_stable"])
print(f"wrote {sys.argv[2]} ({n} cells, {stable} digest-stable)")
EOF
