#!/usr/bin/env bash
# Runs the micro hot-path benchmarks and records the results (plus the
# pre-zero-copy baseline measured on the same container class) in
# BENCH_hotpaths.json at the repo root.
#
# Also enforces the steady-state allocation budget: BM_OlsrWorldSecond/1
# (traced 5-node OLSR world, pooled memory backend) must stay within
# MK_ALLOC_BUDGET allocs/op (default 50) plus 10% headroom, or the script
# exits non-zero — the CI-facing regression gate for the arena/pool layer.
# A second gate holds the timer wheel to its oracle: BM_SchedulerHoldBurst/0
# (wheel) may not be slower than BM_SchedulerHoldBurst/1 (ordered map) in
# the same run. A third holds the OLSR route calculator's memo to an O(1)
# check: BM_OlsrRecompute/0 (unchanged inputs) must be at least 20x faster
# than BM_OlsrRecompute/1 (one TC set changed, a full recompute). A fourth holds
# the medium to one scheduler event per broadcast: BM_BroadcastFanout/32
# must run one timer fire per op and allocate nothing. A fifth holds DYMO's
# learn path at zero allocations per op, both for a same-info refresh
# (BM_DymoLearn/0) and for a learn that replaces every route (/1). A sixth
# holds the Framework Manager's binding derivation on a warm composition
# (BM_Rebind) at zero allocations per op. A seventh holds the System CF's
# receive path, one RM broadcast decoded once for 32 DYMO receivers
# (BM_ControlRx/32), at zero allocations per op.
#
# The report records its provenance: the build type and compiler of the
# bench binary, the git SHA of the checkout, the host's CPU count, and the
# size of src/ (non-comment and raw line counts, as table3_code_reuse from
# the same build dir counts them).
#
# Usage: bench/run_hotpaths.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bench_bin="$build_dir/bench/micro_hotpaths"
table3_bin="$build_dir/bench/table3_code_reuse"

for bin in "$bench_bin" "$table3_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build_dir --target $(basename "$bin"))" >&2
    exit 1
  fi
done

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
"$bench_bin" --benchmark_min_time=0.05 --benchmark_format=json > "$raw"
src_size="$("$table3_bin" | tail -n 2)"

git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ -n "$(git -C "$repo_root" status --porcelain 2>/dev/null)" ]]; then
  git_sha="$git_sha-dirty"
fi

# Pre-zero-copy numbers (same bench, commit before the shared-payload / COW /
# single-allocation-serialize change), kept here so the report always carries
# its reference point.
python3 - "$raw" "$repo_root/BENCH_hotpaths.json" "$git_sha" "$src_size" <<'EOF'
import json
import os
import sys

BASELINE_NS = {
    "BM_PacketBBSerialize/2": 459.1,
    "BM_PacketBBSerialize/8": 459.9,
    "BM_PacketBBSerialize/32": 694.0,
    "BM_PacketBBParse/2": 329.4,
    "BM_PacketBBParse/8": 332.5,
    "BM_PacketBBParse/32": 417.9,
    "BM_EventRouting/1": 137.7,
    "BM_EventRouting/3": 423.4,
    "BM_EventRouting/8": 847.7,
    "BM_MprSelection/8": 10863.7,
    "BM_MprSelection/32": 98454.0,
    "BM_MprSelection/128": 1136201.2,
}

raw = json.load(open(sys.argv[1]))
benches = raw.get("benchmarks", [])
# table3_code_reuse's last two lines end in src/'s non-comment and raw line
# counts.
code_line, raw_line = sys.argv[4].splitlines()

# Benchmarks declare their own display unit (the world-scale ones run in
# milliseconds); normalise everything to nanoseconds so the *_ns columns
# stay truthful.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
for b in benches:
    scale = UNIT_NS[b.get("time_unit", "ns")]
    b["real_time"] *= scale
    b["cpu_time"] *= scale

# The mobile-world scale benches carry their baseline in the same run: the
# reference-backend rerun of the identical seeded scenario. Map
# BM_WorldSecond/N -> BM_WorldSecondRef/N so the report shows the grid
# backend's speedup over the O(n^2) oracle (ISSUE 7 acceptance: >= 10x at
# /1000).
ref_ns = {
    b["name"].replace("BM_WorldSecondRef/", "BM_WorldSecond/"): b["real_time"]
    for b in benches
    if b["name"].startswith("BM_WorldSecondRef/")
}

results = []
for b in benches:
    entry = {
        "name": b["name"],
        "real_time_ns": round(b["real_time"], 1),
        "cpu_time_ns": round(b["cpu_time"], 1),
    }
    for counter in ("allocs_per_op", "fires_per_op", "faults_fired",
                    "pair_evals", "link_flips", "recovered_cycles",
                    "reconverge_us", "rehydrates"):
        if counter in b:
            entry[counter] = round(b[counter], 2)
    if b["name"] in BASELINE_NS:
        entry["baseline_ns"] = BASELINE_NS[b["name"]]
        entry["speedup"] = round(BASELINE_NS[b["name"]] / b["real_time"], 2)
    elif b["name"] in ref_ns:
        entry["baseline_ns"] = round(ref_ns[b["name"]], 1)
        entry["speedup"] = round(ref_ns[b["name"]] / b["real_time"], 2)
    results.append(entry)

report = {
    "bench": "micro_hotpaths",
    "note": "zero-copy hot path: shared frame payloads, COW event messages, "
            "single-allocation PacketBB serialization. baseline_ns columns "
            "are the pre-change numbers for the same benchmark. "
            "BM_OlsrWorldSecond/2 adds an armed-but-idle fault plan on top "
            "of tracing (/1): the delta between the two is the fault "
            "injection overhead when no faults fire. "
            "BM_OlsrWorldSecond/3 additionally routes every dispatch "
            "through the supervision guard with all units healthy: the "
            "delta over /2 is the armed-idle supervision budget "
            "(acceptance bar: within 2%). "
            "BM_OlsrWorldSecond/4 reruns the traced workload of /1 on the "
            "ordered-map scheduler backend; the /1-vs-/4 delta is the "
            "hierarchical timer wheel's saving per sim-second now that the "
            "soft-state expiry layer arms per-entry timers (pre-wheel "
            "sweep-loop builds measured ~440 allocs/op on /1). "
            "BM_OlsrWorldSecond/5 reruns the traced workload of /1 with "
            "MemBackend::kHeap, so every pooled acquire (messages, events, "
            "payloads, shared_ptr control blocks) degenerates to plain heap "
            "allocation: the /1-vs-/5 allocs_per_op delta is what the "
            "arena/pool layer removes per sim-second (pre-pool builds "
            "measured ~385 allocs/op on /1; the budget gate holds /1 at "
            "<= 50 +10%). "
            "BM_WorldSecond/{100,1000} steps a RandomWaypoint world one "
            "sim-second on the spatial-hash grid topology backend; its "
            "baseline_ns column is BM_WorldSecondRef (the exhaustive O(n^2) "
            "oracle on the same seed), so `speedup` is grid-vs-reference "
            "(acceptance bar: >= 10x at /1000). pair_evals/link_flips come "
            "from the medium's counters. BM_QuarantineChurn/50 cycles a "
            "rotating victim's MPR CF through a full supervision "
            "trip/quarantine/restart/recover ladder on a 50-node OLSR grid. "
            "BM_CrashReconverge/{none,checkpoint} crash a mid-grid relay in "
            "a 50-node OLSR world (full crash: S elements wiped, kernel "
            "table cleared, 2s dark) and report `reconverge_us`, the sim "
            "time from restart until the relay again routes to all 49 "
            "peers; `none` cold-starts while `checkpoint` rehydrates from "
            "1-hop peer replicas (`rehydrates` counts applied offers), so "
            "the none-vs-checkpoint reconverge_us gap is the replication "
            "layer's crash-recovery win. "
            "BM_PacketBBParseInto/{2,8,32} times parse_into on one reused "
            "scratch packet (BM_PacketBBParse keeps the allocating parse for "
            "its baseline). "
            "BM_ControlRx/{1,8,32} broadcasts one serialized 8-hop DYMO RREQ "
            "to k Manetkit nodes running DYMO: the payload is decoded once "
            "and its messages shared by all k receivers, each of which drops "
            "it as a duplicate (gated at zero allocations per op on /32). "
            "BM_SchedulerHoldBurst/{0,1} advances one sim-second of DYMO-style "
            "hold bursts (750 timers armed at exactly now + 5 s every 250 ms, "
            "~15k pending) on the timer wheel (/0) and the ordered-map oracle "
            "(/1); the script fails if /0 is slower than /1. "
            "BM_OlsrRecompute/{0,1} re-runs node 0's OLSR route recompute in "
            "a converged, frozen 50-node Gauss-Markov world: /0 with unchanged "
            "inputs (the memoised no-op a same-set TC refresh triggers), /1 "
            "with one origin's TC set flipped every iteration (a full Dijkstra "
            "and kernel-table sync); the script fails unless /0 is at least "
            "20x faster. "
            "BM_BroadcastFanout/{2,8,32} reports fires_per_op, the scheduler "
            "events one broadcast costs: the medium parks the frame and its "
            "k receivers in one slot under one event, so the script fails "
            "unless /32 runs exactly one fire and zero allocations per op. "
            "BM_DymoLearn/{0,1} feeds an 8-hop accumulated RREQ (nine "
            "routes) to ReHandler::learn on a node holding 200 DYMO routes: "
            "/0 replays it (every hop a same-info refresh, gated at zero "
            "allocations per op), /1 bumps every seqnum per iteration (every "
            "hop replaces its route and emits ROUTE_FOUND, also gated at zero "
            "allocations per op). "
            "BM_Enactment/{0..5} times one op of perfbench's rolling "
            "reconfiguration schedule (multipath apply/remove, optimised "
            "flooding apply/remove, dymo->aodv, aodv->dymo) on the centre "
            "node of a warm 3x3 DYMO grid with supervision and checkpoint "
            "replication; each iteration runs the whole cycle, timing only "
            "op k. BM_Rebind re-derives that node's event bindings (gated at "
            "zero allocations per op).",
    "provenance": {
        "build_type": raw.get("context", {}).get("mk_build_type"),
        "compiler": raw.get("context", {}).get("mk_compiler"),
        "git_sha": sys.argv[3],
        "nproc": os.cpu_count(),
        "src_code_lines": int(code_line.split()[-1]),
        "src_raw_lines": int(raw_line.split()[-1]),
    },
    "context": raw.get("context", {}),
    "results": results,
}
json.dump(report, open(sys.argv[2], "w"), indent=2)
print(f"wrote {sys.argv[2]} ({len(results)} benchmarks)")

# Allocation-budget gate: the pooled steady state (BM_OlsrWorldSecond/1) may
# not creep past budget + 10% headroom. The gate lives here (not only in the
# alloc-labelled ctest suite) so a plain bench refresh fails loudly too.
GATE = "BM_OlsrWorldSecond/1"
budget = float(os.environ.get("MK_ALLOC_BUDGET", "50"))
ceiling = budget * 1.10
gated = [e for e in results if e["name"] == GATE]
if not gated:
    print(f"error: allocation gate benchmark {GATE} missing from run",
          file=sys.stderr)
    sys.exit(1)
measured = gated[0].get("allocs_per_op")
if measured is None:
    print(f"error: {GATE} reported no allocs_per_op counter", file=sys.stderr)
    sys.exit(1)
if measured > ceiling:
    print(f"error: {GATE} measured {measured} allocs/op, over the "
          f"{budget} budget (+10% headroom = {ceiling:.1f})", file=sys.stderr)
    sys.exit(1)
print(f"alloc gate: {GATE} at {measured} allocs/op "
      f"(budget {budget}, ceiling {ceiling:.1f})")

# Scheduler gate: under hold-burst piles the wheel must not lose to the
# ordered-map oracle it replaces.
times = {e["name"]: e["real_time_ns"] for e in results}
wheel = times.get("BM_SchedulerHoldBurst/0")
oracle = times.get("BM_SchedulerHoldBurst/1")
if wheel is None or oracle is None:
    print("error: BM_SchedulerHoldBurst/{0,1} missing from run",
          file=sys.stderr)
    sys.exit(1)
if wheel > oracle:
    print(f"error: BM_SchedulerHoldBurst/0 (wheel) took {wheel / 1e6:.3f} ms, "
          f"slower than /1 (ordered map) at {oracle / 1e6:.3f} ms",
          file=sys.stderr)
    sys.exit(1)
print(f"scheduler gate: wheel {wheel / 1e6:.3f} ms vs ordered map "
      f"{oracle / 1e6:.3f} ms per sim-second")

# Route-memo gate: a recompute with unchanged inputs is an O(1) stamp check,
# so it must beat a full one by at least MEMO_SPEEDUP.
MEMO_SPEEDUP = 20
memo = times.get("BM_OlsrRecompute/0")
full = times.get("BM_OlsrRecompute/1")
if memo is None or full is None:
    print("error: BM_OlsrRecompute/{0,1} missing from run", file=sys.stderr)
    sys.exit(1)
if memo * MEMO_SPEEDUP > full:
    print(f"error: BM_OlsrRecompute/0 (unchanged inputs) took {memo:.0f} ns, "
          f"not {MEMO_SPEEDUP}x faster than /1 (one TC set changed) at "
          f"{full:.0f} ns", file=sys.stderr)
    sys.exit(1)
print(f"route-memo gate: unchanged {memo:.0f} ns vs full recompute "
      f"{full:.0f} ns ({full / memo:.1f}x, need {MEMO_SPEEDUP}x)")

# Medium gate: one broadcast is one scheduler event, allocation-free.
by_name = {e["name"]: e for e in results}
fanout = by_name.get("BM_BroadcastFanout/32")
if fanout is None:
    print("error: BM_BroadcastFanout/32 missing from run", file=sys.stderr)
    sys.exit(1)
if fanout.get("fires_per_op") != 1.0 or fanout.get("allocs_per_op") != 0.0:
    print(f"error: BM_BroadcastFanout/32 ran {fanout.get('fires_per_op')} "
          f"timer fires and {fanout.get('allocs_per_op')} allocations per "
          "broadcast (want 1 and 0)", file=sys.stderr)
    sys.exit(1)
print("medium gate: BM_BroadcastFanout/32 at 1 fire, 0 allocs per broadcast")

# Learn-path gate: learning nine routes allocates nothing, whether every hop
# is a same-info refresh (/0) or replaces its route and emits ROUTE_FOUND
# (/1).
for name in ("BM_DymoLearn/0", "BM_DymoLearn/1"):
    learn = by_name.get(name)
    if learn is None:
        print(f"error: {name} missing from run", file=sys.stderr)
        sys.exit(1)
    if learn.get("allocs_per_op") != 0.0:
        print(f"error: {name} measured {learn.get('allocs_per_op')} "
              "allocs/op (want 0)", file=sys.stderr)
        sys.exit(1)
print("learn gate: BM_DymoLearn/0 and /1 at 0 allocs per op")

# Rebind gate: re-deriving a warm composition's bindings refills the
# per-type tables in place, so it allocates nothing.
rebind = by_name.get("BM_Rebind")
if rebind is None:
    print("error: BM_Rebind missing from run", file=sys.stderr)
    sys.exit(1)
if rebind.get("allocs_per_op") != 0.0:
    print(f"error: BM_Rebind measured {rebind.get('allocs_per_op')} "
          "allocs/op (want 0)", file=sys.stderr)
    sys.exit(1)
print("rebind gate: BM_Rebind at 0 allocs per op")

# Receive gate: one broadcast payload is decoded once, into pooled messages
# its receivers share, so delivering it to 32 receivers allocates nothing.
rx = by_name.get("BM_ControlRx/32")
if rx is None:
    print("error: BM_ControlRx/32 missing from run", file=sys.stderr)
    sys.exit(1)
if rx.get("allocs_per_op") != 0.0:
    print(f"error: BM_ControlRx/32 measured {rx.get('allocs_per_op')} "
          "allocs/op (want 0)", file=sys.stderr)
    sys.exit(1)
print("receive gate: BM_ControlRx/32 at 0 allocs per op")
EOF
