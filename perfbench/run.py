#!/usr/bin/env python3
"""Protocol-world benchmark: wall cost per simulated second, plus a ledger.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the MANETKit libraries and the harness from source (Release) under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs the harness and
prints two lines on stdout: the build's provenance, then the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
Exits non-zero, printing no result, when the sources are missing, the build
fails or the harness fails. Workloads and metrics are listed in
BENCHMARK.json; the harness is perfbench/harness/main.cpp.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "perfbench")


def git_revision():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_digest():
    """sha256 over the sources the benchmark builds: identifies a checkout
    that is not a git work tree."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"MANETKit sources not found under {ROOT}/src")
    binary = build(build_dir())

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S}s")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}", done.returncode)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("harness printed no result")
    build_info = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has unexpected keys")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in declared}:
        fail("harness metrics do not match BENCHMARK.json")

    sha, dirty = git_revision()
    release = build_info.get("build_type") == "Release"
    if not release:
        print(f"perfbench: WARNING: {build_info.get('build_type')} build, "
              "not Release; figures are not comparable", file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "build_type": build_info.get("build_type"),
        "release": release,
        "compiler": build_info.get("compiler"),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "episodes": build_info.get("episodes"),
        "elapsed_s": build_info.get("elapsed_s"),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
