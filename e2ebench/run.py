#!/usr/bin/env python3
"""End-to-end benchmark of skyferry: one command, four workloads.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the C++ driver from source into
.bench_build/e2ebench on first use, runs one workload in one driver
process (threads = 1), checks its outputs, prints every metric by name
and unit, and ends with one JSON result line. --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones from
a separate traced run. See e2ebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
DRIVER = os.path.join(BUILD_DIR, "e2ebench_driver")
BUILD_TIMEOUT_S = 840
DRIVER_TIMEOUT_S = 170

# Checks whose detail is worth printing on success too.
REPORTED_CHECKS = ("survival_within_ci", "served_within_2pct_of_exact")

# How each workload names its unit of work, for the human-readable
# aliases of the generic end-to-end metrics.
ALIASES = {
    "fleet_wifi_dense": ("UAV-step", "sweep"),
    "fleet_multilink_chaos": ("UAV-step", "sweep"),
    "decide_serve": ("decision", "batch"),
    "mc_campaign": ("trial", "trial"),
}


def fail(msg, code=1):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)
    names = {w["name"] for w in spec["workloads"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        benchlib.check_name(m["name"])
    return spec, names


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no skyferry sources under {ROOT}/src; run from a full checkout", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "e2ebench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "e2ebench_driver"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                fail(f"build failed (exit {rc}); see {log_path}")


def run_driver(args):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"driver exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no report")
    return json.loads(lines[-1])


def print_aliases(workload, e2e):
    item, op = ALIASES[workload]
    rate = e2e["items_per_s"]
    print(f"  = {1e9 / rate:.4f} ns per {item}  ({rate:.6g} {item}s/s)")
    print(f"  = {op} latency p50 {e2e['op_p50_us']:.4f} us, p99 {e2e['op_p99_us']:.4f} us")


def main():
    spec, workloads = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    t0 = time.monotonic()
    build()
    build_s = time.monotonic() - t0
    raw = run_driver(args)

    print(f"# e2ebench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (build/check {build_s:.1f} s)")
    for c in raw["checks"]:
        if c["name"] in REPORTED_CHECKS:
            print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    result, problems = benchlib.summarize(raw, spec, args.trace)
    if problems:
        for p in problems:
            print(f"e2ebench: {p}", file=sys.stderr)
        print(json.dumps(result))
        sys.exit(1)

    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_failed_frac = 0 (0 of {raw['attempted']} operations failed)")
    if not args.trace:
        print_aliases(args.workload, {k: m["value"] for k, m in result["metrics"].items()})
        counts = benchlib.end_to_end_metrics(raw)[1]
        replicas = int(raw["values"].get("replicas", 1))
        print(f"  samples: {counts['ops']} ops, each best of {counts['timed_passes']} timed "
              f"passes in {replicas} replica(s) (p99 over {counts['samples']} samples); "
              f"setup_s median of {counts['setups']} set-ups")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
