#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is serve, local_read, update_mix or mmap_read, or `all` to run the
four in turn. The last stdout line is one JSON object with the keys
correct / attempted / failed / metrics; the exit code is non-zero when any
answer check failed or the benchmark could not be built.

    python3 perfbench/run.py --self-test     # tiny sizes, seconds per workload
    python3 perfbench/run.py --workload local_read --seed 1 --overhead

--self-test checks that every metric named in BENCHMARK.json is emitted with
its unit and that a planted wrong answer fails the run. --overhead runs a
workload untraced and traced and prints the difference (tracing overhead).

The driver binary is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
repository root; results and trace spans are written to
$CARGO_TARGET_DIR/out.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Every workload the driver implements. BENCHMARK.json gates serve and
# mmap_read. local_read runs mmap_read's query path without the mapping;
# it is left out of the gate so that the gated runs can be long enough to
# be steady on a shared host. update_mix's post-flush check fails in a few
# percent of runs: a buffered delete that was acknowledged as applied can
# survive the merge (perfbench/README.md). It stays runnable so the
# defect stays visible.
ALL_WORKLOADS = ["serve", "local_read", "update_mix", "mmap_read"]


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", out, "-j",
                          str(os.cpu_count() or 1), "--target", "perfbench"])
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=840).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    print(f"perfbench: {cmd[0]} failed: {e}", file=sys.stderr)
                    rc = 1
                if rc != 0:
                    log.flush()
                    with open(log_path) as f:
                        tail = f.read()[-4000:]
                    print(f"perfbench: build failed (log {log_path}):\n{tail}",
                          file=sys.stderr)
                    return None
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(build_root(), "out"), *extra]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = p.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, lines, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(binary):
    """Tiny runs of every workload, traced and untraced, plus a planted
    wrong answer; returns the number of problems found."""
    spec = load_spec()
    problems = 0
    tiny = ["--n", "3000", "--setup-reps", "1"]
    # serve's call-reply phase answers only about 46 requests a second;
    # it needs a few seconds to see its 5% of kNN queries.
    seconds = {"serve": 8}
    for name in ALL_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, _, res = run_one(binary, name, 1, seconds.get(name, 1), trace, tiny)
            if rc != 0 or res is None or not res.get("correct"):
                print(f"FAIL {name} trace={trace}: exit {rc}, result {res}")
                problems += 1
                continue
            got = res["metrics"]
            for m in spec[key]:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"]:
                    print(f"FAIL {name} trace={trace}: {m['name']} "
                          f"missing or wrong unit: {entry}")
                    problems += 1
                elif key == "end_to_end" and not entry["value"] > 0:
                    print(f"FAIL {name}: end-to-end {m['name']} is "
                          f"{entry['value']}, must be positive")
                    problems += 1
            extra_names = set(got) - {m["name"] for m in spec[key]}
            if extra_names:
                print(f"FAIL {name} trace={trace}: unlisted {sorted(extra_names)}")
                problems += 1
            print(f"ok   {name} trace={trace}: {len(got)} metrics")
    for name in ALL_WORKLOADS:
        rc, _, res = run_one(binary, name, 2, 1, 0, tiny + ["--plant-wrong"])
        if rc == 0 or res is None or res.get("correct") or res.get("failed", 0) < 1:
            print(f"FAIL planted wrong answer in {name} was not caught: "
                  f"exit {rc}, result {res}")
            problems += 1
        else:
            print(f"ok   planted wrong answer in {name} caught "
                  f"(failed {res['failed']} of {res['attempted']})")
    print("self-test", "passed" if problems == 0 else f"FAILED ({problems})")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--overhead", action="store_true",
                    help="run untraced and traced, print the difference")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return 1 if self_test(binary) else 0
    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds != int(args.seconds) else int(args.seconds)

    if args.overhead:
        _, _, plain = run_one(binary, args.workload, args.seed, seconds, 0)
        _, _, traced = run_one(binary, args.workload, args.seed, seconds, 1)
        if plain is None or traced is None:
            return 1
        pm, tm = plain["metrics"], traced["metrics"]
        for a, b in (("point_p50_us", "traced.point_p50_us"), ("qps", "traced.qps")):
            x, y = pm[a]["value"], tm[b]["value"]
            print(f"{a}: untraced {x:.4g}, traced {y:.4g}, "
                  f"difference {y - x:+.4g} ({(y - x) / x:+.2%})")
        return 0

    names = ALL_WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        rc, lines, res = run_one(binary, name, args.seed, seconds, args.trace)
        if res is None:
            print(f"perfbench: {name} printed no result (exit {rc})", file=sys.stderr)
            return rc or 1
        if len(names) == 1:
            print("\n".join(lines))
            return rc
        for line in lines[:-1]:
            print(line)
        for metric, v in res["metrics"].items():
            print(f"{name:<11} {metric:<32} {v['value']:>14.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] = combined["correct"] and bool(res["correct"])
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        status = status or rc
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
