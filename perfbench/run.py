#!/usr/bin/env python3
"""StegFS benchmark: builds stegbench from source and runs one workload.

  python3 perfbench/run.py --workload hidden_hot --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The program (perfbench/stegbench.cc) is built
with CMake into $CARGO_TARGET_DIR (default .bench_build) under the root.
Each workload runs in a fresh process. Human-readable lines come first;
the last line of stdout is the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end_to_end metrics of BENCHMARK.json for --trace 0 and its
per_layer metrics for --trace 1. --out FILE appends the program's full
result (every metric, sample counts, host descriptor) as one JSON line, the
input format of perfbench/compare.py; --runs N repeats with seeds
seed, seed+1, ... (fresh process each).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures (once) and builds stegbench; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "stegbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "stegbench"), build_dir


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "%s-seed%d.trace.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              universal_newlines=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (workload, seed), 1)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("%s seed %d exited %d without a result"
             % (workload, seed, proc.returncode), 1)
    return lines[:-1], json.loads(lines[-1]), proc.returncode


def print_metrics(title, metrics):
    print("# %s" % title)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed phase length (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", help="append full results (JSON lines) here")
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                 ", ".join(names)))
    seconds = args.seconds or bench["run_seconds"]
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    binary, build_dir = build()
    status = 0
    results = []
    for run in range(args.runs):
        seed = args.seed + run
        for w in workloads:
            lines, res, rc = run_workload(binary, build_dir, w, seed, seconds,
                                        args.trace)
            for line in lines:
                print(line)
            print("# host: " + json.dumps(res["descriptor"]))
            print("# samples per op: " + json.dumps(res["samples"]))
            print_metrics("%s end-to-end, as measured" % w, res["raw"])
            print_metrics("%s end-to-end, timings scaled to the nominal host "
                          "speed (probes: compute %.2f us set-up, %.2f us "
                          "timed; decrypt %.2f us, stream_read %.2f us timed)"
                          % (w, res["probe_us"]["setup"],
                             res["probe_us"]["timed"],
                             res["probe_us"]["timed_decrypt"],
                             res["probe_us"]["timed_stream_read"]),
                          res["end_to_end"])
            if args.trace:
                print_metrics("%s per-layer (traced phase)" % w,
                              res["per_layer"])
            if args.out:
                res["trace"] = args.trace
                with open(args.out, "a") as f:
                    f.write(json.dumps(res) + "\n")
            source = res["per_layer" if args.trace else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in source]
            if missing:
                fail("%s reported no %s" % (w, ", ".join(missing)), 1)
            status = status or rc
            results.append((res, source))
    if len(results) == 1:
        res, source = results[0]
        print(json.dumps({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: source[m["name"]] for m in wanted},
        }))
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
