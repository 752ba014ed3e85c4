#!/usr/bin/env python3
"""Wall-clock benchmark of the EEB system.

Run from the root of a source tree:

    python3 perfbench/run.py --workload hco-hff-128d --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and prints as its last line of
standard output one JSON object: correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Progress and build output go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Every size the binary uses is given here, on its command line.
COMMON = {
    "pool": 400,  # distinct queries of the Zipf-0.8 generator
    "history": 1000,  # query log WL the cache is built from
    "stream": 8000,  # test stream the clients cycle through
    "k": 10,
    # Query logs per run, each with its own set-up and an equal share of the
    # measured seconds; setup_s is the median of their set-ups.
    "populations": 3,
    "warmup-queries": 300,
    "recall-sample": 50,
    "bound-sample": 20,
}

# name -> points, dimensions, value domain, cache share of the raw point
# bytes (n * dim * 4) in percent, LRU (1) or static HFF fill (0).
WORKLOADS = {
    "hco-hff-128d": (200000, 128, 1024, 10, 0, 103),
    "hco-lru-128d": (200000, 128, 1024, 3, 1, 103),
    "hco-hff-960d": (50000, 960, 1024, 10, 0, 104),
}

# Stated tolerance of the trace reconciliation: the layer self times must sum
# to the query spans within this share.
RECONCILE_TOLERANCE = 0.01

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no EEB sources under %s/src" % root)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "eeb_perfbench")


def check_spans(path, metrics):
    """Recomputes the layer times from the span dump and reconciles them."""
    queries = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            queries.setdefault(s["query"], []).append(s)
    if not queries:
        fail("empty span dump")
    span_ns = self_ns = 0
    busy = {}
    calls = {}
    for spans in queries.values():
        root = [s for s in spans if s["parent"] is None]
        if len(root) != 1:
            fail("query %d has %d query spans" % (spans[0]["query"], len(root)))
        root = root[0]
        span_ns += root["end_ns"] - root["start_ns"]
        self_ns += root["busy_ns"]
        for s in spans:
            if s is root:
                continue
            if s["parent"] != root["id"]:
                fail("span %d has a foreign parent" % s["id"])
            if s["start_ns"] < root["start_ns"] or s["end_ns"] > root["end_ns"]:
                fail("span %d lies outside its query span" % s["id"])
            busy[s["name"]] = busy.get(s["name"], 0) + s["busy_ns"]
            calls[s["name"]] = calls.get(s["name"], 0) + s["calls"]
    n = len(queries)
    err = abs(self_ns + sum(busy.values()) - span_ns) / span_ns
    if err > RECONCILE_TOLERANCE:
        fail("layer self times miss the query spans by %.4f" % err)
    recomputed = {
        "core.query_ms": span_ns / n / 1e6,
        "core.self_ms": self_ns / n / 1e6,
        "index.candidates_ms": busy.get("index.candidates", 0) / n / 1e6,
        "cache.probe_ms": busy.get("cache.probe", 0) / n / 1e6,
        "cache.admit_ms": busy.get("cache.admit", 0) / n / 1e6,
        "storage.read_ms": busy.get("storage.read", 0) / n / 1e6,
        "cache.probes": calls.get("cache.probe", 0) / n,
        "storage.reads": calls.get("storage.read", 0) / n,
    }
    for name, value in recomputed.items():
        got = metrics[name]["value"]
        if abs(got - value) > 1e-6 * max(1.0, abs(value)):
            fail("%s is %r in the report, %r in the span dump"
                 % (name, got, value))
    print("perfbench: %d query spans reconcile within %.2g (tolerance %g)"
          % (n, err, RECONCILE_TOLERANCE), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    binary = build(root, os.path.join(build_root, "perfbench"))

    n, dim, ndom, cache_pct, lru, data_seed = WORKLOADS[args.workload]
    work = os.path.join(build_root, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-seed", str(data_seed), "--n", str(n), "--dim", str(dim), "--ndom", str(ndom),
           # C2LSH stops at k + beta candidates; beta scales with n as in
           # the repository's bench harness.
           "--beta", str(max(100, n // 400)),
           "--clients", str(min(4, len(os.sched_getaffinity(0)))),
           "--cache-bytes", str(n * dim * 4 * cache_pct // 100),
           "--lru", str(lru), "--dir", work]
    for key, value in COMMON.items():
        cmd += ["--" + key, str(value)]
    spans = os.path.join(work, "spans.jsonl")
    if args.trace:
        cmd += ["--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            fail("eeb_perfbench exited with %d" % proc.returncode)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.trace:
            check_spans(spans, report["metrics"])
    except subprocess.TimeoutExpired:
        fail("eeb_perfbench ran past %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m for m in wanted if m not in report["metrics"]]
    if missing:
        fail("metrics missing from the report: " + ", ".join(missing))
    if report["errors"]:
        print("perfbench: " + report["errors"], file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: report["metrics"][m] for m in wanted},
    }))


if __name__ == "__main__":
    main()
