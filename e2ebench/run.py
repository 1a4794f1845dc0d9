#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload large --seed 1 --seconds 35 --trace 0

Run from the repository root. The first call configures and builds
dgt_e2ebench (Release) under $CARGO_TARGET_DIR, default .bench_build;
later calls only rebuild what changed. The workload's flags come from
workloads.json, the inputs from --seed.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
untraced and then traced, each for half of --seconds, and prints the
per-layer metrics of the traced run (among them the tracer's own cost,
estimated in process) plus the tracing overhead (traced - untraced) of
the stages' headline metrics. The last stdout line is the
result object; the line before it records the machine, compiler, build
type and source version. Exit code 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170.0

# Tracing overhead is reported on each stage's headline metric.
OVERHEAD_METRICS = {
    "trace.overhead_round_pct": "round_1t_s",
    "trace.overhead_async_round_pct": "async_round_1t_s",
    "trace.overhead_read_p50_pct": "read_p50_us",
    "trace.overhead_freshness_p50_pct": "serve.freshness_p50_ms",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    cmake_dir = os.path.join(build_dir, "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", "dgt_e2ebench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=800)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(cmake_dir, "dgt_e2ebench")


def source_version():
    """Git commit when available, and a digest of every benchmarked source
    file either way (a checkout without .git still gets a version)."""
    commit = None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "cmake", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return commit, digest.hexdigest()


def run_driver(binary, flags, deadline):
    """Runs the driver once; returns its parsed result object or None."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        log("no time left for another driver run")
        return None
    try:
        done = subprocess.run([binary] + flags, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("driver printed no result (exit %d)" % done.returncode)
        return None
    result = json.loads(lines[-1])
    if done.returncode != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log("unknown workload %r (have: %s)" %
            (args.workload, ", ".join(sorted(config["workloads"]))))
        return 2
    params = dict(config["common"], **config["workloads"][args.workload])
    flags = ["--%s=%s" % (k, v) for k, v in sorted(params.items())]
    seconds = args.seconds / 2 if args.trace else args.seconds
    flags += ["--seed=%d" % args.seed, "--seconds=%s" % seconds]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 3
    deadline = time.monotonic() + TIME_LIMIT_S

    untraced = run_driver(binary, flags + ["--trace=0"], deadline)
    if untraced is None:
        return 1
    final = untraced
    metrics = untraced["metrics"]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
        traced = run_driver(
            binary, flags + ["--trace=1", "--trace_out=" + trace_out],
            deadline)
        if traced is None:
            return 1
        metrics = dict(traced["layers"])
        for name, base in OVERHEAD_METRICS.items():
            off = dict(untraced["layers"], **untraced["metrics"]).get(base)
            on = dict(traced["layers"], **traced["metrics"]).get(base)
            if off and on:
                off, on = off["value"], on["value"]
                metrics[name] = {"value": 100.0 * (on - off) / off,
                                 "unit": "%"}
        final = traced
        final["correct"] = final["correct"] and untraced["correct"]
        log("spans written to " + trace_out)

    commit, digest = source_version()
    env = dict(final.get("env", {}), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, commit=commit,
               source_sha256=digest, flags=flags)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": bool(final["correct"]),
                      "attempted": int(final["attempted"]),
                      "failed": int(final["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
