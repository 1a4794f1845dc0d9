#!/usr/bin/env python3
"""Perf-regression smoke check for BENCH_*.json files.

Compares a freshly produced bench JSON against a committed baseline:

  check_bench_baseline.py <baseline.json> <current.json> [--tolerance=0.10]

Point identity: two points match when all their *key* fields are equal.
Field classes:
  - metric fields  : "steps" or names ending in "_steps", "_messages",
    "_nnz", "_queries", "_rounds", "_updates", "_requests", "_served",
    "_refused", "_resets", "_arrivals", "_epochs", "_count" or
    "_sim_time" (the event engines' convergence time is a deterministic
    function of seed/configuration, like a step count) — must
    match the baseline within the relative tolerance (default 10%),
    otherwise the check FAILS. These counts are deterministic per
    seed/configuration, so drift means the algorithm (or the workload)
    changed behaviour.
  - metric fields (cont.): "_errors", "_depth" and "_folds" cover the
    server-side counters dgt_loadgen fetches over the stats RPC —
    error totals, end-of-run queue depth and fold counts are exact
    for the canned schedule.
  - advisory fields: names ending in "_ms" (wall-clock), "_per_sec"
    (rates), "_per_window" (ratios of two gated counts, reported for
    reading), "_mb" (memory), "_rms" (error metrics that go through
    libm) or the latency-percentile suffixes "_p50_us" / "_p99_us" /
    "_p999_us" / "_mean_us" (bench_util.h LatencyRecorder) — reported
    with a ratio but never failing (CI machines are too noisy / libm too
    version-dependent to gate on).
  - key fields     : everything else (n, xi, gclr_threads, readers, ...).

A baseline point with no matching current point fails: silently dropping
a configuration is exactly the kind of regression this check exists to
catch. Current points absent from the baseline are reported but do not
fail — they start being gated once the baseline is regenerated to
include them.
"""

import json
import sys


METRIC_SUFFIXES = ("_steps", "_messages", "_nnz", "_queries", "_rounds",
                   "_updates", "_requests", "_served", "_refused",
                   "_resets", "_arrivals", "_epochs", "_count",
                   "_sim_time",
                   # Server-side counters fetched over the stats RPC
                   # (dgt_loadgen's end-of-run cross-check): error
                   # totals, end-of-run queue depths and fold counts
                   # are deterministic for the canned schedule.
                   "_errors", "_depth", "_folds")
ADVISORY_SUFFIXES = ("_ms", "_per_sec", "_per_window", "_mb", "_rms",
                     "_p50_us", "_p99_us", "_p999_us", "_mean_us")


def classify(name):
    if name == "steps" or name.endswith(METRIC_SUFFIXES):
        return "metric"
    if name.endswith(ADVISORY_SUFFIXES):
        return "advisory"
    return "key"


def key_of(point):
    return tuple(sorted(
        (k, v) for k, v in point.items() if classify(k) == "key"))


def load_points(path):
    with open(path) as f:
        doc = json.load(f)
    points = doc.get("points", [])
    index = {}
    for p in points:
        k = key_of(p)
        if k in index:
            raise SystemExit(f"{path}: duplicate point key {k}")
        index[k] = p
    return doc.get("bench", "?"), index


def main(argv):
    tolerance = 0.10
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        raise SystemExit(__doc__)
    baseline_path, current_path = paths

    bench, baseline = load_points(baseline_path)
    _, current = load_points(current_path)

    failures = []
    print(f"== perf-regression smoke: {bench} "
          f"(tolerance {tolerance:.0%} on step counts) ==")
    for key, bpoint in sorted(baseline.items()):
        cpoint = current.get(key)
        label = ", ".join(f"{k}={v:g}" for k, v in key)
        if cpoint is None:
            failures.append(f"MISSING point [{label}] in current results")
            continue
        for field, bval in sorted(bpoint.items()):
            cls = classify(field)
            if cls == "key":
                continue
            cval = cpoint.get(field)
            if cval is None:
                failures.append(f"[{label}] field {field} missing")
                continue
            if cls == "advisory":
                if bval:
                    ratio = cval / bval
                else:
                    ratio = 1.0 if cval == bval else float("inf")
                print(f"  [{label}] {field}: {bval:.1f} -> {cval:.1f} "
                      f"({ratio:.2f}x, advisory)")
                continue
            drift = abs(cval - bval) / bval if bval else abs(cval)
            status = "ok" if drift <= tolerance else "FAIL"
            print(f"  [{label}] {field}: {bval:g} -> {cval:g} "
                  f"(drift {drift:.1%}, {status})")
            if drift > tolerance:
                failures.append(
                    f"[{label}] {field} drifted {drift:.1%} "
                    f"({bval:g} -> {cval:g})")
    for key in sorted(set(current) - set(baseline)):
        label = ", ".join(f"{k}={v:g}" for k, v in key)
        print(f"  [{label}] new point (not in baseline; update the "
              f"baseline to start gating it)")

    if failures:
        print(f"\n{len(failures)} failure(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall step counts within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
