#!/usr/bin/env python3
"""Self-test of the benchmark itself, at the smallest scale it runs.

    python3 perfbench/selftest.py

For every workload, with --trace 0 and --trace 1, it checks that the
result line has exactly the keys correct/attempted/failed/metrics,
that the run is correct, and that the metric names and units printed
are exactly those BENCHMARK.json declares.  Then it corrupts one
pinned ladder digest in a copy of pins.json and checks that the
command fails on it.  Exit 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            tag = f"{w} --trace {trace}"
            rc, doc = run(w, trace)
            check(rc == 0 and doc is not None, f"{tag}: exits 0 with a result")
            if doc is None:
                continue
            check(set(doc) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(doc.get("correct") is True and doc.get("failed") == 0,
                  f"{tag}: correct, nothing failed")
            metrics = doc.get("metrics", {})
            check(set(metrics) == set(declared[trace]),
                  f"{tag}: metric names match BENCHMARK.json")
            check(all(metrics[n].get("unit") == u
                      for n, u in declared[trace].items() if n in metrics),
                  f"{tag}: metric units match BENCHMARK.json")
            check(all(isinstance(m.get("value"), (int, float)) and
                      math.isfinite(m["value"]) for m in metrics.values()),
                  f"{tag}: every value is a finite number")

    # One corrupted pinned digest must fail the run.
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    point = sorted(pins["ladder"])[0]
    digest = pins["ladder"][point]["digest"]
    pins["ladder"][point]["digest"] = (
        ("0" if digest[0] != "0" else "1") + digest[1:])
    work = os.path.join(ROOT, ".bench_work", "selftest")
    os.makedirs(work, exist_ok=True)
    bad = os.path.join(work, "pins-corrupted.json")
    with open(bad, "w") as f:
        json.dump(pins, f)
    rc, doc = run("ladder", 0, ("--pins", bad))
    check(rc != 0, f"corrupted digest of {point}: command exits nonzero")
    check(doc is not None and doc.get("correct") is False
          and doc.get("failed", 0) >= 1,
          f"corrupted digest of {point}: result marked incorrect")
    os.remove(bad)

    print("selftest:", "FAILED" if failures else "passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
