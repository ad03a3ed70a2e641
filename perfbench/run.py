#!/usr/bin/env python3
"""The gaascache benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload ladder|sampled|stream \\
        --seed N --seconds S --trace 0|1 [--pins FILE]

Run from the root of a source checkout.  The first call configures
and builds the benchmark binary (perfbench/CMakeLists.txt, which compiles
the library from src/) into .bench_build/perfbench; later calls only
rebuild what changed.

--trace 0 repeats the workload, each repetition in a fresh process,
until S seconds have passed (at least three repetitions), and reports
the median of every end-to-end metric.  --trace 1 pairs an untraced
repetition with a traced one (timing decorator, subtraction ladder,
source probes) for S seconds (at least one pair) and reports the
per-layer metrics, the tracing overhead among them.  Every repetition
checks every point's output (checks.hh); a failed check makes the
command exit 1.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds the host context (nproc, calibration rate,
build type, source digest), and .bench_work/results/ keeps the full
record of each run, the trace-event span file of a traced run among
them.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("ladder", "sampled", "stream")
MIN_REPS = 3
# A repetition is never started after this many seconds, so a run
# stays well inside its time limit whatever --seconds says.
DEADLINE_S = 150.0


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def clean_env():
    """The environment without gaascache's GAAS_* knobs, so a run
    measures the defaults whatever the caller's shell exports."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GAAS_")}


def build():
    """Configure (once) and build the binary; exit 1 if impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sweep.hh")):
        log("no gaascache sources next to perfbench/; cannot build")
        sys.exit(1)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    rc = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                        stdout=sys.stderr).returncode
    if rc != 0 or not os.path.isfile(BINARY):
        log("build failed")
        sys.exit(1)


def call(args, env):
    """Run the benchmark binary; return (exit code, last-line JSON)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            doc = None
    return proc.returncode, doc


def source_digest():
    """SHA-1 over the program and benchmark sources: identifies the
    code measured when the checkout carries no commit id."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def per_layer_values(workload, untraced, traced):
    """Per-layer metrics of one (untraced, traced) repetition pair:
    the traced run's replay and probe figures, the untraced run's
    counts and sweep telemetry, and the tracing overhead."""
    layers = traced["layers"]
    sweep = untraced["sweep"]
    out = {k: v for k, v in layers.items()
           if not k.startswith("trace.arena.probe_")}
    out.update(untraced["counts"])
    out.update({
        "core.sampling.cpi_err_max": untraced.get("cpi_err_max", 0.0),
        "core.sweep.jobs": sweep["jobs"],
        "core.sweep.build_s": sweep["build_s"],
        "core.sweep.queue_wait_s": sweep["queue_wait_s"],
        "core.sweep.point_sim_s_p50": sweep["point_sim_s_p50"],
        "core.sweep.point_sim_s_max": sweep["point_sim_s_max"],
        "core.sweep.busy_frac": sweep["busy_frac"],
        "trace.arena.reuse_frac": sweep["arena_reuse_frac"],
        "bench.trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    if workload == "stream":
        # No arena in the stream run: the probe's materialisation of
        # the files' first references stands in.
        out["trace.arena.gen_s"] = layers["trace.arena.probe_gen_s"]
        out["trace.arena.bytes_mb"] = layers["trace.arena.probe_bytes_mb"]
    else:
        out["trace.arena.gen_s"] = sweep["arena_gen_s"]
        out["trace.arena.bytes_mb"] = sweep["arena_bytes_mb"]
    return out


def point_table(workload, untraced, traced):
    """Per replayed point: its in-run simulate time per reference next
    to the replayed layers' self times, and what they leave over."""
    sim_s = {p["config"]: p["sim_s"] for p in untraced["per_point"]}
    in_refs = {p["config"]: p.get("source_refs", 0)
               for p in traced["per_point"]}
    rows = []
    for r in traced["replay"]:
        n = r["refs"]
        ns = lambda s: s * 1e9 / n if n else 0.0
        row = {
            "config": r["config"],
            "replay_refs": n,
            "trace_ns": ns(r["source_s"]),
            "mmu_ns": ns(r["mmu_s"] - r["source_s"]),
            "l1_ns": ns(r["l1_s"] - r["mmu_s"]),
            "l2_mem_ns": ns(r["hierarchy_s"] - r["l1_s"]),
            "sim_step_ns": ns(r["sim_s"] - r["hierarchy_s"]),
            "replay_sim_ns": ns(r["sim_s"]),
        }
        refs = in_refs.get(r["config"], 0)
        if workload != "sampled" and refs:
            row["in_run_sim_ns"] = sim_s[r["config"]] * 1e9 / refs
            row["unattributed_ns"] = row["in_run_sim_ns"] - row["replay_sim_ns"]
        rows.append(row)
    return rows


def print_table(rows):
    cols = ["config", "in_run_sim_ns", "trace_ns", "mmu_ns", "l1_ns",
            "l2_mem_ns", "sim_step_ns", "unattributed_ns"]
    log("per-point self times (ns/ref; in-run = untraced simulate time"
        " / references the run pulled):")
    log("  " + " ".join(f"{c:>18}" for c in cols))
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "n/a")
            cells.append(f"{v:>18}" if isinstance(v, str) else f"{v:>18.3f}")
        log("  " + " ".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    env = clean_env()
    end_to_end, per_layer = metric_specs()
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    scratch = os.path.join(WORK, f"{tag}-{os.getpid()}")
    results = os.path.join(WORK, "results")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(results, exist_ok=True)

    try:
        _, cal = call(["calibrate"], env)
        context = {
            "nproc": os.cpu_count(),
            "calibration_refs_per_s":
                cal["calibration_refs_per_s"] if cal else None,
            "build_type": cal["build_type"] if cal else None,
            "commit": commit(),
            "source_digest": source_digest(),
        }
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--pins", os.path.abspath(a.pins)]
        if a.workload == "stream":
            fixture = os.path.join(scratch, "fixture")
            os.makedirs(fixture)
            rc, doc = call(["fixture", "--seed", str(a.seed),
                            "--workdir", fixture], env)
            if rc != 0 or doc is None:
                log("fixture encoding failed")
                return 1
            # Flush the fresh files now, so their writeback does not
            # compete with the timed repetitions.
            os.sync()
            common += ["--fixture", fixture]

        start = time.monotonic()
        reps, pairs, broken = [], [], 0
        trace_file = os.path.join(results, f"trace-{tag}.json")

        def keep_going(done):
            elapsed = time.monotonic() - start
            if elapsed > DEADLINE_S:
                return False
            need = MIN_REPS if a.trace == 0 else 1
            return done < need or elapsed < a.seconds

        while keep_going(len(reps) if a.trace == 0 else len(pairs)):
            rc, untraced = call(["run"] + common, env)
            if rc != 0 or untraced is None:
                broken += 1
                break
            if a.trace == 0:
                reps.append(untraced)
                continue
            rc, traced = call(["traced"] + common + [
                "--workdir", scratch, "--trace-out", trace_file], env)
            if rc != 0 or traced is None:
                broken += 1
                break
            pairs.append((untraced, traced))

        docs = reps + [d for pair in pairs for d in pair]
        attempted = sum(d["points"] for d in docs) + broken
        failed = sum(d["failed"] for d in docs) + broken
        correct = failed == 0 and len(docs) > 0

        metrics = {}
        record = {"context": context, "args": vars(a)}
        if a.trace == 0:
            for spec in end_to_end:
                name = spec["name"]
                vals = [d[name] for d in reps]
                metrics[name] = {"value": median(vals), "unit": spec["unit"]}
            record["repetitions"] = reps
        else:
            values = [per_layer_values(a.workload, u, t) for u, t in pairs]
            for spec in per_layer:
                name = spec["name"]
                vals = [v[name] for v in values if name in v]
                metrics[name] = {"value": median(vals), "unit": spec["unit"]}
            if pairs:
                rows = point_table(a.workload, *pairs[-1])
                print_table(rows)
                record["point_table"] = rows
            record["pairs"] = [{"untraced": u, "traced": t}
                               for u, t in pairs]
            record["trace_events"] = os.path.relpath(trace_file, ROOT)
        record["failed_frac"] = failed / attempted if attempted else 1.0
        result = {"correct": correct, "attempted": max(1, attempted),
                  "failed": failed if attempted else 1, "metrics": metrics}
        record["result"] = result
        with open(os.path.join(results, f"{tag}.json"), "w") as f:
            json.dump(record, f, indent=1)
        print(json.dumps({"context": context}))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
