"""Benchmark of spinorsheaf: one workload per run, in one fresh process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-fixtures --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): verify-fixtures, construct-grid,
cohomology-grid.  A run is a closed loop with one client: ops run back to
back in one thread.  The run repeats full passes over the workload's ops,
each on freshly built inputs with the package's caches cleared, as long as
another pass is expected to end within ``--seconds``; it always makes at
least one pass.  Every op checks its own output.

Times are in reference seconds (see speedclock.py): wall time scaled by
the host's measured speed, so that runs on a shared host compare.  The
result file also keeps the raw wall time of every pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced pass, then one pass with every layer function wrapped (see
tracer.py), and reports the per-layer metrics; it writes the spans as JSON
lines to ``.bench_out/``.  Every run also writes its full result, stamped
with its run context, to ``.bench_out/``; compare.py compares such files.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speedclock import PROBE_REF_S, SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("verify-fixtures", "construct-grid", "cohomology-grid")
TIERS = ("large", "medium", "small")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10

# The issue-level names of the verify-fixtures tiers, printed for readers.
VERIFY_ALIASES = {"tier_s.large": "verify_s.F-H6a", "tier_s.medium": "verify_s.F-H6",
                  "tier_s.small": "verify_s.small"}


def measure_setup(workload, seed):
    """Median over fresh interpreters of the time to import spinorsheaf
    and build the workload's inputs (see setup_probe.py)."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def reset_caches():
    """Clear the package's functools caches, so each pass starts as cold as
    a fresh ``spinor`` process (Clifford caches live on the spaces, which
    each pass builds anew)."""
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "spinorsheaf" or key.startswith("spinorsheaf.")):
            continue
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.raw_wall = 0.0
        self.latencies = []
        self.tiers = dict.fromkeys(TIERS, 0.0)
        self.failed = 0
        self.digests = {}


def run_pass(wl, items, clock, recorder=None):
    """Run every op once, back to back; time each op and the whole pass."""
    res = PassResult()
    raw0 = time.perf_counter()
    t_pass = clock.now()
    for index, item in enumerate(items):
        if recorder is not None:
            recorder.op = index
            sid = recorder.begin("op")
        t0 = clock.now()
        try:
            ok, digest = wl.run(item)
        except Exception:  # an op that raises is a failed op; keep going
            print(f"op {wl.label(item)} raised:", file=sys.stderr)
            traceback.print_exc()
            ok, digest = False, None
        dt = clock.now() - t0
        if recorder is not None:
            recorder.end(sid)
        res.latencies.append(dt)
        res.tiers[wl.tier(item)] += dt
        if not ok:
            res.failed += 1
            print(f"op {wl.label(item)} failed its check", file=sys.stderr)
        if digest is not None:
            res.digests[wl.label(item)] = digest
    res.wall = clock.now() - t_pass
    res.raw_wall = time.perf_counter() - raw0
    return res


def tail_percentile(ops_per_pass):
    """Highest whole percentile with at least TAIL_BEYOND ops of one pass
    above it; 100 (the slowest op) when a pass has too few ops."""
    if ops_per_pass <= TAIL_BEYOND:
        return 100
    return (100 * (ops_per_pass - TAIL_BEYOND)) // ops_per_pass


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def end_to_end(passes, ops_per_pass, setup_s):
    lat = sorted(x for p in passes for x in p.latencies)
    pct = tail_percentile(ops_per_pass)
    tail, beyond = nearest_rank(lat, pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
    }
    for tier in TIERS:
        metrics["tier_s." + tier] = (statistics.median(p.tiers[tier] for p in passes), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, f"op_tail_s is p{pct} of {len(lat)} ops ({beyond} beyond it)"


def context(ss, args, ops_per_pass, passes, clock):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel_backend": ss.KERNEL_BACKEND,
        "spinorsheaf_version": ss.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
        "ops_per_pass": ops_per_pass,
        "passes": len(passes),
        "raw_pass_wall_s": [p.raw_wall for p in passes],
        "probe_median_s": statistics.median(clock.probes) if clock.probes else None,
        "probe_reference_s": PROBE_REF_S,
    }


def traced_passes(wl, items, clock, spans_path):
    """One untraced pass, then one traced pass; per-layer metrics."""
    import tracer

    reset_caches()
    ref = run_pass(wl, items, clock)
    items = wl.inputs()
    reset_caches()
    rec = tracer.Recorder(clock.now)
    rec.install()
    try:
        traced = run_pass(wl, items, clock, rec)
    finally:
        rec.uninstall()
    metrics = rec.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced.wall / ref.wall, "ratio")
    rec.write_jsonl(spans_path, [wl.label(item) for item in items])
    notes = [f"traced pass {traced.wall:.3f} s, untraced pass {ref.wall:.3f} s, "
             f"{len(rec.spans)} spans in {os.path.relpath(spans_path, ROOT)}"]
    if ref.digests != traced.digests:
        notes.append("WARNING: reports differ between the untraced and the traced pass")
    return [ref, traced], metrics, notes


def timed_passes(wl, items, clock, seconds):
    """Full passes while the next one is expected to end within seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        reset_caches()
        passes.append(run_pass(wl, items, clock))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.raw_wall for p in passes) > seconds:
            return passes
        items = wl.inputs()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "spinorsheaf", "__init__.py")):
        print(f"error: no spinorsheaf package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, SRC)
    import spinorsheaf as ss
    import workloads

    wl = workloads.make(args.workload, args.seed)
    items = wl.inputs()
    ops_per_pass = len(items)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-trace{args.trace}")

    with SpeedClock() as clock:
        if args.trace:
            passes, metrics, notes = traced_passes(wl, items, clock, stem + ".spans.jsonl")
        else:
            passes = timed_passes(wl, items, clock, args.seconds)
            metrics, note = end_to_end(passes, ops_per_pass, setup_s)
            notes = [note]

    attempted = ops_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    ctx = context(ss, args, ops_per_pass, passes, clock)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    digests = passes[0].digests
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "notes": notes, "report_sha256": digests, **result},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("context " + json.dumps(ctx, sort_keys=True))
    for label, digest in sorted(digests.items()):
        print(f"report_sha256 {label} {digest}")
    for name, (value, unit) in metrics.items():
        alias = VERIFY_ALIASES.get(name) if args.workload == "verify-fixtures" else None
        print(f"{name} {value:.6g} {unit}" + (f"  ({alias})" if alias else ""))
    print(f"fail_share {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
