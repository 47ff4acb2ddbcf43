"""Self-tests of the benchmark harness, on small slices of each workload.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SMALL_FIXTURES = ("F-H2", "F-QS", "F-QSb", "F-C5")


class WallClock:
    now = staticmethod(time.perf_counter)


def small_slice(wl):
    """A few cheap ops of the workload, built fresh."""
    items = wl.inputs()
    if wl.name == "verify-fixtures":
        return [fx for fx in items if fx.label in SMALL_FIXTURES]
    return [item for item in items if wl.tier(item) == "small"][:8]


def _fresh_slice(name):
    """A new workload object at SEED and its small slice of ops."""
    wl = workloads.make(name, SEED)
    return wl, small_slice(wl)


def traced_pass(wl, items):
    run.reset_caches()
    rec = tracer.Recorder()
    rec.install()
    try:
        res = run.run_pass(wl, items, WallClock, rec)
    finally:
        rec.uninstall()
    return res, rec.layer_metrics()


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def two_traced(request):
    first = traced_pass(*_fresh_slice(request.param))
    second = traced_pass(*_fresh_slice(request.param))
    return first, second


def test_count_metrics_repeat_exactly(two_traced):
    (res1, m1), (res2, m2) = two_traced
    assert res1.failed == res2.failed == 0
    counts1 = {k: v for k, v in m1.items() if tracer.is_count_metric(k)}
    counts2 = {k: v for k, v in m2.items() if tracer.is_count_metric(k)}
    assert counts1 == counts2
    assert any(v[0] for v in counts1.values())


def test_self_time_within_busy_time(two_traced):
    (_, metrics), _ = two_traced
    for name in tracer.LAYER_NAMES:
        busy = metrics[name + ".busy_s"][0]
        own = metrics[name + ".self_s"][0]
        assert 0.0 <= own <= busy + 1e-9, name


def test_every_named_metric_is_reported(two_traced):
    (_, metrics), _ = two_traced
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    assert names == set(metrics)


def test_reports_identical_with_and_without_tracing():
    wl, items = _fresh_slice("verify-fixtures")
    run.reset_caches()
    plain = run.run_pass(wl, items, WallClock)
    traced, _ = traced_pass(*_fresh_slice("verify-fixtures"))
    assert plain.failed == traced.failed == 0
    assert set(plain.digests) == set(SMALL_FIXTURES)
    assert plain.digests == traced.digests


def _bindings():
    """Every (owner, attribute) -> object the recorder may replace."""
    import spinorsheaf  # noqa: F401
    from spinorsheaf import clifford, exactalg, spinor

    owners = [m for k, m in sys.modules.items()
              if m is not None and (k == "spinorsheaf" or k.startswith("spinorsheaf."))]
    owners += [exactalg.SpanSolver, exactalg.LinMat, spinor.IdealModule,
               spinor.FactorizationPair, clifford._Context]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_uninstall_restores_every_binding():
    before = _bindings()
    rec = tracer.Recorder()
    rec.install()
    from spinorsheaf import spinor, verify, _kernels, _rowreduce_py

    # the names the package imports with "from .x import y" are wrapped too
    assert hasattr(spinor.rref_rows, "__wrapped__")
    assert hasattr(verify.hom_space, "__wrapped__")
    assert hasattr(_kernels.echelon, "__wrapped__")
    assert _rowreduce_py.echelon is _kernels.echelon
    assert len(rec.patches) > len(tracer.LAYERS)
    rec.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_percentile(120) == 91
    assert run.tail_percentile(51) == 80
    assert run.tail_percentile(6) == 100
    for n in (11, 51, 120, 240):
        values = sorted(range(n))
        pct = run.tail_percentile(n)
        _, beyond = run.nearest_rank(values, pct)
        assert beyond >= 10


def test_speed_clock_advances():
    with run.SpeedClock() as clock:
        t0 = clock.now()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        elapsed = clock.now() - t0
    assert clock.probes
    assert 0.0 < elapsed < 10.0


def test_compare_refuses_different_backends(tmp_path):
    def result(backend):
        return {"context": {"workload": "construct-grid", "trace": 0, "kernel_backend": backend},
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    paths = []
    for i, backend in enumerate(("pure", "cython")):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(result(backend)))
        paths.append(str(path))
    assert compare.main(["--base", paths[0], "--head", paths[1]]) == 2


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
