"""The benchmark's traced run (perfbench/tracer.py) binds to package
functions by name; a rename must fail here, not silently drop a layer
from ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_binding_resolves(tracer):
    for name, modname, qual in tracer.LAYERS:
        owner = importlib.import_module(modname)
        for part in qual.split("."):
            assert hasattr(owner, part), f"{name}: {modname}.{qual} is gone"
            owner = getattr(owner, part)
        assert callable(owner) or isinstance(owner, property), name
    quals = {qual for _, _, qual in tracer.LAYERS}
    assert {"rref_rows", "SpanSolver.coords", "IdealModule.act_ev", "IdealModule.act_odd",
            "FactorizationPair.check_identity"} <= quals
    from spinorsheaf import clifford

    assert "__init__" in vars(clifford._Context)


def test_traced_construction_counts_every_layer(tracer):
    from spinorsheaf import spinor
    from spinorsheaf.fixtures import get_fixture

    fx = get_fixture("F-H6")
    rec = tracer.Recorder()
    rec.install()
    try:
        mf = spinor.build_factorization(spinor.build_ideal(fx.space, fx.w))
        assert mf.check_identity()
    finally:
        rec.uninstall()
    metrics = {k: v for k, (v, _) in rec.layer_metrics().items()}
    assert metrics["spinor.build_ideal.calls"] == 1
    assert metrics["exactalg.rref_rows.calls"] == 2
    assert metrics["spinor.action_matrices.calls"] == 2
    # the action matrices read their coordinates in one SpanSolver.columns
    # sweep per matrix, not one coords call per image
    assert metrics["exactalg.SpanSolver.coords.calls"] == 0
    assert metrics["spinor.check_identity.calls"] == 2
    assert metrics["clifford.multiply.calls"] > 0
    assert not hasattr(spinor.rref_rows, "__wrapped__")
