import gc
import hashlib
import sys

import pytest

from spinorsheaf import clifford, verify
from spinorsheaf.fixtures import FIXTURE_LABELS, get_fixture
from spinorsheaf.homalg import DEFAULT_SEED
from spinorsheaf.verify import run_suite

# sha256 of run_suite(fixture, "all", DEFAULT_SEED).to_json(): a change of
# kernel or of system assembly must leave every report byte-identical.
REPORT_SHA256 = {
    "F-C5": "e481a8178fad4ec918af9455986cd570e2c448df0251e0ce967924a30840d18c",
    "F-H2": "0854f46fa9d6c0310b837d190a6420601e4a226f7a616c792790d81eb1ac87b6",
    "F-H6": "c4b7915f51d5666a811eaa3fe0c7d01a03d89a0e77f67dca856ad6dc3a7bc572",
    "F-H6a": "3ffdb8dcb0366fedbd6b11c1894b20b6583ace36d5d6fa4a6f0b5b516797b65f",
    "F-QS": "4764c9991e89d02f7f62f03ada85f6d6aa9b396b55b762bf272661ce1e6acb9e",
    "F-QSb": "4cc983fc0d121064d1e9953077f49bb2e61c9de778f5b0723065d4ee99147345",
}


@pytest.mark.parametrize("label", FIXTURE_LABELS)
def test_report_bytes_pinned(label):
    text = run_suite(get_fixture(label), "all", DEFAULT_SEED).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[label]


def test_run_leaves_no_cyclic_garbage():
    # a reference cycle (a recursive closure, say) would leave every call's
    # locals waiting for the cyclic collector
    fixtures = [get_fixture(label) for label in FIXTURE_LABELS]
    gc.collect()
    gc.disable()
    try:
        for fx in fixtures:
            run_suite(fx, "all", DEFAULT_SEED)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_flag_and_end_computed_once_per_run(monkeypatch):
    # F-H6 has a flag: the dependence and stability suites share the flag
    # sequence and End(I); End of the flag's outer module is the only other
    flags = _count_calls(monkeypatch, "flag_sequence")
    homs = _count_calls(monkeypatch, "hom_space")
    fx = get_fixture("F-H6")
    run_suite(fx, "all", DEFAULT_SEED)
    assert len(flags) == 1
    assert len(homs) == 2
    module = homs[0][0]
    assert homs[0] == (module, module) and homs[1][0] is not module
    # the flag is built on the run's own module, not on a rebuilt copy
    assert flags[0][0] is module
    run = verify._Run(fx, DEFAULT_SEED, 6)
    assert run.flag.inner is run.module
    del flags[:], homs[:]
    run_suite(fx, "construction", DEFAULT_SEED)
    assert flags == [] and homs == []
    run_suite(fx, "stability-numerics", DEFAULT_SEED)
    assert len(flags) == 1 and len(homs) == 2


def test_trace_pairing_reads_the_antidiagonal_only(monkeypatch):
    # the dual suite certifies the trace pairing from the multiplication
    # table and the 2^n traces tr(e_S e_{S^c}), not from the 4^n entries
    # of its Gram; every module binding of trace_form is counted
    real = clifford.trace_form
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("spinorsheaf") and getattr(mod, "trace_form", None) is real:
            monkeypatch.setattr(mod, "trace_form", counted)
    report = run_suite(get_fixture("F-H6"), "dual", DEFAULT_SEED)
    record = report.records[0]
    assert record["op"] == "trace_pairing_nondegenerate"
    assert record["verdict"] == "pass" and record["details"] == {"size": 64}
    assert len(calls) == 1 << 6
