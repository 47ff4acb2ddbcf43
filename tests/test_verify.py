import gc
import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from spinorsheaf import clifford, spinor, verify
from spinorsheaf import homalg
from spinorsheaf.exactalg import Mat
from spinorsheaf.fixtures import (
    FIXTURE_LABELS,
    Fixture,
    fixture_from_dict,
    get_fixture,
    grid_spaces,
)
from spinorsheaf.quadform import QuadraticSpace, Subspace, radical_basis, sub_intersection
from spinorsheaf.verify import run_suite

# sha256 of run_suite(fixture, "all").to_json(): a change of
# kernel or of system assembly must leave every report byte-identical.  The
# dual certificate (dual_parity_equivalence.details.certificate) is the
# inverse of a map read off the generator of I or I[1], found by the search.
REPORT_SHA256 = {
    "F-C5": "42c5614624fadf13785a7913ff9110e60590a5321bce9c651666078d95279025",
    "F-H2": "b7f2e3ebe95d0f4f3577b346097fcb45a7847deebf37f4503363661507d282f3",
    "F-H6": "e3530729a8f6713bed2ec4cddb8c5bd3766f0228cbb2a5e28de27625629484f2",
    "F-H6a": "9d3ad1e234dc2ae5954ce78cdab22a3576f136db8bb311a50e5c8c4a510254c2",
    "F-QS": "7d8a26238789d8d532a3d0a4e3c058f3a9042e0c8462ca6f994997bb13e32ae7",
    "F-QSb": "2ac10f0a16494a6e77f5593c29e7b2e1dfe2fa3f60a38724e834f175c01ab0d8",
}


@pytest.mark.parametrize("label", FIXTURE_LABELS)
def test_report_bytes_pinned(label):
    text = run_suite(get_fixture(label), "all").to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[label]


@pytest.mark.parametrize("label", FIXTURE_LABELS)
def test_reports_ignore_the_seed_argument(label):
    # nothing in a run is drawn at random: the third argument, kept for the
    # benchmark's callers, leaves the report byte-identical
    fx = get_fixture(label)
    assert run_suite(fx, "all", 1).to_json() == run_suite(fx, "all", 7).to_json() \
        == run_suite(fx, "all", None).to_json()


def _fiber_record(fx):
    (record,) = [r for r in run_suite(fx, "construction").records
                 if r["op"] == "fiber_rank_stratification"]
    return record


def test_fiber_stratification_passes_on_the_grid():
    # every fixture and every grid_spaces(7) pair, at the explicit points
    cases = [get_fixture(label) for label in FIXTURE_LABELS]
    cases += [Fixture(f"grid-{t}", space, w) for t, (space, w) in enumerate(grid_spaces(7))]
    for fx in cases:
        record = _fiber_record(fx)
        assert record["verdict"] == "pass", (fx.label, record)
        assert record["details"]["points"] == sum(record["details"]["strata"].values())


def test_forms_with_no_rational_hyperbolic_basis():
    # x0 x1 + x2^2 + x3^2 with W = <e0>, and x0^2 - 2 x1^2 with W = K =
    # <e2>: no rational hyperbolic basis completes pi(W), and every suite
    # runs through without one
    half = Fraction(1, 2)
    split_plus_sum_of_squares = QuadraticSpace(Mat.from_rows(
        [[0, half, 0, 0], [half, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    anisotropic_plus_radical = QuadraticSpace(Mat.from_rows(
        [[1, 0, 0], [0, -2, 0], [0, 0, 0]]))
    for label, space, w in (("x0x1+x2^2+x3^2", split_plus_sum_of_squares, (1, 0, 0, 0)),
                            ("x0^2-2x1^2", anisotropic_plus_radical, (0, 0, 1))):
        report = run_suite(Fixture(label, space, Subspace(space, [w])), "all")
        assert report.overall(), label
        assert report.counts()["fail"] == 0, label
        assert not [r for r in report.records if r["op"] == "invariant_error"], label


def test_a_wrong_rank_on_w_cap_k_fails(monkeypatch):
    # F-QS has W cap K = <e2>: a fiber_rank off by one there alone is seen
    fx = get_fixture("F-QS")
    wk = sub_intersection(fx.w, radical_basis(fx.space))
    assert wk.dim == 1
    real = verify.fiber_rank

    def wrong_on_wk(mf, v):
        r, fiber = real(mf, v)
        return (r - 1, fiber + 1) if wk.contains(v) else (r, fiber)

    assert _fiber_record(fx)["verdict"] == "pass"
    monkeypatch.setattr(verify, "fiber_rank", wrong_on_wk)
    record = _fiber_record(fx)
    assert record["verdict"] == "fail" and record["details"]["strata"]["singular_w"] == 1


def test_run_leaves_no_cyclic_garbage():
    # a reference cycle (a recursive closure, say) would leave every call's
    # locals waiting for the cyclic collector
    fixtures = [get_fixture(label) for label in FIXTURE_LABELS]
    gc.collect()
    gc.disable()
    try:
        for fx in fixtures:
            run_suite(fx, "all")
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
    run_suite(fx, "all")
    assert len(flags) == 1
    assert len(homs) == 2
    module = homs[0][0]
    assert homs[0] == (module, module) and homs[1][0] is not module
    # the flag is built on the run's own module, not on a rebuilt copy
    assert flags[0][0] is module
    run = verify._Run(fx)
    assert run.flag.inner is run.module
    del flags[:], homs[:]
    run_suite(fx, "construction")
    assert flags == [] and homs == []
    run_suite(fx, "stability-numerics")
    assert len(flags) == 1 and len(homs) == 2


def test_each_module_built_once_per_pass(monkeypatch):
    # a six-fixture pass builds 19 ideal modules: the 6 run modules, the 2
    # flags' outer modules, F-H6's restricted and F-C5's quotient module,
    # and the 9 of the 18 equivariance targets whose g moves W (the other 9
    # are the run's module); the restriction and cone comparisons build no
    # module on the fixture's own space
    real = spinor.build_ideal
    spaces = []

    def counted(space, w):
        spaces.append(space)
        return real(space, w)

    for name, mod in list(sys.modules.items()):
        if name.startswith("spinorsheaf") and getattr(mod, "build_ideal", None) is real:
            monkeypatch.setattr(mod, "build_ideal", counted)
    for label in FIXTURE_LABELS:
        run_suite(get_fixture(label), "all")
    assert len(spaces) == 19
    for label in ("F-H6", "F-C5"):
        fx = get_fixture(label)
        del spaces[:]
        run_suite(fx, "sections")
        assert [space == fx.space for space in spaces] == [True, False]


def test_one_elimination_per_run(monkeypatch):
    # the cohomology ranks are read off psi phi = q Id; each run eliminates
    # phi and phi^T once, in degree 2, inside euler_consistency
    degrees = []
    real = homalg.mult_map_rank
    monkeypatch.setattr(homalg, "mult_map_rank",
                        lambda lm, t: degrees.append(t) or real(lm, t))
    for label in FIXTURE_LABELS:
        run_suite(get_fixture(label), "all")
    assert degrees == [2] * 12


def test_cross_check_failure_is_a_fail_record(monkeypatch):
    fx = get_fixture("F-QS")
    ops = [r["op"] for r in run_suite(fx, "stability-numerics").records]
    cut = ops.index("euler_consistency")
    real = homalg.mult_map_rank
    monkeypatch.setattr(homalg, "mult_map_rank", lambda lm, t: real(lm, t) - 1)
    records = run_suite(fx, "stability-numerics").records
    assert [r["op"] for r in records] == ops[:cut] + ["invariant_error"]
    assert records[-1]["verdict"] == "fail"
    assert "in degree 2" in records[-1]["details"]["message"]


def test_verdict_table_of_the_benchmark():
    # the benchmark's verify-fixtures workload checks each run against this
    # (op, verdict) table
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "expected_verdicts.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    assert sorted(table) == sorted(FIXTURE_LABELS)
    for label, expected in table.items():
        records = run_suite(get_fixture(label), "all").records
        assert [[r["op"], r["verdict"]] for r in records] == expected


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
    report = run_suite(get_fixture("F-H6"), "dual")
    record = report.records[0]
    assert record["op"] == "trace_pairing_nondegenerate"
    assert record["verdict"] == "pass" and record["details"] == {"size": 64}
    assert len(calls) == 1 << 6


HALF = "1/2"
# Two flags whose records a search of End(outer) got wrong.  I_<e3> on a
# corank-2 form is decomposable, as it splits along the other flag
# <e3> < <e1, e3>, although this flag does not split: a found idempotent
# read as a fail.  The split flag <e3, e4> -> <e4> on F-H6's form has an
# 8-dimensional End in which the seeded draws found no idempotent.
FLAG_REGRESSIONS = {
    "nonsplit-decomposable-outer": {
        "dimension": 4,
        "gram": [[0, HALF, 0, 0], [HALF, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        "isotropic": [[0, 0, 1, 0], [0, 0, 0, 1]],
        "flag_drop": [0, 0, 1, 0],
    },
    "split-end-dim-8": {
        "dimension": 6,
        "gram": [[HALF if abs(i - j) == 3 else 0 for j in range(6)] for i in range(6)],
        "isotropic": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
        "flag_drop": [0, 0, 0, 1, 0, 0],
    },
}


@pytest.mark.parametrize("label", sorted(FLAG_REGRESSIONS))
def test_flag_records_follow_the_section(label):
    fx = fixture_from_dict(dict(FLAG_REGRESSIONS[label], label=label))
    report = run_suite(fx, "all")
    flag_ops = ("flag_exactness", "flag_split_agreement", "flag_direct_sum_iso",
                "jordan_hoelder_record")
    verdicts = {r["op"]: r["verdict"] for r in report.records if r["op"] in flag_ops}
    assert "jordan_hoelder_record" in verdicts
    assert set(verdicts.values()) == {"pass"}
    assert report.counts() == {"pass": len(report.records), "fail": 0, "UNDECIDED": 0}


def test_flag_records_search_nothing(monkeypatch):
    # the flag records read the section: one pass over the six fixtures
    # runs no idempotent search and no isomorphism test against the direct
    # sum, whose three Hom solves are gone with it
    calls = dict.fromkeys(("hom_space", "is_isomorphic", "idempotent_probe"), 0)
    for name in calls:
        real = getattr(homalg, name)

        def counted(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(homalg, name, counted)
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, counted)
    for label in FIXTURE_LABELS:
        run_suite(get_fixture(label), "all")
    assert calls == {"hom_space": 14, "is_isomorphic": 6, "idempotent_probe": 0}
    assert not hasattr(verify, "idempotent_probe") and not hasattr(verify, "direct_sum")


def test_only_the_dual_searches_read_hom_pairs(monkeypatch):
    # a Hom dimension builds no map, and of the searches in a pass only the
    # six dual searches read basis maps: the shift verdicts are decided
    # without one, and End of the flag's outer module builds none.  Each
    # dual search reads the basis from the last, and that first map is its
    # certificate; the only other maps are End(I)'s, each built once for
    # its cross-check (End dimensions 2, 1, 1, 8, 1, 1)
    maps, per_dual = [], []
    real_map, real_equiv = homalg.GradedHom._map, verify.factorization_equivalent

    def equivalent(*args):
        before = len(maps)
        got = real_equiv(*args)
        per_dual.append(len(maps) - before)
        return got

    monkeypatch.setattr(homalg.GradedHom, "_map",
                        lambda self, x: maps.append(x) or real_map(self, x))
    monkeypatch.setattr(verify, "factorization_equivalent", equivalent)
    for label in FIXTURE_LABELS:
        run_suite(get_fixture(label), "all")
    assert per_dual == [1] * 6
    assert len(maps) == 14 + sum(per_dual)
