import gc
import hashlib
import json
import os
import sys
from fractions import Fraction

import pytest

from spinorsheaf import clifford, quadform, spinor, verify
from spinorsheaf import homalg
from spinorsheaf.errors import InvariantError, SpanError
from spinorsheaf.exactalg import LinMat, Mat
from spinorsheaf.fixtures import (
    FIXTURE_LABELS,
    Fixture,
    fixture_from_dict,
    get_fixture,
    grid_spaces,
)
from spinorsheaf.quadform import QuadraticSpace, Subspace, radical_basis, sub_intersection
from spinorsheaf.verify import run_suite

from dense_oracles import fiber_record_by_elimination

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


def _non_split_forms():
    # x0 x1 + x2^2 + x3^2 with W = <e0>, and x0^2 - 2 x1^2 with W = K =
    # <e2>: no rational hyperbolic basis completes pi(W)
    half = Fraction(1, 2)
    split_plus_sum_of_squares = QuadraticSpace(Mat.from_rows(
        [[0, half, 0, 0], [half, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    anisotropic_plus_radical = QuadraticSpace(Mat.from_rows(
        [[1, 0, 0], [0, -2, 0], [0, 0, 0]]))
    return [Fixture(label, space, Subspace(space, [w])) for label, space, w in (
        ("x0x1+x2^2+x3^2", split_plus_sum_of_squares, (1, 0, 0, 0)),
        ("x0^2-2x1^2", anisotropic_plus_radical, (0, 0, 1)))]


def test_forms_with_no_rational_hyperbolic_basis():
    # every suite runs through without a hyperbolic basis
    for fx in _non_split_forms():
        report = run_suite(fx, "all")
        assert report.overall(), fx.label
        assert report.counts()["fail"] == 0, fx.label
        assert not [r for r in report.records if r["op"] == "invariant_error"], fx.label


# sha256 over run_suite(…, "all").to_json() of the 115 grid_spaces(7) pairs
# (labelled grid-0, grid-1, …) and then the two forms above, in that order
GRID_REPORTS_SHA256 = "1ae19ebe90ea954dcd795f70c5bb0af4833464385875d1b5917882294a06cb52"


def test_grid_report_bytes_pinned():
    cases = [Fixture(f"grid-{t}", space, w) for t, (space, w) in enumerate(grid_spaces(7))]
    assert len(cases) == 115
    digest = hashlib.sha256()
    for fx in cases + _non_split_forms():
        digest.update(run_suite(fx, "all").to_json().encode("utf-8"))
    assert digest.hexdigest() == GRID_REPORTS_SHA256


def _unimodular(n, k):
    """Upper triangular, 1 on the diagonal, (i + j + k) % 3 - 1 above it."""
    return [[1 if i == j else (i + j + k) % 3 - 1 if j > i else 0 for j in range(n)]
            for i in range(n)]


def _carry(p, v):
    """P^-1 v for a unit upper triangular P, by back substitution."""
    x = [0] * len(p)
    for i in range(len(p) - 1, -1, -1):
        x[i] = v[i] - sum(p[i][j] * x[j] for j in range(i + 1, len(p)))
    return tuple(x)


def _basis_changed(k, fx):
    """``fx`` in the coordinates y of x = P y, P = ``_unimodular(n, k)``: the
    form P^T G P, and W, the flag drop, the section subspace and the cone
    carried through P^-1."""
    p = _unimodular(fx.space.n, k)
    pm = Mat.from_rows(p)
    space = QuadraticSpace(pm.transpose() @ fx.space.gram @ pm)

    def carried(vectors):
        return None if vectors is None else [_carry(p, v) for v in vectors]

    return Fixture(fx.label, space, Subspace(space, carried(fx.w.basis)),
                   None if fx.flag_drop is None else _carry(p, fx.flag_drop),
                   carried(fx.section_subspace), carried(fx.cone_mod))


# sha256 over run_suite(…, "all").to_json() of the six fixtures in
# FIXTURE_LABELS order, fixture k under _basis_changed(k, …).  Their span
# bases are not reduced up to scale, so unlike the fixtures themselves they
# take rref_rows' elimination route and clear pivots from earlier rows.
BASIS_CHANGED_REPORTS_SHA256 = "51762a86c2ba47e5b3dfaa39161b27fee5fb72a3d0a0b40a49f169c64bc2460d"


def test_basis_changed_report_bytes_pinned():
    digest = hashlib.sha256()
    for k, label in enumerate(FIXTURE_LABELS):
        report = run_suite(_basis_changed(k, get_fixture(label)), "all")
        assert report.counts()["pass"] == len(report.records), label
        digest.update(report.to_json().encode("utf-8"))
    assert digest.hexdigest() == BASIS_CHANGED_REPORTS_SHA256


# (index, k) of the grid_spaces(5) pairs that _basis_changed(k, …) carries
# to a module whose irreducibility witness is a pair seed, the sum of two
# unit vectors of one part; no fixture, basis-changed fixture or
# grid_spaces(7) pair has one.  sha256 over their run_suite(…, "all")
# reports, in this order.
PAIR_SEED_CASES = ((8, 2), (8, 5), (11, 1), (11, 4), (24, 0),
                   (24, 3), (25, 0), (25, 2), (25, 3), (25, 5))
PAIR_SEED_REPORTS_SHA256 = "01dc293e0e3873463b5c6a8944fdca228960c0737d645d363dfcb5cada110e87"


def test_pair_seed_report_bytes_pinned():
    grid = grid_spaces(5)
    digest = hashlib.sha256()
    for t, k in PAIR_SEED_CASES:
        report = run_suite(_basis_changed(k, Fixture(f"grid-{t}", *grid[t])), "all")
        (record,) = [r for r in report.records if r["op"] == "irreducibility"]
        seed = record["details"]["witness"]["seed"]
        assert sum(map(bool, seed["ev"] + seed["odd"])) == 2, (t, k)
        digest.update(report.to_json().encode("utf-8"))
    assert digest.hexdigest() == PAIR_SEED_REPORTS_SHA256


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


@pytest.mark.parametrize("label", ["F-H2"])
def test_a_wrong_rank_off_w_cap_k_fails(monkeypatch, label):
    # codim W is 1 on F-H2, a rank-2 form, where every point is still
    # eliminated: a fiber_rank off by two off W cap K alone is seen
    fx = get_fixture(label)
    assert fx.space.n - fx.w.dim == 1 and fx.space.rank == 2
    wk = sub_intersection(fx.w, radical_basis(fx.space))
    real = verify.fiber_rank

    def wrong_off_wk(mf, v):
        r, fiber = real(mf, v)
        return (r, fiber) if wk.contains(v) else (r - 2, fiber + 2)

    assert _fiber_record(fx)["verdict"] == "pass"
    monkeypatch.setattr(verify, "fiber_rank", wrong_off_wk)
    record = _fiber_record(fx)
    assert record["verdict"] == "fail" and record["details"]["strata"]["elsewhere"] > 0


def _bumped_phi(mf):
    """``mf`` with 1 added to the first nonzero entry of phi_0."""
    m = mf.phi.coeff[0]
    r = next(r for r, row in enumerate(m.nz) if row)
    (j, x), *rest = m.nz[r]
    nz = m.nz[:r] + [[(j, x + 1)] + rest if x != -1 else rest] + m.nz[r + 1:]
    coeff = (Mat.from_nonzeros(m.rows, m.cols, nz),) + mf.phi.coeff[1:]
    return spinor.FactorizationPair(mf.space, LinMat(mf.space.n, coeff), mf.psi)


def test_a_bumped_phi_fails_the_identity_the_fiber_ranks_rest_on(monkeypatch):
    # F-H6 has K = 0 and rank 6: no fiber point is eliminated, each rank is
    # read off phi psi = q Id, so a wrong phi shows in that identity:
    # build_factorization refuses it, and the factorization_identity
    # record of a pair bumped after the build fails
    fx = get_fixture("F-H6")
    assert radical_basis(fx.space).dim == 0
    calls = _count_calls(monkeypatch, "fiber_rank")
    assert _fiber_record(fx)["verdict"] == "pass" and calls == []
    module = spinor.build_ideal(fx.space, fx.w)
    bumped = _bumped_phi(spinor.build_factorization(module))
    module._act_ev = bumped.phi.coeff
    with pytest.raises(InvariantError, match="factorization identity failed"):
        spinor.build_factorization(module)
    real = verify.build_factorization
    monkeypatch.setattr(verify, "build_factorization", lambda i: _bumped_phi(real(i)))
    records = run_suite(fx, "construction").records
    assert [r["verdict"] for r in records if r["op"] == "factorization_identity"] == ["fail"]


def test_no_witness_on_a_form_of_rank_3_or_more_is_an_invariant_error(monkeypatch):
    # the search is complete on such a form, so finding no h is a bug
    fx = get_fixture("F-H6")
    monkeypatch.setattr(spinor, "anisotropic_orthogonal", lambda space, v: None)
    errors = [r for r in run_suite(fx, "construction").records if r["op"] == "invariant_error"]
    assert errors == [{"op": "invariant_error", "verdict": "fail", "details": {
        "suite": "construction",
        "message": "no anisotropic vector orthogonal to a point off the radical"}}]


def test_fiber_records_match_elimination_at_every_point():
    # the record with ranks off K read off the identity gives the verdict
    # and strata of eliminating every point, on the fixtures, the
    # basis-changed fixtures and every grid_spaces(6) pair
    cases = [get_fixture(label) for label in FIXTURE_LABELS]
    cases += [_basis_changed(k, fx) for k, fx in enumerate(cases)]
    cases += [Fixture(f"grid-{t}", space, w) for t, (space, w) in enumerate(grid_spaces(6))]
    for fx in cases:
        record = _fiber_record(fx)
        assert (record["verdict"], record["details"]["strata"]) \
            == fiber_record_by_elimination(fx), fx.label


def test_a_value_without_a_json_form_raises():
    # a float would reach a report as its repr, and an object without a
    # __repr__ as its memory address
    with pytest.raises(TypeError, match="float"):
        verify.Report("x", "all").add("x", "pass", v=0.5)


def test_a_basis_out_of_normal_form_is_an_invariant_error(monkeypatch):
    # twice the partner pairs to 1, not 1/2, with its tail: standardize's
    # normal-form check fires, and the run records a failed invariant
    # instead of taking it for a family certificate that does not apply
    fx = get_fixture("F-H6")
    real = quadform._solve_partner
    monkeypatch.setattr(quadform, "_solve_partner",
                        lambda *args: tuple(2 * x for x in real(*args)))
    with pytest.raises(InvariantError, match="normal form"):
        quadform.standardize(fx.space, fx.w)
    errors = [r for r in run_suite(fx, "dependence").records if r["op"] == "invariant_error"]
    assert errors == [{"op": "invariant_error", "verdict": "fail", "details": {
        "suite": "dependence", "message": "completed basis is not in normal form"}}]


def test_a_map_leaving_its_target_is_an_invariant_error(wrong_group_inverse):
    # a graded map whose image leaves its target raises SpanError, an
    # InvariantError with its witness: the run records it for the
    # dependence suite and runs the suites after it
    fx = get_fixture("F-H6a")
    module = spinor.build_ideal(fx.space, fx.w)
    g = verify.default_group_elements(fx.space)[0][1]
    with pytest.raises(SpanError, match="right multiplication misses the target") as err:
        spinor.equivariance_check(g, module)
    assert isinstance(err.value, InvariantError) and not err.value.witness.is_zero()
    records = run_suite(fx, "all").records
    assert [r for r in records if r["op"] == "invariant_error"] == [
        {"op": "invariant_error", "verdict": "fail", "details": {
            "suite": "dependence", "message": "right multiplication misses the target"}}]
    ops = {r["op"] for r in records}
    assert {"trace_pairing_nondegenerate", "acm_vanishing", "irreducibility"} <= ops


def test_w_cap_k_once_per_subspace_in_a_run(monkeypatch):
    # F-H6: W cap K of W, kept on it for every reader, W' cap K of the
    # flag's W', and W cap U in restrict_compare; no more intersections
    calls = []
    real = quadform.sub_intersection

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(quadform, "sub_intersection", counted)
    monkeypatch.setattr(spinor, "sub_intersection", counted)
    fx = get_fixture("F-H6")
    run_suite(fx, "all")
    assert len(calls) == 3
    assert calls[0][0] is fx.w and fx.w._cap_k is not None


@pytest.mark.parametrize("label", ["F-H6", "F-H6a"])
def test_transposed_action_once_per_module(monkeypatch, label):
    # the module's and the dual pair's: the Hom maps, the End certificate
    # and the irreducibility closures read the one each module keeps
    computed = []
    real = homalg.action_columns

    def spy(module):
        if module._columns is None:
            computed.append(type(module).__name__)
        return real(module)

    monkeypatch.setattr(homalg, "action_columns", spy)
    run_suite(get_fixture(label), "all")
    assert computed == ["IdealModule", "FactorizationPair"]


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
    for name in ("mult_map_rank", "transposed_mult_map_rank"):
        real = getattr(homalg, name)
        monkeypatch.setattr(homalg, name, lambda lm, t, name=name, real=real:
                            degrees.append((name, t)) or real(lm, t))
    for label in FIXTURE_LABELS:
        run_suite(get_fixture(label), "all")
    assert degrees == [("mult_map_rank", 2), ("transposed_mult_map_rank", 2)] * 6


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
    # certificate; the only other maps are the six combination maps of the
    # End(I) cross-checks
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
    assert len(maps) == 6 + sum(per_dual)
