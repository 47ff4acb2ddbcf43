"""Verification suites: one record per checked statement, grouped to
mirror the construction, dependence, duality, linear-section and
stability chapters of the theory."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import cached_property

from .clifford import CliffordElement, GroupElement, trace_form
from .errors import SpinorError
from .exactalg import Mat, mat_rank, rat_to_json, rref_rows
from .fixtures import Fixture
from .homalg import (
    DEFAULT_SEED,
    check_window,
    cohomology_dim,
    euler_characteristic_matches,
    factorization_equivalent,
    hom_space,
    idempotent_probe,
    irreducibility_check,
    is_isomorphic,
    sheaf_numerics,
    simplicity_verdict,
)
from .quadform import Subspace, quotient_space, radical_basis, sub_intersection
from .spinor import (
    FactorizationPair,
    build_factorization,
    build_ideal,
    cone_compare,
    direct_sum,
    dual_factorization,
    equivariance_check,
    fiber_rank,
    flag_sequence,
    recover_intersection_with_radical,
    restrict_compare,
    sample_quadric_points,
    shift,
)

SUITES = ("construction", "dependence", "dual", "sections", "stability-numerics")


def jsonable(x):
    if isinstance(x, Fraction):
        return rat_to_json(x)
    if isinstance(x, Mat):
        return [[rat_to_json(x[i, j]) for j in range(x.cols)] for i in range(x.rows)]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, CliffordElement):
        return repr(x)
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    return repr(x)


class Report:
    """Outcome of a verification run; the serialized form is fully
    deterministic (wall-clock timing stays out of it)."""

    def __init__(self, label, suite, seed):
        self.label = label
        self.suite = suite
        self.seed = seed
        self.records = []
        self.timing = 0.0

    def add(self, op, verdict, **details):
        self.records.append(
            {"op": op, "verdict": verdict, "details": jsonable(details)}
        )

    def counts(self):
        out = {"pass": 0, "fail": 0, "UNDECIDED": 0}
        for r in self.records:
            out[r["verdict"]] += 1
        return out

    def overall(self, strict: bool = False) -> bool:
        for r in self.records:
            if r["verdict"] == "fail":
                return False
            if strict and r["verdict"] == "UNDECIDED":
                return False
        return True

    def to_dict(self, strict: bool = False) -> dict:
        return {
            "label": self.label,
            "suite": self.suite,
            "seed": self.seed,
            "records": self.records,
            "counts": self.counts(),
            "overall": "pass" if self.overall(strict) else "fail",
        }

    def to_json(self, strict: bool = False) -> str:
        return json.dumps(self.to_dict(strict), sort_keys=True, indent=2) + "\n"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def default_group_elements(space):
    """Two even and one odd group element from deterministic anisotropic
    candidates."""
    n = space.n
    candidates = []
    basis = [space.basis_vector(i) for i in range(n)]
    for v in basis:
        if space.q(v) != 0:
            candidates.append(v)
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                v = tuple(x + s * y for x, y in zip(basis[i], basis[j]))
                if space.q(v) != 0:
                    candidates.append(v)
        if len(candidates) >= 4:
            break
    if len(candidates) < 2:
        raise SpinorError("no anisotropic vectors found for group elements")
    c = candidates
    evens = [GroupElement(space, [c[0], c[1]])]
    if len(c) >= 3:
        evens.append(GroupElement(space, [c[0], c[2]]))
    else:
        evens.append(GroupElement(space, [c[1], c[0]]))
    odd = GroupElement(space, [c[0]])
    return evens, odd


class _Run:
    """What the suites of one run share: the module, its factorization,
    and, computed on first use, the flag sequence and End(module)."""

    def __init__(self, fx, seed, window):
        self.fx = fx
        self.seed = seed
        self.window = window
        self.module = build_ideal(fx.space, fx.w)
        self.mf = build_factorization(self.module)

    @cached_property
    def flag(self):
        """The fixture's flag sequence, or None when it names no flag."""
        if self.fx.flag_drop is None:
            return None
        return flag_sequence(self.module, self.fx.flag_drop)

    @cached_property
    def end(self):
        return hom_space(self.module, self.module)


def run_suite(fx: Fixture, suite: str = "all", seed: int = DEFAULT_SEED,
              window: int = 6) -> Report:
    if suite != "all" and suite not in SUITES:
        raise SpinorError(f"unknown suite {suite!r}; choose from all, " + ", ".join(SUITES))
    check_window(window)
    chosen = SUITES if suite == "all" else (suite,)
    report = Report(fx.label, suite, seed)
    t0 = time.perf_counter()
    run = _Run(fx, seed, window)
    for name in chosen:
        _RUNNERS[name](run, report)
    report.timing = time.perf_counter() - t0
    return report


def _run_construction(run, report):
    fx, module, mf, seed = run.fx, run.module, run.mf, run.seed
    c = module.codim
    report.add(
        "dimension_law",
        _verdict(module.ev_dim == module.odd_dim == 1 << (c - 1)),
        ev=module.ev_dim, odd=module.odd_dim, codim=c,
    )
    report.add("factorization_identity", _verdict(mf.check_identity()), N=mf.N)
    rad = radical_basis(fx.space)
    wk = sub_intersection(fx.w, rad)
    points = sample_quadric_points(fx.space, seed=seed)
    ok = True
    strata = {"singular_w": 0, "elsewhere": 0}
    for v in points:
        _, fiber = fiber_rank(mf, v)
        if wk.contains(v):
            strata["singular_w"] += 1
            if c >= 1 and fiber != 1 << (c - 1):
                ok = False
        elif c >= 2:
            strata["elsewhere"] += 1
            if fiber != 1 << (c - 2):
                ok = False
        else:
            strata["elsewhere"] += 1
            if fiber not in (0, 1):
                ok = False
    report.add("fiber_rank_stratification", _verdict(ok),
               points=len(points), strata=strata)


def _run_dependence(run, report):
    fx, module, seed = run.fx, run.module, run.seed
    space = fx.space
    rad = radical_basis(space)
    expected = sub_intersection(fx.w, rad)
    got = recover_intersection_with_radical(module)
    report.add("recover_radical_intersection",
               _verdict(got.same_span(expected)), dim=got.dim)

    k = space.rank // 2
    j = fx.w.dim - expected.dim
    predicted_shift_iso = not (space.rank % 2 == 0 and j == k)
    verdict = is_isomorphic(module, shift(module), seed=seed)
    if verdict.kind == "UNDECIDED":
        report.add("shift_isomorphism", "UNDECIDED", predicted=predicted_shift_iso)
    else:
        agrees = (verdict.kind == "ISO") == predicted_shift_iso
        report.add("shift_isomorphism", _verdict(agrees),
                   computed=verdict.kind, reason=verdict.reason,
                   predicted_iso=predicted_shift_iso)

    end = run.end
    report.add(
        "hom_route_crosscheck",
        _verdict(end.dimension == end.crosscheck_dimension
                 and end.companion_identity_holds),
        dim=end.dimension,
    )

    fl = run.flag
    if fl is not None:
        report.add("flag_exactness", _verdict(fl.exact),
                   inner_N=fl.inner.ev_dim, outer_N=fl.outer.ev_dim)
        report.add("flag_split_agreement", _verdict(fl.split_agree),
                   subspace_test=fl.split_subspace, module_test=fl.split_module)
        if fl.split_subspace:
            target = direct_sum(fl.inner, shift(fl.inner))
            iso = is_isomorphic(fl.outer, target, seed=seed)
            v = "pass" if iso.kind == "ISO" else ("UNDECIDED" if iso.kind == "UNDECIDED" else "fail")
            report.add("flag_direct_sum_iso", v, reason=iso.reason)

    evens, odd = default_group_elements(space)
    for t, g in enumerate(evens):
        v = equivariance_check(g, module)
        report.add(f"equivariance_even_{t}", _verdict(v.ok),
                   factors=[list(f) for f in g.factors])
    v = equivariance_check(odd, module)
    report.add("equivariance_odd", _verdict(v.ok and v.target_shifted),
               factors=[list(f) for f in odd.factors])


def _run_dual(run, report):
    space, module, mf = run.fx.space, run.module, run.mf
    n = space.n
    monos = [CliffordElement(space, {m: Fraction(1)}) for m in range(1 << n)]
    gram = Mat.from_rows([[trace_form(a, b) for b in monos] for a in monos])
    report.add("trace_pairing_nondegenerate",
               _verdict(mat_rank(gram) == 1 << n), size=1 << n)

    dual = dual_factorization(mf)
    report.add("dual_is_factorization", _verdict(dual.check_identity()))
    c = module.codim
    if c % 2 == 1:
        target = mf
        expected = "self"
    else:
        target = FactorizationPair(space, mf.psi, mf.phi)
        expected = "swap"
    cert = factorization_equivalent(dual, target, seed=run.seed)
    if cert is None:
        report.add("dual_parity_equivalence", "UNDECIDED", expected=expected)
    else:
        report.add("dual_parity_equivalence", "pass", expected=expected,
                   certificate={"A": cert["A"], "B": cert["B"]})


def _run_sections(run, report):
    fx, module, mf, window = run.fx, run.module, run.mf, run.window
    if fx.section_subspace is not None:
        u = Subspace(fx.space, fx.section_subspace)
        verdict = restrict_compare(module, u)
        if verdict.kind == "REDUCES_TO_FREE":
            report.add("restriction", "pass", kind=verdict.kind)
        else:
            report.add("restriction",
                       _verdict(bool(verdict.bijective and verdict.linear)),
                       parity=verdict.parity, matches=verdict.matches)
    if fx.cone_mod is not None:
        u = Subspace(fx.space, fx.cone_mod)
        qs = quotient_space(fx.space, u)
        wbar_vectors = [qs.project(v) for v in fx.w.basis]
        rows, _ = rref_rows(wbar_vectors, qs.space.n)
        wbar = Subspace(qs.space, rows)
        iq = build_ideal(qs.space, wbar)
        verdict = cone_compare(iq, qs)
        report.add("cone",
                   _verdict(bool(verdict.bijective and verdict.linear)),
                   dim_u=verdict.dim_u, parity=verdict.parity,
                   matches=verdict.matches)
    n = fx.space.n
    if n - 2 >= 3:
        ok = True
        for i in range(1, n - 2):
            for t in range(-window, window + 1):
                if cohomology_dim(mf, i, t, window) != 0:
                    ok = False
        report.add("acm_vanishing", _verdict(ok), window=window)


def _run_stability(run, report):
    module, mf, window = run.module, run.mf, run.window
    num = sheaf_numerics(mf)
    if num.torsion_flag:
        report.add("sheaf_numerics", "pass", torsion=True)
    else:
        c = module.codim
        ok = num.rank == 1 << (c - 2) and num.slope == 1
        report.add("sheaf_numerics", _verdict(ok), rank=num.rank,
                   degree=num.degree, slope=num.slope)
    ok = True
    for t in range(-window, window + 1):
        if not euler_characteristic_matches(mf, num, t, window):
            ok = False
    report.add("euler_consistency", _verdict(ok), window=window)

    sv = simplicity_verdict(module, end=run.end)
    report.add("simplicity_trichotomy", _verdict(sv.agree),
               end_dim=sv.end_dim, predicted=sv.predicted_simple, case=sv.case)

    irr = irreducibility_check(module)
    if irr.kind == "UNDECIDED":
        report.add("irreducibility", "UNDECIDED")
    else:
        report.add("irreducibility", "pass", kind=irr.kind,
                   witness=irr.witness, certificate=irr.certificate)

    fl = run.flag
    if fl is not None:
        end = hom_space(fl.outer, fl.outer)
        probe = idempotent_probe(end, seed=run.seed)
        if fl.split_subspace:
            v = "pass" if probe is not None else "UNDECIDED"
            report.add("jordan_hoelder_record", v, split=True,
                       end_dim=end.dimension, idempotent_found=probe is not None)
        else:
            v = "pass" if probe is None else "fail"
            report.add("jordan_hoelder_record", v, split=False,
                       end_dim=end.dimension, idempotent_found=probe is not None)


_RUNNERS = {
    "construction": _run_construction,
    "dependence": _run_dependence,
    "dual": _run_dual,
    "sections": _run_sections,
    "stability-numerics": _run_stability,
}
