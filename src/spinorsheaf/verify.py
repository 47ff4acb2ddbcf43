"""Verification suites: one record per checked statement, grouped to
mirror the construction, dependence, duality, linear-section and
stability chapters of the theory."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .clifford import GroupElement, trace_pairing_nondegenerate
from .errors import InvariantError, SpinorError
from .exactalg import Mat, rat_to_json
from .fixtures import Fixture
from .homalg import (
    WINDOW,
    cohomology_dim,
    euler_characteristic_matches,
    factorization_equivalent,
    hom_space,
    irreducibility_check,
    is_isomorphic,
    sheaf_numerics,
    simplicity_verdict,
)
from .quadform import (
    Subspace,
    candidate_vectors,
    intersection_with_radical,
    isotropic_type,
    quotient_space,
    radical_basis,
)
from .spinor import (
    build_factorization,
    build_ideal,
    cone_compare,
    dual_factorization,
    equivariance_check,
    fiber_rank,
    fiber_rank_from_identity,
    flag_sequence,
    recover_intersection_with_radical,
    restrict_compare,
    quadric_points,
    shift,
)

SUITES = ("construction", "dependence", "dual", "sections", "stability-numerics")


def jsonable(x):
    if isinstance(x, Fraction):
        return rat_to_json(x)
    if isinstance(x, Mat):
        # zero-filled rows, written from the nonzeros only
        rows = [[0] * x.cols for _ in range(x.rows)]
        for row, nz in zip(rows, x.nz):
            for j, v in nz:
                row[j] = rat_to_json(v)
        return rows
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    raise TypeError(f"no JSON form for {type(x).__name__}")


class Report:
    """Outcome of a verification run; the serialized form is fully
    deterministic (wall-clock timing stays out of it)."""

    def __init__(self, label, suite):
        self.label = label
        self.suite = suite
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
            "records": self.records,
            "counts": self.counts(),
            "overall": "pass" if self.overall(strict) else "fail",
        }

    def to_json(self, strict: bool = False) -> str:
        return json.dumps(self.to_dict(strict), sort_keys=True, indent=2) + "\n"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def default_group_elements(space):
    """Two even and one odd group element from the first three anisotropic
    ``candidate_vectors``."""
    c = list(islice((v for v in candidate_vectors(space) if space.q(v) != 0), 3))
    if len(c) < 2:
        raise SpinorError("no anisotropic vectors found for group elements")
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

    def __init__(self, fx):
        self.fx = fx
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


def run_suite(fx: Fixture, suite: str = "all", seed=None) -> Report:
    """Run one suite or all of them on a fixture.  An ``InvariantError``
    inside a suite becomes a ``fail`` record with op ``invariant_error``
    and the next suite runs; one raised while building the module or its
    factorization ends the run.  ``seed`` is ignored, and kept because
    ``perfbench/workloads.py`` passes one."""
    if suite != "all" and suite not in SUITES:
        raise SpinorError(f"unknown suite {suite!r}; choose from all, " + ", ".join(SUITES))
    chosen = SUITES if suite == "all" else (suite,)
    report = Report(fx.label, suite)
    t0 = time.perf_counter()
    run = _Run(fx)
    for name in chosen:
        try:
            _RUNNERS[name](run, report)
        except InvariantError as exc:
            report.add("invariant_error", "fail", suite=name, message=str(exc))
    report.timing = time.perf_counter() - t0
    return report


def _run_construction(run, report):
    fx, module, mf = run.fx, run.module, run.mf
    c = module.codim
    report.add(
        "dimension_law",
        _verdict(module.ev_dim == module.odd_dim == 1 << (c - 1)),
        ev=module.ev_dim, odd=module.odd_dim, codim=c,
    )
    report.add("factorization_identity", _verdict(mf.check_identity()), N=mf.N)
    rad = radical_basis(fx.space)
    wk = intersection_with_radical(fx.w)
    points = quadric_points(fx.space, fx.w)
    # the fiber ranks each stratum allows; c >= 1, as q has rank >= 2 and so
    # an isotropic W is never all of V
    allowed = {"singular_w": (1 << (c - 1),),
               "elsewhere": (1 << (c - 2),) if c >= 2 else (0, 1)}
    # off K on a form of rank >= 3 the checked identity fixes the rank at
    # N/2 (fiber_rank_from_identity); points of K and rank-2 forms, where the
    # record has content of its own, are eliminated
    by_identity = mf.identity_checked and fx.space.rank >= 3
    ok = True
    strata = dict.fromkeys(allowed, 0)
    for v in points:
        if by_identity and not rad.contains(v):
            _, fiber = fiber_rank_from_identity(mf, v)
        else:
            _, fiber = fiber_rank(mf, v)
        stratum = "singular_w" if wk.contains(v) else "elsewhere"
        strata[stratum] += 1
        if fiber not in allowed[stratum]:
            ok = False
    report.add("fiber_rank_stratification", _verdict(ok),
               points=len(points), strata=strata)


def _run_dependence(run, report):
    fx, module = run.fx, run.module
    space = fx.space
    got = recover_intersection_with_radical(module)
    report.add("recover_radical_intersection",
               _verdict(got.same_span(intersection_with_radical(fx.w))), dim=got.dim)

    j, k, _ = isotropic_type(space, fx.w)
    predicted_shift_iso = not (space.rank % 2 == 0 and j == k)
    verdict = is_isomorphic(module, shift(module))
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
        _verdict(end.certified()),
        dim=end.dimension,
    )

    fl = run.flag
    if fl is not None:
        report.add("flag_exactness", _verdict(fl.exact),
                   inner_N=fl.inner.ev_dim, outer_N=fl.outer.ev_dim)
        report.add("flag_split_agreement", _verdict(fl.split_agree),
                   subspace_test=fl.split_subspace, module_test=fl.split_module)
        if fl.split_subspace:
            # splitting lemma: beside a section sigma of an exact flag, the
            # inclusion gives an invertible intertwiner inner + inner[1] -> outer
            ok = fl.exact and fl.section is not None
            report.add("flag_direct_sum_iso", _verdict(ok),
                       reason="invertible intertwiner" if ok else "no section")

    evens, odd = default_group_elements(space)
    for t, g in enumerate(evens):
        v = equivariance_check(g, module)
        report.add(f"equivariance_even_{t}", _verdict(v.ok),
                   factors=[list(f) for f in g.factors])
    v = equivariance_check(odd, module)
    report.add("equivariance_odd", _verdict(v.ok),
               factors=[list(f) for f in odd.factors])


def _run_dual(run, report):
    space, module, mf = run.fx.space, run.module, run.mf
    report.add("trace_pairing_nondegenerate",
               _verdict(trace_pairing_nondegenerate(space)), size=1 << space.n)

    dual = dual_factorization(mf)
    report.add("dual_is_factorization", _verdict(dual.check_identity()))
    # the dual against I (odd codimension) or I[1], whose pair is the
    # swapped one (even); the certificate maps the dual to that pair
    source, expected = (module, "self") if module.codim % 2 else (shift(module), "swap")
    found = factorization_equivalent(source, dual)
    if found is None:
        report.add("dual_parity_equivalence", "UNDECIDED", expected=expected)
    else:
        report.add("dual_parity_equivalence", "pass", expected=expected,
                   certificate={"A": found[2], "B": found[3]})


def _run_sections(run, report):
    fx, module, mf = run.fx, run.module, run.mf
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
        verdict = cone_compare(module, quotient_space(fx.space, Subspace(fx.space, fx.cone_mod)))
        report.add("cone",
                   _verdict(bool(verdict.bijective and verdict.linear)),
                   dim_u=verdict.d, parity=verdict.parity,
                   matches=verdict.matches)
    n = fx.space.n
    if n - 2 >= 3:
        ok = True
        for i in range(1, n - 2):
            for t in range(-WINDOW, WINDOW + 1):
                if cohomology_dim(mf, i, t) != 0:
                    ok = False
        report.add("acm_vanishing", _verdict(ok), window=WINDOW)


def _run_stability(run, report):
    module, mf = run.module, run.mf
    num = sheaf_numerics(mf)
    if num.torsion_flag:
        report.add("sheaf_numerics", "pass", torsion=True)
    else:
        c = module.codim
        ok = num.rank == 1 << (c - 2) and num.slope == 1
        report.add("sheaf_numerics", _verdict(ok), rank=num.rank,
                   degree=num.degree, slope=num.slope)
    ok = True
    for t in range(-WINDOW, WINDOW + 1):
        if not euler_characteristic_matches(mf, num, t):
            ok = False
    report.add("euler_consistency", _verdict(ok), window=WINDOW)

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
        # a section sigma gives the idempotent sigma . q of End(outer), as
        # q . sigma = id; the subspace test predicts when sigma exists
        found = fl.section is not None
        report.add("jordan_hoelder_record", _verdict(found == fl.split_subspace),
                   split=fl.split_subspace,
                   end_dim=hom_space(fl.outer, fl.outer).dimension, idempotent_found=found)


_RUNNERS = {
    "construction": _run_construction,
    "dependence": _run_dependence,
    "dual": _run_dual,
    "sections": _run_sections,
    "stability-numerics": _run_stability,
}
