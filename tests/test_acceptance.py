"""Acceptance criteria, one test per criterion, each printing a verdict
line.  All comparisons are exact (rational equality); the stated time
budgets are asserted where a criterion carries one."""

import time
from fractions import Fraction

import pytest

from spinorsheaf.exactalg import Mat, binomial_upoly
from spinorsheaf.fixtures import get_fixture, grid_spaces
from spinorsheaf.homalg import (
    cohomology_dim,
    euler_characteristic_matches,
    factorization_equivalent,
    hom_space,
    irreducibility_check,
    is_isomorphic,
    sheaf_numerics,
    simplicity_verdict,
)
from spinorsheaf.quadform import (
    QuadraticSpace,
    Subspace,
    quotient_space,
    radical_basis,
    sub_intersection,
)
from spinorsheaf.spinor import (
    FactorizationPair,
    build_factorization,
    build_ideal,
    cone_compare,
    dual_factorization,
    equivariance_check,
    fiber_rank,
    flag_sequence,
    intertwines,
    quadric_points,
    restrict_compare,
    shift,
)
from spinorsheaf.verify import default_group_elements

FIXTURES = ("F-H2", "F-QS", "F-QSb", "F-C5", "F-H6", "F-H6a")


def e(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


@pytest.fixture(scope="module")
def modules():
    out = {}
    for label in FIXTURES:
        fx = get_fixture(label)
        out[label] = build_ideal(fx.space, fx.w)
    return out


@pytest.fixture(scope="module")
def grid8():
    return [(space, w, build_ideal(space, w)) for space, w in grid_spaces(8)]


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_paper_example():
    from spinorsheaf.cli import paper_example_result

    t0 = time.perf_counter()
    result = paper_example_result()
    elapsed = time.perf_counter() - t0
    ok = result["verdict"] == "EQUIVALENT" and elapsed < 1.0
    report(1, ok, f"printed 4x4 factorization certified equivalent in {elapsed:.3f}s")


def test_criterion_02_03_factorization_identity_and_dimension_law(grid8, modules):
    t0 = time.perf_counter()
    ok_identity = True
    ok_dims = True
    for label, module in modules.items():
        mf = build_factorization(module)
        ok_identity &= mf.check_identity()
    for space, w, module in grid8:
        mf = build_factorization(module)
        ok_identity &= mf.check_identity()
        ok_dims &= module.ev_dim == module.odd_dim == 1 << (space.n - w.dim - 1)
    elapsed = time.perf_counter() - t0
    report(2, ok_identity and elapsed < 30.0,
           f"phi psi = psi phi = q Id on {len(grid8)} grid modules + fixtures "
           f"in {elapsed:.1f}s")
    report(3, ok_dims, f"N = 2^(codim W - 1) on all {len(grid8)} grid modules")


def test_criterion_04_fiber_stratification(modules):
    ok = True
    total = 0
    for label, module in modules.items():
        fx = get_fixture(label)
        mf = build_factorization(module)
        c = module.codim
        wk = sub_intersection(fx.w, radical_basis(fx.space))
        for v in quadric_points(fx.space, fx.w):
            total += 1
            _, fiber = fiber_rank(mf, v)
            if wk.contains(v):
                ok &= fiber == 1 << (c - 1)
            elif c >= 2:
                ok &= fiber == 1 << (c - 2)
            else:
                ok &= fiber in (0, 1)
    report(4, ok, f"fiber ranks stratify correctly on {total} explicit points")


def test_criterion_05_duality(modules):
    t0 = time.perf_counter()
    ok = True
    for label, expected in (("F-H6", "self"), ("F-QS", "swap"), ("F-QSb", "swap")):
        i = modules[label]
        mf = build_factorization(i)
        dual = dual_factorization(mf)
        source = i if expected == "self" else shift(i)
        target = mf if expected == "self" else FactorizationPair(mf.space, mf.psi, mf.phi)
        found = factorization_equivalent(source, dual)
        ok &= found is not None
        if found:
            # certified: an invertible module map source -> dual, whose
            # inverse gives A phi_dual = phi_target B
            A, B, ai, bi = found
            ok &= (A @ ai, B @ bi) == (Mat.identity(A.rows), Mat.identity(B.rows))
            ok &= intertwines(source, dual, A, B) and intertwines(dual, target, ai, bi)
    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 10.0,
           f"dual pairs equivalent per codim parity, certified in {elapsed:.2f}s")


def test_criterion_06_flags(modules):
    fx6 = get_fixture("F-H6")
    fl6 = flag_sequence(build_ideal(fx6.space, fx6.w), fx6.flag_drop)
    fxq = get_fixture("F-QS")
    flq = flag_sequence(build_ideal(fxq.space, fxq.w), fxq.flag_drop)
    ok = fl6.exact and fl6.split_subspace and fl6.split_module
    ok &= flq.exact and not flq.split_subspace and not flq.split_module
    checked = 0
    for space, w in grid_spaces(6):
        if w.dim < 2:
            continue
        for drop in w.basis:
            fl = flag_sequence(build_ideal(space, w), drop)
            ok &= fl.exact and fl.split_agree
            checked += 1
    report(6, ok,
           f"F-H6 flag splits, F-QS flag does not; subspace and module "
           f"splitting tests agree on {checked} grid flags")


def test_criterion_07_isomorphism_propositions(modules):
    verdicts = {
        "F-H6a vs shift": is_isomorphic(modules["F-H6a"], shift(modules["F-H6a"])),
        "F-H6 vs shift": is_isomorphic(modules["F-H6"], shift(modules["F-H6"])),
        "F-QS vs shift": is_isomorphic(modules["F-QS"], shift(modules["F-QS"])),
        "F-QS vs F-QSb": is_isomorphic(modules["F-QS"], modules["F-QSb"]),
    }
    ok = verdicts["F-H6a vs shift"].kind == "ISO"
    ok &= verdicts["F-H6 vs shift"].kind == "NOT_ISO"
    ok &= verdicts["F-QS vs shift"].kind == "NOT_ISO"
    ok &= verdicts["F-QS vs F-QSb"].kind == "NOT_ISO"
    ok &= all(v.kind != "UNDECIDED" for v in verdicts.values())
    report(7, ok, "shift and distinct-radical isomorphism verdicts match, none undecided")


def test_criterion_08_full_faithfulness(modules):
    groups = [("F-H2",), ("F-QS", "F-QSb"), ("F-C5",), ("F-H6", "F-H6a")]
    ok = True
    pairs = 0
    for group in groups:
        mods = []
        for label in group:
            mods.append(modules[label])
            mods.append(shift(modules[label]))
        for a in mods:
            for b in mods:
                h = hom_space(a, b)
                ok &= h.certified()
                ok &= all(intertwines(a, b, A, B) for A, B in map(h.pair, range(h.dimension)))
                pairs += 1
    report(8, ok,
           f"(A,B)-system and graded-module dims agree with psi' A = B psi "
           f"on {pairs} fixture pairs")


def test_criterion_09_simplicity(modules):
    sv6 = simplicity_verdict(modules["F-H6"])
    svq = simplicity_verdict(modules["F-QS"])
    sva = simplicity_verdict(modules["F-H6a"])
    ok = sv6.end_dim == 1 and svq.end_dim == 1
    ok &= sva.end_dim > 1
    fx6 = get_fixture("F-H6")
    fl = flag_sequence(build_ideal(fx6.space, fx6.w), fx6.flag_drop)
    split_end = hom_space(fl.outer, fl.outer)
    ok &= split_end.dimension == 2
    checked = 0
    for space, w in grid_spaces(6):
        module = build_ideal(space, w)
        sv = simplicity_verdict(module)
        ok &= sv.agree
        checked += 1
    report(9, ok,
           f"End dims: F-H6=1, F-QS=1, F-H6a={sva.end_dim}, split flag=2; "
           f"trichotomy matches on {checked} grid modules")


def test_criterion_10_irreducibility(modules):
    half = Fraction(1, 2)
    g = [[Fraction(0)] * 5 for _ in range(5)]
    g[0][0] = Fraction(1)
    for a, b in ((1, 3), (2, 4)):
        g[a][b] = half
        g[b][a] = half
    sp5 = QuadraticSpace(Mat.from_rows(g))
    odd5 = build_ideal(sp5, Subspace(sp5, [e(5, 3), e(5, 4)]))
    v6 = irreducibility_check(modules["F-H6"])
    v5 = irreducibility_check(odd5)
    vq = irreducibility_check(modules["F-QS"])
    va = irreducibility_check(modules["F-H6a"])
    ok = v6.kind == "IRREDUCIBLE" and v6.certificate is not None
    ok &= v5.kind == "IRREDUCIBLE" and v5.certificate is not None
    ok &= vq.kind == "REDUCIBLE" and vq.witness is not None
    ok &= va.kind == "REDUCIBLE" and va.witness is not None
    report(10, ok, "irreducibility certificates for maximal W, witnesses otherwise")


def test_criterion_11_numerics(modules):
    ok = True
    for label in FIXTURES:
        module = modules[label]
        mf = build_factorization(module)
        num = sheaf_numerics(mf)
        n = module.space.n
        # independent closed form: N * C(t + n - 2, n - 2)
        expected = binomial_upoly(n - 2, n - 2).scale(mf.N)
        ok &= num.hilbert == expected
        if module.codim == 1:
            ok &= num.torsion_flag
        else:
            ok &= not num.torsion_flag and num.slope == 1
        for t in range(-6, 7):
            ok &= euler_characteristic_matches(mf, num, t)
    report(11, ok, "slope 1, Hilbert closed form, Euler sums over t in [-6, 6]")


def test_criterion_12_acm_vanishing(modules):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for label in FIXTURES:
        module = modules[label]
        n = module.space.n
        if n - 2 < 3:
            continue
        mf = build_factorization(module)
        for i in range(1, n - 2):
            for t in range(-6, 7):
                ok &= cohomology_dim(mf, i, t) == 0
                checked += 1
    elapsed = time.perf_counter() - t0
    report(12, ok and elapsed < 60.0,
           f"h^i(S(t)) = 0 for 0 < i < dim Q on {checked} (i, t) pairs in {elapsed:.2f}s")


def test_criterion_13_restriction_and_cone(modules):
    fx6 = get_fixture("F-H6")
    rv = restrict_compare(modules["F-H6"], Subspace(fx6.space, fx6.section_subspace))
    ok = rv.kind == "ISOMORPHIC" and rv.bijective and rv.linear and rv.parity == 1
    fx5 = get_fixture("F-C5")
    qs = quotient_space(fx5.space, Subspace(fx5.space, fx5.cone_mod))
    cv = cone_compare(modules["F-C5"], qs)
    ok &= cv.bijective and cv.linear and cv.d == 1 and cv.parity == 1
    report(13, ok,
           "hyperplane restriction shifts by codim U, cone pullback by dim U, "
           "both bijective and Cl-linear")


def test_criterion_14_equivariance(modules):
    ok = True
    count = 0
    for label in FIXTURES:
        module = modules[label]
        evens, odd = default_group_elements(module.space)
        for g in evens:
            ok &= equivariance_check(g, module).ok
            count += 1
        v = equivariance_check(odd, module)
        ok &= v.ok and v.parity == 1
        count += 1
    report(14, ok,
           f"commuting squares for {count} group elements "
           f"(two even and one odd per fixture, odd against the shift)")
