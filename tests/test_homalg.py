import math
from fractions import Fraction

import pytest

from spinorsheaf.clifford import CliffordElement
from spinorsheaf.errors import InvariantError, PreconditionError
from spinorsheaf.exactalg import LinMat, Mat, UniPoly, mat_invertible, mat_rank, mat_rank_kernel
from spinorsheaf.fixtures import FIXTURE_LABELS, get_fixture, grid_spaces
from spinorsheaf import homalg
from spinorsheaf.homalg import (
    _closure_from_coords,
    cohomology_dim,
    euler_characteristic_matches,
    factorization_equivalent,
    hom_space,
    idempotent_probe,
    irreducibility_check,
    is_isomorphic,
    predict_simplicity,
    sheaf_numerics,
    simplicity_verdict,
)
from spinorsheaf.quadform import QuadraticSpace, Subspace, isotropic_type
from spinorsheaf.spinor import (
    FactorizationPair,
    build_factorization,
    build_ideal,
    dual_factorization,
    family_indicator,
    flag_sequence,
    intertwines,
    recover_intersection_with_radical,
    shift,
)

from dense_oracles import (
    block_diag,
    canonical,
    element_closure,
    eliminated_cohomology_dim,
    grade_parts,
    hom_basis,
    monomial,
    scale,
)


def e(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def module(label):
    fx = get_fixture(label)
    return build_ideal(fx.space, fx.w)


def odd5_module():
    half = Fraction(1, 2)
    g = [[Fraction(0)] * 5 for _ in range(5)]
    g[0][0] = Fraction(1)
    for a, b in ((1, 3), (2, 4)):
        g[a][b] = half
        g[b][a] = half
    sp = QuadraticSpace(Mat.from_rows(g))
    return build_ideal(sp, Subspace(sp, [e(5, 3), e(5, 4)]))


def dense_hom_oracle(a, b):
    """Hom(a, b) as the 2N^2-unknown matrix system, built as dense rows:
    the kernel basis of A phi = phi' B, and the kernel dimension once
    B psi = psi' A is imposed as well.  The rows start at int 0, so an
    integral form keeps int entries."""
    zero = 0
    na = b.odd_dim * a.odd_dim
    nvars = na + b.ev_dim * a.ev_dim
    phi_rows, psi_rows = [], []
    for i in range(a.space.n):
        phi, phi_p = a.act_ev[i], b.act_ev[i]
        for r in range(b.odd_dim):
            for c in range(a.ev_dim):
                row = [zero] * nvars
                for t in range(a.odd_dim):
                    row[r * a.odd_dim + t] += phi[t, c]
                for t in range(b.ev_dim):
                    row[na + t * a.ev_dim + c] -= phi_p[r, t]
                phi_rows.append(row)
        psi, psi_p = a.act_odd[i], b.act_odd[i]
        for r in range(b.ev_dim):
            for c in range(a.odd_dim):
                row = [zero] * nvars
                for t in range(a.ev_dim):
                    row[na + r * a.ev_dim + t] += psi[t, c]
                for t in range(b.odd_dim):
                    row[t * a.odd_dim + c] -= psi_p[r, t]
                psi_rows.append(row)
    _, kernel = mat_rank_kernel(Mat.from_rows(phi_rows))
    both = nvars - mat_rank(Mat.from_rows(phi_rows + psi_rows))
    return kernel, both


def route_cases():
    """(source, target) for the 40 modules of the fixtures and of
    grid_spaces(5): sources I and I[1], targets I, I[1], the dual pair and
    the swapped pair."""
    cases = [(get_fixture(label).space, get_fixture(label).w) for label in FIXTURE_LABELS]
    for space, w in cases + grid_spaces(5):
        i = build_ideal(space, w)
        mf = build_factorization(i)
        swapped = FactorizationPair(space, mf.psi, mf.phi)
        for a in (i, shift(i)):
            for b in (i, shift(i), dual_factorization(mf), swapped):
                yield a, b


class TestHomSpace:
    def test_matches_dense_oracle_on_grid(self):
        # the basis maps span the kernel of the 2N^2-unknown matrix system
        # (basis equality gave way to span equality), and every one of them
        # intertwines
        count = 0
        for a, b in route_cases():
            kernel, both = dense_hom_oracle(a, b)
            h = hom_space(a, b)
            assert h.dimension == len(kernel) == both == h.crosscheck_dimension
            flat = [A.entries + B.entries for A, B in hom_basis(h)]
            assert mat_rank(Mat.from_rows(flat + list(kernel))) == h.dimension
            count += 1
        assert count == 320

    def test_pair_source_raises(self):
        mf = build_factorization(module("F-H6"))
        with pytest.raises(PreconditionError, match="ideal module"):
            hom_space(mf, module("F-H6"))
        with pytest.raises(PreconditionError, match="ideal module"):
            factorization_equivalent(mf, mf)
        # an isomorphism test searches from a side that is an ideal module
        with pytest.raises(PreconditionError, match="ideal module"):
            is_isomorphic(mf, mf)
        assert is_isomorphic(mf, module("F-H6")).kind == "ISO"

    def test_route_disagreement_raises(self):
        # a target action scaled off the Clifford relations: the kernel of
        # w.x = 0 still has dimension 1, its map fails ``intertwines``, and
        # the search that reads it raises
        a = module("F-H6")
        b = module("F-H6")
        act = b.act_odd
        b._act_odd = (scale(act[0], 2),) + act[1:]
        h = hom_space(a, b)
        assert (h.dimension, h.crosscheck_dimension) == (1, 0)
        with pytest.raises(InvariantError, match="does not intertwine"):
            is_isomorphic(a, b)

    def test_corrupted_pair_fails_the_certificate_check(self, request):
        # a generator image off the annihilator kernel gives a map that is
        # no module map: the cross-check counts it out, and the search that
        # reads it raises
        a = module("F-H6")
        assert is_isomorphic(a, a).kind == "ISO"
        request.getfixturevalue("corrupted_image")
        h = hom_space(a, a)
        assert (h.dimension, h.crosscheck_dimension) == (1, 0)
        with pytest.raises(InvariantError, match="does not intertwine"):
            is_isomorphic(a, a)

    def test_end_dims(self):
        assert hom_space(module("F-H6"), module("F-H6")).dimension == 1
        assert hom_space(module("F-QS"), module("F-QS")).dimension == 1

    def test_split_flag_outer_end(self):
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        assert hom_space(fl.outer, fl.outer).dimension == 2

    def test_companion_identity(self):
        # every basis pair respects the whole action, B psi = psi' A too
        for label in ("F-H2", "F-QS", "F-C5", "F-H6"):
            i = module(label)
            h = hom_space(i, i)
            assert all(intertwines(i, i, A, B) for A, B in hom_basis(h))
            assert h.crosscheck_dimension == h.dimension

    def test_dimension_builds_no_map(self, monkeypatch):
        # the dimension is the kernel on N unknowns; the source walk and its
        # inverse are built with the first map, and the cross-check is read
        # on first use
        calls = []
        real = homalg.mat_invertible
        monkeypatch.setattr(homalg, "mat_invertible",
                            lambda m: calls.append(m) or real(m))
        i = module("F-H6a")
        h = hom_space(i, i)
        assert (h.dimension, calls) == (8, [])
        assert h.pair(3) == h.pair(3)
        assert len(calls) == 2
        assert h.crosscheck_dimension == 8 and len(calls) == 2

    def test_map_takes_the_generator_to_its_image(self):
        # the map of x sends g to x, in the part (dim W + shift) mod 2
        # that holds g
        for label in ("F-H6", "F-QS"):
            i = module(label)
            for src in (i, shift(i)):
                h = hom_space(src, shift(i))
                part = (src.w.dim + src.shift) % 2
                g = src.coords_in(part, src.generator)
                for k in range(h.dimension):
                    A, B = h.pair(k)
                    assert (A if part else B).mul_vec(g) == h._kernel[k]

    def test_intertwining_equations_hold(self):
        a = module("F-QS")
        b = shift(a)
        h = hom_space(a, b)
        for A, B in hom_basis(h):
            for t in range(a.space.n):
                assert A @ a.act_ev[t] == b.act_ev[t] @ B
                assert B @ a.act_odd[t] == b.act_odd[t] @ A

    def test_space_mismatch(self):
        with pytest.raises(PreconditionError):
            hom_space(module("F-H6"), module("F-QS"))

    def test_hom_between_different_w(self):
        # split additivity: Hom(S', S) for the flag has dimension 1
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        assert hom_space(fl.outer, fl.inner).dimension == 1
        assert hom_space(fl.inner, fl.outer).dimension == 1


class TestIsIsomorphic:
    def test_shift_iso_small_pi(self):
        i = module("F-H6a")
        v = is_isomorphic(i, shift(i))
        assert v.kind == "ISO"
        assert v.certificate is not None

    def test_shift_not_iso_maximal_pi(self):
        for label in ("F-H6", "F-QS"):
            i = module(label)
            v = is_isomorphic(i, shift(i))
            assert v.kind == "NOT_ISO"
            assert v.reason == "family indicator"

    def test_distinct_radical_intersection(self):
        v = is_isomorphic(module("F-QS"), module("F-QSb"))
        assert v.kind == "NOT_ISO"
        assert "radical" in v.reason

    def test_self_iso(self):
        i = module("F-C5")
        assert is_isomorphic(i, i).kind == "ISO"

    def test_symmetry_on_fixtures(self):
        mods = {label: module(label) for label in ("F-QS", "F-QSb")}
        mods["F-QS-shift"] = shift(mods["F-QS"])
        labels = list(mods)
        for x in labels:
            for y in labels:
                assert (
                    is_isomorphic(mods[x], mods[y]).kind
                    == is_isomorphic(mods[y], mods[x]).kind
                )

    def test_iso_certificate_is_intertwiner(self):
        i = module("F-H6a")
        v = is_isomorphic(i, shift(i))
        A, B = v.certificate["A"], v.certificate["B"]
        b = shift(i)
        for t in range(i.space.n):
            assert A @ i.act_ev[t] == b.act_ev[t] @ B

    @staticmethod
    def count_hom_calls(monkeypatch, replace=None):
        """Count the ``hom_space`` calls of ``is_isomorphic``; ``replace``
        may stand in for a call's result."""
        calls = []
        real = homalg.hom_space

        def counted(src, dst):
            calls.append((src, dst))
            h = real(src, dst)
            return replace(src, dst, h) if replace else h

        monkeypatch.setattr(homalg, "hom_space", counted)
        return calls

    def test_found_map_skips_the_end_spaces(self, monkeypatch):
        # an isomorphism a -> b forces equal End dimensions, so the search
        # that finds one needs no End space
        i = module("F-H6")
        calls = self.count_hom_calls(monkeypatch)
        v = is_isomorphic(i, i)
        assert (v.kind, v.reason) == ("ISO", "invertible intertwiner")
        assert calls == [(i, i)]

    def test_end_dimensions_differ(self, monkeypatch):
        # no invertible map found and End(b) one larger than End(a): the
        # comparison still refuses the pair, with both dimensions
        a, b = module("F-H6"), module("F-H6")

        class Larger:
            def __init__(self, h):
                self.dimension = h.dimension + 1

        def larger_end_b(src, dst, h):
            return Larger(h) if src is dst is b else h

        calls = self.count_hom_calls(monkeypatch, larger_end_b)
        monkeypatch.setattr(homalg, "_search_invertible", lambda hom: None)
        v = is_isomorphic(a, b)
        assert (v.kind, v.reason) == ("NOT_ISO", "endomorphism dimensions differ")
        assert v.certificate == {"end_a": 1, "end_b": 2}
        assert calls == [(a, b), (a, a), (b, b)]


class TestAnnihilator:
    def test_matches_radical_intersections(self):
        assert recover_intersection_with_radical(module("F-H6")).dim == 0
        got = recover_intersection_with_radical(module("F-QS"))
        assert got.dim == 1 and got.contains(e(4, 2))


class TestSimplicity:
    def test_fixture_trichotomy(self):
        expected = {
            "F-H2": (1, "maximal"),
            "F-QS": (1, "corank-one-in-radical"),
            "F-QSb": (1, "corank-one-in-radical"),
            "F-C5": (2, "otherwise"),
            "F-H6": (1, "maximal"),
        }
        for label, (dim, case) in expected.items():
            sv = simplicity_verdict(module(label))
            assert sv.end_dim == dim
            assert sv.case == case
            assert sv.agree

    def test_fh6a_not_simple(self):
        sv = simplicity_verdict(module("F-H6a"))
        assert sv.end_dim == 8
        assert not sv.computed_simple and not sv.predicted_simple
        assert sv.agree

    def test_predict_only(self):
        fx = get_fixture("F-H6")
        assert predict_simplicity(fx.space, fx.w) == (True, "maximal")


class TestSearchInvertible:
    def test_sweep_visits_coefficients_in_order(self):
        # every basis pair is singular, and so is the first sweep point
        # (1, 1, 1); (1, 1, -1) comes before (1, 1, 0), which is invertible too
        from types import SimpleNamespace

        from spinorsheaf.homalg import _search_invertible

        class HandBuiltHom:
            """A = B = [[c0, c0], [c1, c2]] for the coefficients c; no
            action to respect over a space of dimension 0."""

            dimension = 3
            source = target = SimpleNamespace(space=SimpleNamespace(n=0), ev_dim=2, odd_dim=2)
            mats = (Mat.from_rows([[1, 1], [0, 0]]), Mat.from_rows([[0, 0], [1, 0]]),
                    Mat.from_rows([[0, 0], [0, 1]]))

            def pair(self, k):
                return self.mats[k], self.mats[k]

            def at(self, cs):
                m = LinMat(3, self.mats).evaluate(cs)
                return m, m

        A, B, ai, bi = _search_invertible(HandBuiltHom())
        assert A == B == Mat.from_rows([[1, 1], [1, -1]])
        assert ai == scale(Mat.from_rows([[1, 1], [1, -1]]), Fraction(1, 2))

    def test_search_stops_at_a_singular_first(self, monkeypatch):
        # every candidate pair has A = 0 and B = Id: A is inverted and found
        # singular each time, and B is never inverted
        from types import SimpleNamespace

        from spinorsheaf.homalg import _search_invertible

        class HandBuiltHom:
            dimension = 1
            source = target = SimpleNamespace(space=SimpleNamespace(n=0), ev_dim=1, odd_dim=1)

            def pair(self, k):
                return Mat.zeros(1, 1), Mat.identity(1)

            def at(self, cs):
                return self.pair(0)

        calls = []
        real = homalg.mat_invertible
        monkeypatch.setattr(homalg, "mat_invertible", lambda m: calls.append(m) or real(m))
        assert _search_invertible(HandBuiltHom()) is None
        # the basis pair, the sweep points 1 and -1, and the 3 ramps
        assert calls == [Mat.zeros(1, 1)] * 6

    def test_simplicity_verdict_reuses_a_given_end(self):
        i = module("F-C5")
        end = hom_space(i, i)
        assert simplicity_verdict(i, end=end).end_dim == simplicity_verdict(i).end_dim == 2


class TestClosure:
    @staticmethod
    def closure(i, seed):
        # the closure of a seed element of an unshifted module, from its
        # coordinates in both parts
        ev, odd = grade_parts(seed)
        return _closure_from_coords(homalg._action_columns(i),
                                    [i.coords_in(0, ev)], [i.coords_in(1, odd)])

    def test_generator_generates(self):
        i = module("F-H6")
        assert self.closure(i, i.generator) == (4, 4)

    def test_zero_seed(self):
        i = module("F-H6")
        assert self.closure(i, CliffordElement.zero(i.space)) == (0, 0)

    def test_fqs_proper_submodule(self):
        i = module("F-QS")
        seed = monomial(i.space, (1, 2, 3))
        assert self.closure(i, seed) == (1, 1)

    def test_matches_products_of_elements(self):
        # the closure of each basis element, from the action columns that
        # irreducibility_check computes once, against the span grown by
        # Clifford products (the other part's columns give a different
        # closure for 66 of these seeds)
        cases = [(get_fixture(label).space, get_fixture(label).w) for label in FIXTURE_LABELS]
        seeds = 0
        for space, w in cases + grid_spaces(5):
            i = build_ideal(space, w)
            columns = homalg._action_columns(i)
            for par, basis in ((0, i.ev_basis), (1, i.odd_basis)):
                for x in basis:
                    coords = i.coords_in(par, x)
                    seed = ([()], [coords]) if par else ([coords], [()])
                    assert _closure_from_coords(columns, *seed) == element_closure(i, par, x)
                    seeds += 1
        assert seeds == 318


class TestIrreducibility:
    def test_fh6_certificate(self):
        v = irreducibility_check(module("F-H6"))
        assert v.kind == "IRREDUCIBLE"
        assert "w kills the generator" in v.certificate["identities"]

    def test_odd_rank_certificate(self):
        v = irreducibility_check(odd5_module())
        assert v.kind == "IRREDUCIBLE"
        assert any("anisotropic" in c for c in v.certificate["identities"])

    def test_reducible_witnesses(self):
        for label in ("F-QS", "F-H6a"):
            v = irreducibility_check(module(label))
            assert v.kind == "REDUCIBLE"
            assert v.witness["ev_dim"] + v.witness["odd_dim"] > 0

    def test_identities_hold_on_reducible_modules(self):
        # the standardized identities are a consistency record, not a proof
        # of irreducibility: they hold on these REDUCIBLE modules as well
        for label in ("F-QS", "F-QSb"):
            i = module(label)
            assert homalg._irreducibility_certificate(i) is not None
            assert irreducibility_check(i).kind == "REDUCIBLE"
            assert predict_simplicity(i.space, i.w)[1] != "maximal"


class TestStandardizedCertificates:
    """``family_indicator`` and ``_irreducibility_certificate`` read the
    standardized basis on the module itself; the oracles rebuild the module
    on the standardized copy of the space and detect its profile there."""

    @staticmethod
    def outcome(f, x):
        try:
            return f(x)
        except PreconditionError:
            return None

    def test_match_the_standardized_module(self):
        from dense_oracles import (
            standardized_family_indicator,
            standardized_irreducibility_certificate,
        )

        cases = [(get_fixture(label).space, get_fixture(label).w) for label in FIXTURE_LABELS]
        cases += grid_spaces(6)
        indicators, certificates, maximal = [], [], 0
        for space, w in cases:
            m = build_ideal(space, w)
            for x in (m, shift(m)):
                ind = self.outcome(family_indicator, x)
                assert ind == self.outcome(standardized_family_indicator, x)
                cert = self.outcome(homalg._irreducibility_certificate, x)
                assert cert == standardized_irreducibility_certificate(x)
                indicators.append(ind)
                certificates.append(cert)
            maximal += predict_simplicity(space, w)[1] == "maximal"
        # the comparison covers both indicator values and every maximal w
        assert len(cases) == 72 and maximal == 17
        assert indicators.count("EVEN") == indicators.count("ODD") == 26
        assert sum(c is not None for c in certificates) == 78

    def test_family_certificate_flips_on_the_shift(self):
        i = module("F-H6")
        cert = homalg._family_certificate(i)
        assert cert["shifted_indicator"] == family_indicator(shift(i)) != cert["indicator"]
        assert homalg._family_certificate(module("F-H6a")) is None


class TestNumerics:
    def test_fixture_values(self):
        for label, rank in (("F-QS", 1), ("F-QSb", 1), ("F-C5", 2), ("F-H6", 2)):
            num = sheaf_numerics(build_factorization(module(label)))
            assert not num.torsion_flag
            assert num.rank == rank
            assert num.slope == 1

    def test_fh6_closed_form(self):
        num = sheaf_numerics(build_factorization(module("F-H6")))
        # 4 * (C(t+5,5) - C(t+4,5)) = (t+1)(t+2)(t+3)(t+4)/6
        expected = UniPoly([Fraction(4), Fraction(25, 3), Fraction(35, 6),
                            Fraction(5, 3), Fraction(1, 6)])
        assert num.hilbert == expected
        assert num.hilbert(0) == 4

    def test_hilbert_degree_raises(self, monkeypatch):
        from spinorsheaf import homalg

        monkeypatch.setattr(homalg, "binomial_upoly",
                            lambda offset, k: UniPoly([offset]))
        # the quadric's polynomials are cached on n: read them uncached here
        monkeypatch.setattr(homalg, "_quadric_polys", homalg._quadric_polys.__wrapped__)
        with pytest.raises(InvariantError, match="Hilbert polynomial"):
            sheaf_numerics(build_factorization(module("F-H6")))

    def test_torsion_flag(self):
        num = sheaf_numerics(build_factorization(module("F-H2")))
        assert num.torsion_flag
        assert num.slope is None

    @pytest.mark.parametrize("label", FIXTURE_LABELS)
    def test_dual_pair_has_the_same_numerics(self, label):
        # only n and N are read, so the dual pair has the same numerics
        mf = build_factorization(module(label))
        num, dual = sheaf_numerics(mf), sheaf_numerics(dual_factorization(mf))
        assert (dual.hilbert, dual.slope, dual.torsion_flag) == (
            num.hilbert, num.slope, num.torsion_flag)


class TestCohomology:
    def test_h0_values(self):
        m6 = build_factorization(module("F-H6"))
        assert cohomology_dim(m6, 0, 0) == 4

    def test_acm_vanishing(self):
        m6 = build_factorization(module("F-H6"))
        for i in (1, 2, 3):
            for t in range(-5, 6):
                assert cohomology_dim(m6, i, t) == 0

    def test_euler_consistency(self):
        for label in ("F-H2", "F-QS", "F-C5", "F-H6"):
            m = build_factorization(module(label))
            num = sheaf_numerics(m)
            for t in range(-5, 6):
                assert euler_characteristic_matches(m, num, t)

    def test_top_cohomology_nonzero_for_negative_twist(self):
        m6 = build_factorization(module("F-H6"))
        assert cohomology_dim(m6, 4, -5) == 4
        assert cohomology_dim(m6, 4, -6) == 20

    def test_window_enforced(self):
        # the twist is unbounded (test_any_twist_matches_the_closed_form);
        # the index must name a cohomology group
        m = build_factorization(module("F-QS"))
        with pytest.raises(PreconditionError):
            cohomology_dim(m, 7, 0)

    def test_any_twist_matches_the_closed_form(self):
        # coker(O(-1)^N -> O^N) on P^{n-1}: h^0 in degree d = t and the top
        # index in degree d = -t-n+1 are N (C(d+n-1, n-1) - C(d+n-2, n-1)),
        # far outside the twists the suites check
        def comb(a, b):
            return math.comb(a, b) if a >= 0 else 0

        def coker(N, n, d):
            return N * (comb(d + n - 1, n - 1) - comb(d + n - 2, n - 1))

        for label in FIXTURE_LABELS:
            mf = build_factorization(module(label))
            n, N = mf.space.n, mf.N
            for t in (7, -7, 13, -13, 10 ** 5, -10 ** 5):
                h0, top = coker(N, n, t), coker(N, n, -t - n + 1)
                if n == 2:
                    assert cohomology_dim(mf, 0, t) == h0 + top
                    continue
                assert cohomology_dim(mf, 0, t) == h0
                assert cohomology_dim(mf, n - 2, t) == top
                assert all(cohomology_dim(mf, i, t) == 0 for i in range(1, n - 2))

    def test_identity_route_agrees_with_elimination(self):
        pairs = [build_factorization(module(label)) for label in FIXTURE_LABELS]
        pairs += [build_factorization(build_ideal(space, w))
                  for space, w in grid_spaces(6) if space.n in (5, 6)]
        dual = dual_factorization(pairs[FIXTURE_LABELS.index("F-H6")])
        pairs.append(dual)
        assert len(pairs) == 6 + 51 + 1 and not dual.identity_checked
        for mf in pairs:
            for idx in range(max(mf.space.n - 1, 1)):
                for t in range(-6, 7):
                    assert cohomology_dim(mf, idx, t) == eliminated_cohomology_dim(mf, idx, t)
        assert dual.identity_checked

    def test_pair_failing_the_identity_is_rejected(self):
        # psi scaled by 2 gives psi phi = 2q Id: no resolution, so no index
        # is read off it, the middle ones behind acm_vanishing included
        mf = build_factorization(module("F-H6"))
        psi2 = LinMat(mf.space.n, [scale(m, 2) for m in mf.psi.coeff])
        bad = FactorizationPair(mf.space, mf.phi, psi2)
        for idx in (0, 2):
            with pytest.raises(PreconditionError, match="phi psi = q Id fails"):
                cohomology_dim(bad, idx, 1)
        assert not bad.identity_checked

    def test_cross_check_disagreement_raises(self, monkeypatch):
        rank = homalg.mult_map_rank
        monkeypatch.setattr(homalg, "mult_map_rank", lambda lm, t: rank(lm, t) - 1)
        mf = build_factorization(module("F-H6"))
        assert cohomology_dim(mf, 0, 1) == 4 * (6 - 1)
        with pytest.raises(InvariantError, match="rank 23 in degree 2, expected 24"):
            cohomology_dim(mf, 0, 2)

    def test_explicit_identity_check_runs_in_full(self, monkeypatch):
        # the gate reads identity_checked; check_identity itself is not
        # memoized, so an explicit call after build_factorization repeats
        # every row product (counted as reads of the coefficient rows)
        reads = []

        class Counted(list):
            def __getitem__(self, k):
                reads.append(k)
                return list.__getitem__(self, k)

        int_rows = LinMat.int_rows
        monkeypatch.setattr(LinMat, "int_rows",
                            lambda self: (int_rows(self)[0], Counted(int_rows(self)[1])))
        mf = build_factorization(module("F-QS"))
        built = len(reads)
        assert mf.identity_checked and built > 0
        assert mf.check_identity()
        assert len(reads) == 2 * built


class TestIdempotentProbe:
    def test_split_flag_has_idempotent(self):
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        end = hom_space(fl.outer, fl.outer)
        assert end.dimension == 2
        probe = idempotent_probe(end)
        assert probe is not None
        A, B = probe["A"], probe["B"]
        assert A @ A == A and B @ B == B

    def test_split_flag_candidate_is_pinned(self):
        # the half-integer grid runs in product order from (0, ..., 0); the
        # first basis map is the identity (its generator image is g) and the
        # second is itself idempotent, so (0, 1) is the first hit
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        end = hom_space(fl.outer, fl.outer)
        assert end.pair(0) == (Mat.identity(8), Mat.identity(8))
        assert idempotent_probe(end)["coeffs"] == (0, 1)

    def test_combine_matches_the_dense_sum(self):
        # the running sum of scaled basis pairs is the reference
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        end = hom_space(fl.outer, fl.outer)
        for cs in ((1, 0), (0, -1), (Fraction(-1, 2), 3), (0, 0), (2, Fraction(1, 3))):
            dense = []
            for which in (0, 1):
                basis = hom_basis(end)
                acc = Mat.zeros(basis[0][which].rows, basis[0][which].cols)
                for c, pair in zip(cs, basis):
                    if c:
                        acc = acc + scale(pair[which], c)
                dense.append(acc)
            got = end.at(cs)
            assert got == tuple(dense)
            assert all(canonical(x) for m in got for x in m.entries)

    def test_nonsplit_flag_has_none(self):
        fx = get_fixture("F-QS")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        end = hom_space(fl.outer, fl.outer)
        assert end.dimension == 2
        assert idempotent_probe(end) is None


class TestFactorizationEquivalence:
    def test_pair_is_a_module(self):
        mf = build_factorization(module("F-QS"))
        assert (mf.ev_dim, mf.odd_dim) == (2, 2)
        assert (mf.act_ev, mf.act_odd) == (mf.phi.coeff, mf.psi.coeff)

    def test_factorization_is_the_plain_pair_of_the_action(self):
        i = module("F-H6")
        mf = build_factorization(i)
        assert type(mf) is FactorizationPair
        assert mf.act_ev is i.act_ev and mf.act_odd is i.act_odd

    def test_self_equivalent(self):
        i = module("F-H6")
        mf = build_factorization(i)
        A, B, ai, bi = factorization_equivalent(i, mf)
        assert intertwines(i, mf, A, B) and intertwines(mf, i, ai, bi)

    @pytest.mark.parametrize("index", [35, 44])
    def test_last_basis_map_certifies_the_dual(self, index):
        # n = 6, dim W = 2: codim 4, so the dual is compared with I[1]; of
        # the 8 basis maps I[1] -> dual only the last is invertible, the
        # search reads the basis from the last, and that map is the
        # certificate
        space, w = grid_spaces(6)[index]
        i = build_ideal(space, w)
        dual = dual_factorization(build_factorization(i))
        hom = hom_space(shift(i), dual)
        assert hom.dimension == 8
        invertible = [mat_invertible(A) is not None and mat_invertible(B) is not None
                      for A, B in hom_basis(hom)]
        assert invertible == [False] * 7 + [True]
        A, B, ai, bi = factorization_equivalent(shift(i), dual)
        assert (A, B) == hom.pair(7)
        # the inverse maps the dual to I[1], whose pair is the swapped one
        assert intertwines(dual, shift(i), ai, bi)

    def test_ramps_follow_the_basis_beyond_the_sweep(self):
        # d = 7 skips the sweep; the basis pairs, read from the last (five
        # zero pairs, diag(0, 1), diag(1, 0)), are singular, and the first
        # ramp (1, ..., 7) gives diag(1, 2)
        from types import SimpleNamespace

        from spinorsheaf.homalg import _search_invertible

        class HandBuiltHom:
            dimension = 7
            source = target = SimpleNamespace(space=SimpleNamespace(n=0), ev_dim=2, odd_dim=2)
            mats = (Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 0], [0, 1]])) + (
                Mat.zeros(2, 2),) * 5
            read = []

            def pair(self, k):
                self.read.append(k)
                return self.mats[k], self.mats[k]

            def at(self, cs):
                self.read.append(cs)
                m = LinMat(7, self.mats).evaluate(cs)
                return m, m

        hom = HandBuiltHom()
        A, B, _, _ = _search_invertible(hom)
        assert A == B == Mat.from_rows([[1, 0], [0, 2]])
        assert hom.read == list(range(6, -1, -1)) + [tuple(range(1, 8))]


def knoerrer_pairs(space, w):
    """For V' = V + <u, v> with b(u, v) = 1/2 and W' = W + <v>: Knoerrer's
    doubled pair ([[phi, u Id], [-v Id, psi]], [[psi, -u Id], [v Id, phi]])
    of the module of (V, W), the ideal module of (V', W'), and W'."""
    n = space.n
    half = Fraction(1, 2)
    big = QuadraticSpace(block_diag(space.gram, Mat.from_rows([[0, half], [half, 0]])))
    w_big = Subspace(big, [tuple(v) + (0, 0) for v in w.basis] + [big.basis_vector(n + 1)])
    mf = build_factorization(build_ideal(space, w))
    size = 2 * mf.N

    def corner(r, c, s):
        # s Id in block (r, c) of a 2 x 2 block matrix
        return Mat(size, size, [Fraction(s * ((i // mf.N, j // mf.N) == (r, c)
                                              and i % mf.N == j % mf.N))
                                for i in range(size) for j in range(size)])

    phi = LinMat(n + 2, block_diag(mf.phi, mf.psi).coeff + (corner(0, 1, 1), corner(1, 0, -1)))
    psi = LinMat(n + 2, block_diag(mf.psi, mf.phi).coeff + (corner(0, 1, -1), corner(1, 0, 1)))
    return FactorizationPair(big, phi, psi), build_ideal(big, w_big), w_big


def test_knoerrer_periodicity():
    # the module of (V', W') presents Knoerrer's doubled pair: an explicit
    # map from it, read off its generator, is invertible; its shift, whose
    # pair is the swapped one, is not isomorphic to it exactly when rank q'
    # is even and pi(W') is maximal, on 17 of the 40 inputs
    cases = [(get_fixture(label).space, get_fixture(label).w) for label in FIXTURE_LABELS]
    cases += grid_spaces(5)
    not_swapped = 0
    for space, w in cases:
        doubled, i, w_big = knoerrer_pairs(space, w)
        assert doubled.check_identity()
        assert factorization_equivalent(i, doubled) is not None
        swapped = factorization_equivalent(shift(i), doubled)
        j, k, _ = isotropic_type(i.space, w_big)
        assert (swapped is None) == (i.space.rank % 2 == 0 and j == k)
        not_swapped += swapped is None
    assert (len(cases), not_swapped) == (40, 17)


def hyperbolic_case(n):
    """The hyperbolic form of dimension n, pairs (e_i, e_{k+i}) for
    k = n // 2 and q(e_{n-1}) = 1 when n is odd, with W = <e_k>."""
    k = n // 2
    half = Fraction(1, 2)
    space = QuadraticSpace(Mat.from_rows(
        [[half if abs(i - j) == k and max(i, j) < 2 * k else int(i == j == 2 * k)
          for j in range(n)] for i in range(n)]))
    return space, Subspace(space, [e(n, k)])


@pytest.mark.parametrize("n, end_dim", [(7, 16), (8, 32)])
def test_scale_case_builds_maps_when_read(n, end_dim, monkeypatch):
    # N = 2^(n-2): End(I) is a kernel on N unknowns and builds no map; the
    # cross-check builds each basis map once; the dual search reads the
    # basis from the last, and that first map read is the certificate
    space, w = hyperbolic_case(n)
    i = build_ideal(space, w)
    assert i.ev_dim == 2 ** (n - 2)
    maps = []
    real = homalg.GradedHom._map
    monkeypatch.setattr(homalg.GradedHom, "_map",
                        lambda self, x: maps.append(x) or real(self, x))
    end = hom_space(i, i)
    assert (end.dimension, len(maps)) == (end_dim, 0)
    assert (end.crosscheck_dimension, len(maps)) == (end_dim, end_dim)
    source = i if i.codim % 2 else shift(i)
    dual = dual_factorization(build_factorization(i))
    A, B, _, _ = factorization_equivalent(source, dual)
    assert len(maps) == end_dim + 1
    assert intertwines(source, dual, A, B)
