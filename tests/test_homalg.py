from fractions import Fraction

import pytest

from spinorsheaf.clifford import CliffordElement, grade_parts
from spinorsheaf.errors import InvariantError, PreconditionError
from spinorsheaf.exactalg import Mat, UniPoly, mat_rank, mat_rank_kernel
from spinorsheaf.fixtures import get_fixture, grid_spaces
from spinorsheaf.homalg import (
    _closure_from_coords,
    cohomology_dim,
    euler_characteristic_matches,
    factorization_equivalent,
    hom_space,
    idempotent_probe,
    irreducibility_check,
    is_isomorphic,
    pair_view,
    predict_simplicity,
    sheaf_numerics,
    simplicity_verdict,
)
from spinorsheaf.quadform import QuadraticSpace, Subspace
from spinorsheaf.spinor import (
    build_factorization,
    build_ideal,
    flag_sequence,
    recover_intersection_with_radical,
    shift,
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
    """Hom(a, b) solved with dense rows and dense Bareiss elimination: the
    kernel basis of A phi = phi' B, and the kernel dimension once
    B psi = psi' A is imposed as well."""
    zero = Fraction(0)
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


class TestHomSpace:
    def test_matches_dense_oracle_on_grid(self):
        pairs = 0
        for space, w in grid_spaces(5):
            i = build_ideal(space, w)
            for a, b in ((i, i), (i, shift(i))):
                kernel, both = dense_hom_oracle(a, b)
                h = hom_space(a, b)
                flat = [A.entries + B.entries for A, B in h.basis]
                assert flat == list(kernel)
                assert h.crosscheck_dimension == both == h.dimension
                pairs += 1
        assert pairs == 68

    def test_route_disagreement_raises(self, monkeypatch):
        a = module("F-H6")
        b = module("F-H6")
        act = b.act_odd
        monkeypatch.setattr(b, "_act_odd", (act[0].scale(2),) + act[1:])
        with pytest.raises(InvariantError):
            hom_space(a, b)

    def test_end_dims(self):
        assert hom_space(module("F-H6"), module("F-H6")).dimension == 1
        assert hom_space(module("F-QS"), module("F-QS")).dimension == 1

    def test_split_flag_outer_end(self):
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        assert hom_space(fl.outer, fl.outer).dimension == 2

    def test_companion_identity(self):
        for label in ("F-H2", "F-QS", "F-C5", "F-H6"):
            i = module(label)
            h = hom_space(i, i)
            assert h.companion_identity_holds
            assert h.crosscheck_dimension == h.dimension

    def test_intertwining_equations_hold(self):
        a = module("F-QS")
        b = shift(a)
        h = hom_space(a, b)
        for A, B in h.basis:
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
        import random
        from types import SimpleNamespace

        from spinorsheaf.homalg import GradedHom, _search_invertible

        def diag(a, b):
            return Mat.from_rows([[a, 0], [0, b]])

        shape = SimpleNamespace(ev_dim=2, odd_dim=2)
        basis = [(diag(a, b), diag(a, b)) for a, b in ((1, 0), (0, 1), (-1, 0))]
        hom = GradedHom(shape, shape, basis, 3, True)
        A, B, ai, bi = _search_invertible(hom, random.Random(0))
        assert A == B == diag(2, 1)
        assert ai == diag(Fraction(1, 2), 1)

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
        return _closure_from_coords(i, [i.coords_in(0, ev)], [i.coords_in(1, odd)])

    def test_generator_generates(self):
        i = module("F-H6")
        assert self.closure(i, i.generator) == (4, 4)

    def test_zero_seed(self):
        i = module("F-H6")
        assert self.closure(i, CliffordElement.zero(i.space)) == (0, 0)

    def test_fqs_proper_submodule(self):
        i = module("F-QS")
        seed = CliffordElement.monomial(i.space, (1, 2, 3))
        assert self.closure(i, seed) == (1, 1)


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
        with pytest.raises(InvariantError, match="Hilbert polynomial"):
            sheaf_numerics(build_factorization(module("F-H6")))

    def test_torsion_flag(self):
        num = sheaf_numerics(build_factorization(module("F-H2")))
        assert num.torsion_flag
        assert num.slope is None


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
        m = build_factorization(module("F-QS"))
        with pytest.raises(PreconditionError):
            cohomology_dim(m, 0, 9)
        with pytest.raises(PreconditionError):
            cohomology_dim(m, 7, 0)


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

    def test_nonsplit_flag_has_none(self):
        fx = get_fixture("F-QS")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        end = hom_space(fl.outer, fl.outer)
        assert end.dimension == 2
        assert idempotent_probe(end) is None


class TestFactorizationEquivalence:
    def test_pair_view_roundtrip(self):
        mf = build_factorization(module("F-QS"))
        view = pair_view(mf)
        assert (view.ev_dim, view.odd_dim) == (2, 2)

    def test_self_equivalent(self):
        mf = build_factorization(module("F-H6"))
        assert factorization_equivalent(mf, mf) is not None
