import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorsheaf.clifford import CliffordElement, GroupElement, conjugate_subspace
from spinorsheaf import spinor
from spinorsheaf.errors import InvariantError, PreconditionError
from spinorsheaf.exactalg import LinMat, Mat, mat_rank, mat_solve, vec
from spinorsheaf.fixtures import FIXTURE_LABELS, get_fixture, grid_spaces
from spinorsheaf.quadform import (
    QuadraticSpace,
    Subspace,
    candidate_vectors,
    quotient_space,
    radical_basis,
    sub_intersection,
    sub_sum,
)
from spinorsheaf.spinor import (
    FactorizationPair,
    build_factorization,
    build_ideal,
    cone_compare,
    dual_factorization,
    equivariance_check,
    family_indicator,
    fiber_rank,
    fiber_rank_from_identity,
    flag_sequence,
    intertwines,
    recover_intersection_with_radical,
    restrict_compare,
    quadric_points,
    shift,
)

from dense_oracles import (
    block_diag,
    canonical,
    direct_sum,
    fraction_fiber_rank,
    fraction_form,
    hom_basis,
    intertwines_by_products,
    monomial,
    row_lists,
    same_module,
    scale,
    standardized_copy,
)


def e(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def module(label):
    fx = get_fixture(label)
    return build_ideal(fx.space, fx.w)


class TestBuildIdeal:
    def test_fh2_bases(self):
        i = module("F-H2")
        assert i.ev_dim == i.odd_dim == 1
        space = i.space
        assert i.ev_basis[0] == monomial(space, (0, 1))
        assert i.odd_basis[0] == monomial(space, (1,))

    def test_fh6_size(self):
        i = module("F-H6")
        assert i.ev_dim == i.odd_dim == 4

    def test_fqs_size(self):
        assert module("F-QS").ev_dim == 2

    def test_dimension_law_on_grid(self):
        for space, w in grid_spaces(5):
            i = build_ideal(space, w)
            assert i.ev_dim == i.odd_dim == 1 << (space.n - w.dim - 1)

    def test_rejects_zero_and_nonisotropic(self):
        fx = get_fixture("F-H6")
        with pytest.raises(PreconditionError):
            build_ideal(fx.space, Subspace(fx.space, []))
        with pytest.raises(PreconditionError):
            build_ideal(fx.space, Subspace(fx.space, [vec((1, 0, 0, 1, 0, 0))]))


class TestShift:
    def test_involution(self):
        i = module("F-H6")
        assert same_module(shift(shift(i)), i)

    def test_swaps_pieces(self):
        i = module("F-H2")
        s = shift(i)
        assert s.ev_basis == i.odd_basis
        assert s.odd_basis == i.ev_basis
        assert s.shift == 1


class TestFactorization:
    def test_fh2_forms(self):
        mf = build_factorization(module("F-H2"))
        assert mf.N == 1
        # phi = [x1], psi = [x0]
        assert mf.phi.coeff[0] == Mat.zeros(1, 1)
        assert mf.phi.coeff[1] == Mat.identity(1)
        assert mf.psi.coeff[0] == Mat.identity(1)
        assert mf.psi.coeff[1] == Mat.zeros(1, 1)

    def test_identity_exact_on_fixtures(self):
        for label in ("F-H2", "F-QS", "F-QSb", "F-C5", "F-H6", "F-H6a"):
            mf = build_factorization(module(label))
            assert mf.check_identity()

    def test_identity_on_grid(self):
        for space, w in grid_spaces(5):
            mf = build_factorization(build_ideal(space, w))
            assert mf.check_identity()

    def test_phi_matches_left_action(self):
        from dense_oracles import left_action_matrix

        i = module("F-H6")
        mf = build_factorization(i)
        got = left_action_matrix(e(6, 3), list(i.ev_basis), list(i.odd_basis))
        assert got == mf.phi.coeff[3]

    def test_identity_check_is_strict(self):
        from spinorsheaf.exactalg import LinMat

        mf = build_factorization(module("F-QS"))
        coeff = list(mf.phi.coeff)
        rows = row_lists(coeff[0])
        rows[0][0] += 1
        coeff[0] = Mat.from_rows(rows)
        bad = FactorizationPair(mf.space, LinMat(4, coeff), mf.psi)
        assert not bad.check_identity()


    def test_identity_fails_on_pairs_that_are_not_square(self):
        # one order of the identity is enough for N x N phi and psi only:
        # a pair of another shape fails the check, and cohomology_dim
        # refuses it instead of reading ranks off it
        from spinorsheaf.exactalg import LinMat
        from spinorsheaf.homalg import cohomology_dim

        mf = build_factorization(module("F-H6"))
        n = mf.space.n
        assert mf.N == 4

        def block(lm, rows, cols):
            return LinMat(n, [Mat.from_rows([r[:cols] for r in row_lists(m)[:rows]])
                              for m in lm.coeff])

        for phi_shape, psi_shape in (((4, 2), (2, 4)), ((4, 4), (3, 3)), ((4, 4), (4, 3))):
            pair = FactorizationPair(mf.space, block(mf.phi, *phi_shape),
                                     block(mf.psi, *psi_shape))
            assert pair.check_identity() is False
            with pytest.raises(PreconditionError, match="phi psi = q Id fails"):
                cohomology_dim(pair, 0, 1)
            assert not pair.identity_checked


class TestFiberRank:
    def test_fqs_strata(self):
        mf = build_factorization(module("F-QS"))
        # e2 lies in w cap K: the whole fiber survives
        assert fiber_rank(mf, e(4, 2)) == (0, 2)
        # e1 lies in w off the radical
        assert fiber_rank(mf, e(4, 1)) == (1, 1)

    def test_fh6_generic_point(self):
        mf = build_factorization(module("F-H6"))
        assert fiber_rank(mf, e(6, 0)) == (2, 2)

    def test_rejects_bad_points(self):
        mf = build_factorization(module("F-H6"))
        with pytest.raises(PreconditionError):
            fiber_rank(mf, vec((1, 0, 0, 1, 0, 0)))  # q = 1
        with pytest.raises(PreconditionError):
            fiber_rank(mf, vec((0,) * 6))

    def test_matches_rank_of_evaluated_phi(self):
        # the sparse integer rows of phi(v) give the rank of the dense
        # phi(v), at every sampled point and at a multiple with denominators
        for label in FIXTURE_LABELS:
            fx = get_fixture(label)
            mf = build_factorization(build_ideal(fx.space, fx.w))
            for v in quadric_points(fx.space, fx.w):
                for u in (v, tuple(Fraction(x, 3) for x in v)):
                    r = mat_rank(mf.phi.evaluate(u))
                    assert fiber_rank(mf, u) == (r, mf.N - r)

    def test_codim_one_components(self):
        # rank-2 surface: Q = PW cup PW'; the 1x1 factorization vanishes on
        # exactly one of the two hyperplanes
        mf = build_factorization(module("F-H2"))
        r0, f0 = fiber_rank(mf, e(2, 0))
        r1, f1 = fiber_rank(mf, e(2, 1))
        assert sorted((f0, f1)) == [0, 1]

    def test_identity_rank_matches_the_elimination_off_k(self):
        # at every point off K of a form of rank >= 3, the fixtures' and
        # grid_spaces(6)'s, the rank read off the identity is phi(v)'s
        cases = [(get_fixture(label).space, get_fixture(label).w) for label in FIXTURE_LABELS]
        count = 0
        for space, w in cases + grid_spaces(6):
            if space.rank < 3:
                continue
            mf = build_factorization(build_ideal(space, w))
            rad = radical_basis(space)
            for v in quadric_points(space, w):
                if not rad.contains(v):
                    assert fiber_rank_from_identity(mf, v) == fiber_rank(mf, v)
                    count += 1
        assert count > 1000

    def test_identity_rank_preconditions(self):
        # an unchecked pair, a rank-2 form and a point off the quadric are
        # refused; a point of K has all of V as v^perp, and no rank there
        mf = build_factorization(module("F-H6"))
        unchecked = FactorizationPair(mf.space, mf.phi, mf.psi)
        with pytest.raises(PreconditionError, match="checked identity"):
            fiber_rank_from_identity(unchecked, e(6, 0))
        with pytest.raises(PreconditionError, match="checked identity"):
            fiber_rank_from_identity(build_factorization(module("F-H2")), e(2, 0))
        with pytest.raises(PreconditionError, match="on the quadric"):
            fiber_rank_from_identity(mf, vec((1, 0, 0, 1, 0, 0)))
        c5 = build_factorization(module("F-C5"))  # rank 4, K = <e4>
        with pytest.raises(PreconditionError, match="radical"):
            fiber_rank_from_identity(c5, e(5, 4))
        assert fiber_rank_from_identity(c5, e(5, 2)) == fiber_rank(c5, e(5, 2)) == (2, 2)

    def test_a_witness_that_fails_its_check_is_refused(self, monkeypatch):
        # h is checked with b and q before the rank is read off it
        mf = build_factorization(module("F-H6"))
        v = e(6, 0)
        for h in (e(6, 3), vec((0, 1, 0, 0, 0, 0))):  # b(h, v) != 0; q(h) = 0
            monkeypatch.setattr(spinor, "anisotropic_orthogonal", lambda space, v, h=h: h)
            with pytest.raises(InvariantError, match="no anisotropic vector"):
                fiber_rank_from_identity(mf, v)


class TestDual:
    def test_double_transpose(self):
        mf = build_factorization(module("F-QS"))
        dd = dual_factorization(dual_factorization(mf))
        assert dd.phi == mf.phi and dd.psi == mf.psi

    def test_fh2_self(self):
        mf = build_factorization(module("F-H2"))
        d = dual_factorization(mf)
        assert d.phi == mf.phi and d.psi == mf.psi

    def test_dual_is_factorization(self):
        for label in ("F-QS", "F-H6"):
            mf = build_factorization(module(label))
            assert dual_factorization(mf).check_identity()

    def test_parity_equivalence(self):
        from spinorsheaf.homalg import factorization_equivalent

        # codim 3 (odd): the dual pair presents I, by an invertible map
        # from I read off its generator
        i = module("F-H6")
        assert factorization_equivalent(i, dual_factorization(build_factorization(i))) is not None
        # codim 2 (even): it presents I[1], whose pair is (psi, phi), and
        # not I; the inverse map takes the dual to the swapped pair
        i2 = module("F-QS")
        mf2 = build_factorization(i2)
        dual2 = dual_factorization(mf2)
        _, _, ai, bi = factorization_equivalent(shift(i2), dual2)
        swapped = FactorizationPair(mf2.space, mf2.psi, mf2.phi)
        assert intertwines(dual2, swapped, ai, bi)
        assert factorization_equivalent(i2, dual2) is None


class TestFlag:
    def test_fh6_split(self):
        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        assert fl.exact
        assert fl.split_subspace and fl.split_module and fl.split_agree
        assert fl.outer.ev_dim == 2 * fl.inner.ev_dim

    def test_fqs_nonsplit(self):
        fx = get_fixture("F-QS")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        assert fl.exact
        assert not fl.split_subspace and not fl.split_module and fl.split_agree

    def test_split_iso_to_direct_sum(self):
        from spinorsheaf.homalg import is_isomorphic

        fx = get_fixture("F-H6")
        fl = flag_sequence(build_ideal(fx.space, fx.w), fx.flag_drop)
        target = direct_sum(fl.inner, shift(fl.inner))
        assert is_isomorphic(fl.outer, target).kind == "ISO"

    def test_degenerate_inputs(self):
        fx = get_fixture("F-H6")
        with pytest.raises(PreconditionError):
            flag_sequence(build_ideal(fx.space, fx.w), vec((0,) * 6))
        with pytest.raises(PreconditionError):
            flag_sequence(build_ideal(fx.space, fx.w), e(6, 0))  # not in w
        fx2 = get_fixture("F-H2")
        with pytest.raises(PreconditionError):
            flag_sequence(build_ideal(fx2.space, fx2.w), e(2, 1))  # dim w = 1
        with pytest.raises(PreconditionError):
            flag_sequence(shift(build_ideal(fx.space, fx.w)), fx.flag_drop)

    def test_inner_is_the_given_module(self):
        # the module of w is that of w' + <drop>, whichever basis spans w
        for space, w in grid_spaces(4):
            if w.dim < 2:
                continue
            module = build_ideal(space, w)
            for t, drop in enumerate(w.basis):
                fl = flag_sequence(module, drop)
                assert fl.inner is module
                rest = [v for k, v in enumerate(w.basis) if k != t]
                assert same_module(module, build_ideal(space, Subspace(space, rest + [drop])))

    def test_grid_split_agreement(self):
        for space, w in grid_spaces(4):
            if w.dim < 2:
                continue
            for drop in w.basis:
                fl = flag_sequence(build_ideal(space, w), drop)
                assert fl.exact
                assert fl.split_agree


def _flags(k):
    """Every flag of ``grid_spaces(k)``: each W of dimension >= 2, each
    basis vector dropped."""
    for space, w in grid_spaces(k):
        if w.dim >= 2:
            module = build_ideal(space, w)
            for drop in w.basis:
                yield flag_sequence(module, drop)


def _sigma_q(fl):
    """sigma . q on the outer module, as the pair (A, B)."""
    return tuple(s @ q for s, q in zip(fl.section, fl.quotient))


class TestFlagSection:
    def test_section_on_every_flag_of_the_grid(self):
        count = split = 0
        for fl in _flags(7):
            count += 1
            assert (fl.section is not None) == fl.split_subspace == fl.split_module
            if fl.section is None:
                continue
            split += 1
            s_odd, s_ev = fl.section
            q_odd, q_ev = fl.quotient
            assert intertwines(shift(fl.inner), fl.outer, s_odd, s_ev)
            assert q_odd @ s_odd == Mat.identity(fl.inner.ev_dim)
            assert q_ev @ s_ev == Mat.identity(fl.inner.odd_dim)
            # sigma . q, the idempotent that jordan_hoelder_record stands for
            A, B = _sigma_q(fl)
            assert A @ A == A and B @ B == B
            assert not (A.is_zero() and B.is_zero())
            assert (A, B) != (Mat.identity(A.rows), Mat.identity(B.rows))
        assert (count, split) == (228, 87)

    def test_split_outer_against_the_searches(self):
        # the searched certificates: an invertible intertwiner to the
        # direct sum, and a nontrivial idempotent of End(outer); neither may
        # contradict the section, and each must find one somewhere
        from spinorsheaf.homalg import hom_space, idempotent_probe, is_isomorphic

        iso = probed = 0
        for fl in _flags(5):
            if fl.section is None:
                continue
            verdict = is_isomorphic(fl.outer, direct_sum(fl.inner, shift(fl.inner)))
            assert verdict.kind in ("ISO", "UNDECIDED")
            iso += verdict.kind == "ISO"
            end = hom_space(fl.outer, fl.outer)
            # sigma . q is a module endomorphism, so it lies in End(outer)
            cols = [A.entries + B.entries for A, B in hom_basis(end)]
            A, B = _sigma_q(fl)
            assert mat_solve(Mat.from_cols(cols), A.entries + B.entries) is not None
            probed += idempotent_probe(end) is not None
        assert iso > 0 and probed > 0

    def test_section_check_raises(self, monkeypatch):
        fx = get_fixture("F-H6")
        monkeypatch.setattr(spinor, "intertwines", lambda *args: False)
        with pytest.raises(InvariantError, match="section"):
            flag_sequence(module("F-H6"), fx.flag_drop)


class TestRestrict:
    def test_fh6_hyperplane(self):
        fx = get_fixture("F-H6")
        i = build_ideal(fx.space, fx.w)
        u = Subspace(fx.space, fx.section_subspace)
        verdict = restrict_compare(i, u)
        assert verdict.kind == "ISOMORPHIC"
        assert verdict.parity == 1  # codim 1: matches T
        assert verdict.bijective and verdict.linear

    def test_full_space(self):
        fx = get_fixture("F-H6")
        i = build_ideal(fx.space, fx.w)
        u = Subspace(fx.space, [e(6, t) for t in range(6)])
        verdict = restrict_compare(i, u)
        assert verdict.kind == "ISOMORPHIC"
        assert verdict.parity == 0
        assert verdict.bijective and verdict.linear

    def test_reduces_to_free(self):
        fx = get_fixture("F-H6")
        i = build_ideal(fx.space, fx.w)
        u = Subspace(fx.space, [e(6, 0), e(6, 1), e(6, 2)])
        verdict = restrict_compare(i, u)
        assert verdict.kind == "REDUCES_TO_FREE"

    def test_non_transverse_rejected(self):
        fx = get_fixture("F-H6")
        i = build_ideal(fx.space, fx.w)
        with pytest.raises(PreconditionError):
            restrict_compare(i, Subspace(fx.space, [e(6, 0), e(6, 1)]))


class TestCone:
    def test_fc5_cone(self):
        fx = get_fixture("F-C5")
        qs = quotient_space(fx.space, Subspace(fx.space, fx.cone_mod))
        verdict = cone_compare(build_ideal(fx.space, fx.w), qs)
        assert verdict.d == 1
        assert verdict.parity == 1
        assert verdict.bijective and verdict.linear

    def test_zero_vertex(self):
        fx = get_fixture("F-H6")
        qs = quotient_space(fx.space, Subspace(fx.space, []))
        verdict = cone_compare(build_ideal(fx.space, fx.w), qs)
        assert verdict.d == 0
        assert verdict.parity == 0
        assert verdict.bijective and verdict.linear

    def test_vertex_outside_w_rejected(self):
        # e3 lies in F-QS's radical but not in W = <e1, e2>
        fx = get_fixture("F-QS")
        qs = quotient_space(fx.space, Subspace(fx.space, [e(4, 3)]))
        with pytest.raises(PreconditionError, match="cone vertex must lie inside w"):
            cone_compare(module("F-QS"), qs)

    def test_vertex_outside_radical_rejected(self):
        fx = get_fixture("F-C5")
        with pytest.raises(PreconditionError):
            quotient_space(fx.space, Subspace(fx.space, [e(5, 0)]))


@pytest.mark.parametrize("which", ["restriction", "cone", "equivariance"])
def test_tail_map_with_a_zero_column_is_not_bijective(monkeypatch, which):
    # bijective is read off the ranks of the two parts of the tail map (or
    # of rho): zero the first column of one and the map is no longer
    # bijective
    def compare():
        if which == "restriction":
            fx = get_fixture("F-H6")
            return restrict_compare(module("F-H6"), Subspace(fx.space, fx.section_subspace))
        if which == "equivariance":
            i = module("F-H6")
            return equivariance_check(GroupElement(i.space, [vec((1, 0, 0, 1, 0, 0))]), i)
        fx = get_fixture("F-C5")
        qs = quotient_space(fx.space, Subspace(fx.space, fx.cone_mod))
        return cone_compare(module("F-C5"), qs)

    assert compare().bijective
    real = spinor.IdealModule.graded_map

    def zeroed(self, source, f, what):
        a, b = real(self, source, f, what)
        return a, Mat.from_rows([[0] + list(b.row(r))[1:] for r in range(b.rows)])

    monkeypatch.setattr(spinor.IdealModule, "graded_map", zeroed)
    assert compare().bijective is False


class TestRecover:
    def test_values(self):
        assert recover_intersection_with_radical(module("F-H6")).dim == 0
        got = recover_intersection_with_radical(module("F-QS"))
        assert got.dim == 1 and got.contains(e(4, 2))
        got = recover_intersection_with_radical(module("F-C5"))
        assert got.dim == 1 and got.contains(e(5, 4))

    def test_matches_subspace_computation_on_grid(self):
        from spinorsheaf.quadform import sub_intersection

        for space, w in grid_spaces(4):
            i = build_ideal(space, w)
            expected = sub_intersection(w, radical_basis(space))
            assert recover_intersection_with_radical(i).same_span(expected)


class TestFamilyIndicator:
    def test_fqs_kills_odd(self):
        fx = get_fixture("F-QS")
        i = build_ideal(*standardized_copy(fx.space, fx.w))
        assert family_indicator(i) == "ODD"

    def test_fh2_kills_even(self):
        i = module("F-H2")  # dim w odd, already standard coordinates
        assert family_indicator(i) == "EVEN"

    def test_shift_flips(self):
        fx = get_fixture("F-QS")
        i = build_ideal(*standardized_copy(fx.space, fx.w))
        assert family_indicator(shift(i)) == "EVEN"

    def test_preconditions(self):
        i = module("F-H6a")  # pi(w) not maximal
        with pytest.raises(PreconditionError):
            family_indicator(i)


class TestEquivariance:
    def test_empty_product(self):
        i = module("F-H6")
        g = GroupElement(i.space, [])
        v = equivariance_check(g, i)
        assert v.ok and v.parity == 0

    def test_even_pair(self):
        i = module("F-H6")
        g = GroupElement(i.space, [vec((1, 0, 0, 1, 0, 0)), vec((0, 1, 0, 0, 1, 0))])
        v = equivariance_check(g, i)
        assert v.ok and v.parity == 0

    def test_single_odd_factor(self):
        i = module("F-H6")
        g = GroupElement(i.space, [vec((1, 0, 0, 1, 0, 0))])
        v = equivariance_check(g, i)
        assert v.ok and v.parity == 1

    def test_other_fixtures(self):
        for label, factors in (
            ("F-QS", [vec((1, 1, 0, 0)), vec((1, -1, 0, 0))]),
            ("F-C5", [vec((1, 0, 1, 0, 0)), vec((0, 1, 0, 1, 0))]),
        ):
            i = module(label)
            g = GroupElement(i.space, factors)
            assert equivariance_check(g, i).ok


def bumped(m, r=0, c=0):
    """``m`` with the entry (r, c) raised by 1."""
    entries = list(m.entries)
    entries[r * m.cols + c] += 1
    return Mat(m.rows, m.cols, entries)


class TestIntertwines:
    """Every map the package checks against the action passes
    ``intertwines``, and one changed entry of either half fails it."""

    def assert_sharp(self, a, b, A, B, pairs=None):
        assert intertwines(a, b, A, B, pairs)
        assert not intertwines(a, b, bumped(A), B, pairs)
        assert not intertwines(a, b, A, bumped(B), pairs)

    @pytest.mark.parametrize("factors", [
        [vec((1, 0, 0, 1, 0, 0)), vec((0, 1, 0, 0, 1, 0))],
        [vec((1, 0, 0, 1, 0, 0))],
    ])
    def test_rho_and_sigma(self, factors):
        i = module("F-H6")
        g = GroupElement(i.space, factors)
        v = equivariance_check(g, i)
        assert v.ok
        iprime = build_ideal(i.space, conjugate_subspace(g, i.w))
        self.assert_sharp(i, shift(iprime) if g.parity else iprime, *v.rho)
        basis = [i.space.basis_vector(t) for t in range(i.space.n)]
        self.assert_sharp(i, iprime, *v.sigma, [(x, g.conjugate_vector(x)) for x in basis])

    def test_restriction_tau(self):
        fx = get_fixture("F-H6")
        i = build_ideal(fx.space, fx.w)
        u = Subspace(fx.space, fx.section_subspace)
        v = restrict_compare(i, u)
        assert v.bijective and v.linear
        space_u = v.small.space
        self.assert_sharp(v.small, shift(i) if v.d % 2 else i, *v.map,
                          [(space_u.basis_vector(t), u.basis[t]) for t in range(space_u.n)])

    def test_cone_tau(self):
        fx = get_fixture("F-C5")
        qs = quotient_space(fx.space, Subspace(fx.space, fx.cone_mod))
        i = build_ideal(fx.space, fx.w)
        v = cone_compare(i, qs)
        assert v.bijective and v.linear
        basis = [fx.space.basis_vector(t) for t in range(fx.space.n)]
        self.assert_sharp(v.small, shift(i) if v.d % 2 else i,
                          *v.map, [(qs.project(x), x) for x in basis])

    def test_shift_witness(self):
        from spinorsheaf.homalg import is_isomorphic

        i = module("F-H6a")
        v = is_isomorphic(i, shift(i))
        assert v.reason == "orthogonal reflection witness"
        self.assert_sharp(i, shift(i), v.certificate["A"], v.certificate["B"])

    def test_checks_both_halves(self):
        mf = build_factorization(module("F-QS"))
        n = mf.space.n
        eye = Mat.identity(mf.N)
        assert intertwines(mf, mf, eye, eye)
        for phi, psi in ((LinMat(n, (bumped(mf.phi.coeff[0]),) + mf.phi.coeff[1:]), mf.psi),
                         (mf.phi, LinMat(n, (bumped(mf.psi.coeff[0]),) + mf.psi.coeff[1:]))):
            assert not intertwines(mf, FactorizationPair(mf.space, phi, psi), eye, eye)

    def test_row_sums_match_the_products_on_every_checked_map(self, monkeypatch):
        # every map the six fixture runs check (rho, sigma with its
        # reflected pairs, the shift witness, the restriction and cone tau,
        # the flag section, the combination map of each End cross-check and
        # the invertible pair of the isomorphism search), as it is and with
        # one entry of A or of B bumped, gets the verdict of the products
        from spinorsheaf import homalg
        from spinorsheaf.verify import run_suite

        seen = []

        def record(a, b, A, B, pairs=None):
            pairs = None if pairs is None else list(pairs)
            seen.append((sys._getframe(1).f_code.co_name, a, b, A, B, pairs))
            return intertwines(a, b, A, B, pairs)

        monkeypatch.setattr(spinor, "intertwines", record)
        monkeypatch.setattr(homalg, "intertwines", record)
        for label in FIXTURE_LABELS:
            assert run_suite(get_fixture(label), "all", 1).overall(strict=True)
        monkeypatch.undo()
        assert {site for site, *_ in seen} == {
            "equivariance_check", "_tail_comparison", "_orthogonal_shift_witness",
            "flag_sequence", "_search_invertible", "certified"}
        assert len(seen) == 53
        for _, a, b, A, B, pairs in seen:
            for X, Y, want in ((A, B, True), (bumped(A), B, False), (A, bumped(B), False)):
                assert intertwines(a, b, X, Y, pairs) is want
                assert intertwines_by_products(a, b, X, Y, pairs) is want

    def test_inner_shape_mismatch_raises_as_the_product(self):
        i = module("F-H6")
        eye_ev, eye_odd = Mat.identity(i.ev_dim), Mat.identity(i.odd_dim)
        wide = Mat.zeros(i.odd_dim, i.odd_dim + 1)
        for A, B in ((wide, eye_ev), (eye_odd, Mat.zeros(i.ev_dim + 1, i.ev_dim + 1))):
            with pytest.raises(ValueError, match="shape mismatch in product"):
                intertwines(i, i, A, B)
            with pytest.raises(ValueError, match="shape mismatch in product"):
                intertwines_by_products(i, i, A, B)

    def test_outer_shape_mismatch_does_not_intertwine(self):
        # zero maps with one row or one column too many: the inner
        # dimensions of the first half fit, its two sides are zero but of
        # different shapes, and Mat.__eq__ said False before the second
        # half, whose inner dimensions do not fit, was reached
        i = module("F-H6")
        odd, ev = i.odd_dim, i.ev_dim
        for A, B in ((Mat.zeros(odd, odd), Mat.zeros(ev, ev + 1)),
                     (Mat.zeros(odd + 1, odd), Mat.zeros(ev, ev))):
            assert not intertwines_by_products(i, i, A, B)
            assert not intertwines(i, i, A, B)

    def test_pairs_read_once(self):
        # a one-shot zip is read once, both halves checked on that pass: a
        # map that fails only the psi half still fails
        mf = build_factorization(module("F-QS"))
        n = mf.space.n
        eye = Mat.identity(mf.N)
        basis = [mf.space.basis_vector(t) for t in range(n)]
        bad = FactorizationPair(mf.space, mf.phi,
                                LinMat(n, (bumped(mf.psi.coeff[0]),) + mf.psi.coeff[1:]))
        assert not intertwines(mf, bad, eye, eye, zip(basis, basis))
        pairs = zip(basis, basis)
        assert intertwines(mf, mf, eye, eye, pairs)
        assert next(pairs, None) is None

    def test_basis_vector_reads_the_action_as_it_is(self):
        i = module("F-H6")
        assert spinor._action(i.act_ev, e(6, 2)) is i.act_ev[2]
        v = vec((0, 0, 2, 0, 0, 0))
        assert spinor._action(i.act_ev, v) == scale(i.act_ev[2], 2)

    def test_bijective_needs_both_parts_square_and_of_full_rank(self):
        eye, zero = Mat.identity(2), Mat.zeros(2, 2)
        assert spinor._bijective(eye, eye)
        assert not spinor._bijective(zero, eye)
        assert not spinor._bijective(eye, Mat.from_rows([[1, 2], [2, 4]]))
        assert not spinor._bijective(eye, Mat.from_rows([[1, 0, 0], [0, 1, 0]]))
        assert not spinor._bijective(Mat.from_rows([[1, 0], [0, 1], [0, 0]]), eye)


class TestDirectSum:
    def test_sum_with_zero(self):
        from spinorsheaf.homalg import is_isomorphic

        i = module("F-QS")
        zero = LinMat(i.space.n, [Mat.zeros(0, 0)] * i.space.n)
        s = direct_sum(i, FactorizationPair(i.space, zero, zero))
        assert (s.ev_dim, s.odd_dim) == (i.ev_dim, i.odd_dim)
        assert is_isomorphic(s, i).kind == "ISO"

    def test_block_identity(self):
        a = module("F-QS")
        b = shift(module("F-QS"))
        s = direct_sum(a, b)
        assert isinstance(s, FactorizationPair)
        assert s.phi == block_diag(LinMat(a.space.n, a.act_ev), LinMat(a.space.n, b.act_ev))
        assert s.check_identity()


def _fixture_and_grid_cases(max_n):
    return [(fx.space, fx.w) for fx in map(get_fixture, FIXTURE_LABELS)] + grid_spaces(max_n)


class TestSampler:
    def test_points_lie_on_quadric(self):
        # q = 0 under the dense Gram, in Fractions, at every point
        for space, w in _fixture_and_grid_cases(7):
            pts = quadric_points(space, w)
            assert len(pts) >= 2
            assert all(fraction_form(space, v, v) == 0 for v in pts), (space, w)
            assert all(canonical(x) for v in pts for x in v)

    def test_every_stratum_gets_a_point(self):
        # each of W cap K, K minus W, W minus K and (W + K) minus (W cup K)
        # that is nonempty holds a point, K the radical.  On the sheared
        # copy of F-QS no isotropic candidate vector lies in W cap K =
        # <(1, 1, 1, 0)>: only the stratum points reach it
        half = Fraction(1, 2)
        sheared = QuadraticSpace(Mat.from_rows(
            [[0, half, -half, 0], [half, -1, half, 0], [-half, half, 0, 0], [0, 0, 0, 0]]))
        sheared_w = Subspace(sheared, [(1, 1, 0, 0), (1, 1, 1, 0)])
        assert not any(radical_basis(sheared).contains(v) and sheared_w.contains(v)
                       for v in candidate_vectors(sheared))
        for space, w in _fixture_and_grid_cases(7) + [(sheared, sheared_w)]:
            rad = radical_basis(space)
            wk = sub_intersection(w, rad)
            reached = {(w.contains(v), rad.contains(v), sub_sum(w, rad).contains(v))
                       for v in quadric_points(space, w)}
            k_in_w, w_in_k = wk.dim == rad.dim, wk.dim == w.dim
            expected = {(True, True, True)} if wk.dim else set()
            if not k_in_w:
                expected.add((False, True, True))
            if not w_in_k:
                expected.add((True, False, True))
            if not (k_in_w or w_in_k):
                expected.add((False, False, True))
            assert expected <= reached, (space, w)

    def test_deterministic(self):
        fx = get_fixture("F-H6")
        assert quadric_points(fx.space, fx.w) == quadric_points(fx.space, fx.w)

    def test_ramp_points_are_dense(self):
        # a ramp point has at least n - 1 nonzero coordinates, so
        # fiber_rank evaluates phi at many coefficients at once
        for space, w in _fixture_and_grid_cases(7):
            pts = quadric_points(space, w)
            assert max(sum(map(bool, v)) for v in pts) >= space.n - 1, (space, w)

    def test_fiber_ranks_match_the_fraction_oracle(self):
        # phi ranked at the cleared point has the rank of the dense phi(v)
        # at v itself, at every point of every fixture and grid pair
        for space, w in _fixture_and_grid_cases(6):
            mf = build_factorization(build_ideal(space, w))
            for v in quadric_points(space, w):
                r = fraction_fiber_rank(mf, v)
                assert fiber_rank(mf, v) == (r, mf.N - r)


class TestInvariants:
    """A broken internal invariant raises InvariantError, which python -O
    cannot strip as it would an assert."""

    def test_failing_identity_raises(self, monkeypatch):
        monkeypatch.setattr(spinor.FactorizationPair, "check_identity",
                            lambda self: False)
        with pytest.raises(InvariantError, match="factorization identity"):
            build_factorization(module("F-QS"))

    def test_dimension_law_raises(self, monkeypatch):
        rref_rows = spinor.rref_rows
        seen = []

        def drop_last(vectors):
            # truncate the canonical basis build_ideal computes from its
            # sparse product rows
            rows, pivots = rref_rows(vectors)
            seen.append(rows)
            return rows[:-1], pivots[:-1]

        monkeypatch.setattr(spinor, "rref_rows", drop_last)
        fx = get_fixture("F-H6")
        with pytest.raises(InvariantError, match="dimension law"):
            build_ideal(fx.space, fx.w)
        assert len(seen) == 2 and all(len(rows) == 4 for rows in seen)
        assert all(isinstance(row, dict) for rows in seen for row in rows)

    def test_splitting_generator_outside_its_part_raises(self):
        fx = get_fixture("F-H6")
        fl = flag_sequence(module("F-H6"), fx.flag_drop)
        inner = fl.inner
        # the scalar 1 lies in no proper left ideal
        bad = spinor.IdealModule(inner.space, inner.w, CliffordElement.scalar(inner.space, 1),
                                 inner.parts, inner.solvers)
        with pytest.raises(InvariantError, match="generator"):
            spinor._splitting_exists(bad, fl.outer, fl.quotient)


FIXTURES = ("F-H2", "F-QS", "F-QSb", "F-C5", "F-H6", "F-H6a")


class TestSparseConstruction:
    """The sparse construction path against the dense Fraction path it
    replaced (tests/dense_oracles.py)."""

    def test_bases_match_dense_path_on_grid(self):
        from dense_oracles import dense_ideal_bases

        for space, w in grid_spaces(6):
            i = build_ideal(space, w)
            assert (list(i.ev_basis), list(i.odd_basis)) == dense_ideal_bases(space, w)

    def test_bases_match_dense_path_on_fixtures(self):
        from dense_oracles import dense_coords, dense_ideal_bases

        for label in FIXTURES:
            fx = get_fixture(label)
            i = build_ideal(fx.space, fx.w)
            ev, odd = dense_ideal_bases(fx.space, fx.w)
            assert [dense_coords(x) for x in i.ev_basis] == [dense_coords(x) for x in ev]
            assert [dense_coords(x) for x in i.odd_basis] == [dense_coords(x) for x in odd]

    def test_bases_match_dense_path_beyond_the_grid(self):
        # the 2^(n-m) products e_M g (M off W's pivots) against all 2^n masks
        from dense_oracles import dense_ideal_bases
        from spinorsheaf.fixtures import fixture_from_dict
        from spinorsheaf.quadform import QuadraticSpace

        odd = fixture_from_dict(NON_INTEGRAL_FIXTURE)
        cases = [(odd.space, odd.w)] + [(s, w) for s, w in grid_spaces(7) if s.n == 7]
        # e_0 anisotropic, hyperbolic pairs (1, 3) and (2, 4), e_5 radical;
        # W = <e_1 + e_4, e_2 - e_3, e_5> has pivots 1, 2, 5 and a tail at 3
        h = Fraction(1, 2)
        space = QuadraticSpace(Mat.from_rows([
            [2, 0, 0, 0, 0, 0], [0, 0, 0, h, 0, 0], [0, 0, 0, 0, h, 0],
            [0, h, 0, 0, 0, 0], [0, 0, h, 0, 0, 0], [0, 0, 0, 0, 0, 0]]))
        w = Subspace(space, [(0, 1, 0, 0, 1, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 0, 1)])
        assert w._solver.pivots == [1, 2, 5] and radical_basis(space).contains(w.basis[2])
        cases.append((space, w))
        for space, w in cases:
            i = build_ideal(space, w)
            assert (list(i.ev_basis), list(i.odd_basis)) == dense_ideal_bases(space, w)

    def test_action_nonzeros_match_the_entries(self):
        # the action matrices, filled from nonzero coordinates, equal their
        # dense builds and hash alike
        from spinorsheaf.fixtures import fixture_from_dict

        odd = fixture_from_dict(NON_INTEGRAL_FIXTURE)
        for i in [module(label) for label in FIXTURES] + [build_ideal(odd.space, odd.w)]:
            for m in i.act_ev + i.act_odd:
                dense = Mat(m.rows, m.cols, m.entries)
                assert m == dense and hash(m) == hash(dense) and m.nz == dense.nz

    def test_action_matches_the_per_image_route(self):
        # one SpanSolver.columns sweep per matrix, on the images of one
        # vec_images call per basis element, against coordinates read one
        # image at a time: equal matrices that hash alike, on the fixtures,
        # grid_spaces(6), their shifts and the non-integral form
        from dense_oracles import canonical_nonzeros, per_image_action
        from spinorsheaf.fixtures import fixture_from_dict

        odd = fixture_from_dict(NON_INTEGRAL_FIXTURE)
        cases = ([(fx.space, fx.w) for fx in map(get_fixture, FIXTURES)]
                 + grid_spaces(6) + [(odd.space, odd.w)])
        for space, w in cases:
            for i in (build_ideal(space, w), shift(build_ideal(space, w))):
                for got, want in ((i.act_ev, per_image_action(i, 0)),
                                  (i.act_odd, per_image_action(i, 1))):
                    assert got == want, (space, w, i.shift)
                    assert list(map(hash, got)) == list(map(hash, want))
                    assert all(map(canonical_nonzeros, got))

    def test_left_action_leaving_the_module_raises_its_image(self, monkeypatch):
        # the image of e_2 on the third even basis element of F-H6 gets a
        # scalar term off the odd part: the one-sweep read of act_ev raises,
        # with that image as witness, and caches nothing
        from spinorsheaf.clifford import _Context
        from spinorsheaf.errors import SpanError

        i = module("F-H6")
        original = _Context.vec_images
        stray = []

        def moved(ctx, terms):
            images = list(original(ctx, terms))
            if terms is i.ev_basis[2].terms:
                images[2] = {**images[2], 0: 1}
                stray.append(images[2])
            return images

        monkeypatch.setattr(_Context, "vec_images", moved)
        with pytest.raises(SpanError, match="left action leaves the module") as err:
            i.act_ev
        assert err.value.witness == CliffordElement(i.space, stray[0])
        assert i._act_ev is None

    def test_left_action_stray_last_image_raises_it(self, monkeypatch):
        # the image of e_{n-1} on the last even basis element is the last
        # one the sweep reads: a scalar term off the odd part there still
        # raises, with that image as witness, and caches nothing
        from spinorsheaf.clifford import _Context
        from spinorsheaf.errors import SpanError

        i = module("F-H6")
        last, n = i.ev_basis[-1].terms, i.space.n
        original = _Context.vec_images
        stray = []

        def moved(ctx, terms):
            images = list(original(ctx, terms))
            if terms is last:
                images[n - 1] = {**images[n - 1], 0: 1}
                stray.append(images[n - 1])
            return images

        monkeypatch.setattr(_Context, "vec_images", moved)
        with pytest.raises(SpanError, match="left action leaves the module") as err:
            i.act_ev
        assert len(stray) == 1
        assert err.value.witness == CliffordElement(i.space, stray[0])
        assert i._act_ev is None

    def test_solver_pivots_are_the_leading_monomials(self):
        # the span solvers take rref_rows' pivots from build_ideal: each is
        # the leading monomial of its basis element in the monomial order,
        # on the fixtures, grid_spaces(6), their shifts and the non-integral
        # form
        from spinorsheaf.clifford import _ctx
        from spinorsheaf.fixtures import fixture_from_dict

        odd = fixture_from_dict(NON_INTEGRAL_FIXTURE)
        cases = ([(fx.space, fx.w) for fx in map(get_fixture, FIXTURES)]
                 + grid_spaces(6) + [(odd.space, odd.w)])
        for space, w in cases:
            first = _ctx(space).index.__getitem__
            for i in (build_ideal(space, w), shift(build_ideal(space, w))):
                for par in (0, 1):
                    assert i.solvers[par].pivots == [min(x.terms, key=first)
                                                     for x in i.parts[par]], (space, w, i.shift)

    def test_construction_counts_on_the_cohomology_grid(self, monkeypatch):
        # each of the 51 grid modules with n in {5, 6}, with its
        # factorization, makes two rref_rows calls on rows already reduced
        # up to scale, so no elimination in them, and builds two span
        # solvers: one of each per graded part
        from spinorsheaf import _kernels, exactalg

        pairs = [(space, w) for space, w in grid_spaces(6) if space.n >= 5]
        assert len(pairs) == 51
        rref, echelon, init = spinor.rref_rows, _kernels.sparse_echelon, exactalg.SpanSolver.__init__
        counts = {}
        inside = []

        def counted_rref(*args):
            counts["rref_rows"] += 1
            inside.append(True)
            try:
                return rref(*args)
            finally:
                inside.pop()

        def counted_echelon(*args):
            counts["sparse_echelon"] += bool(inside)
            return echelon(*args)

        def counted_init(solver, *args):
            counts["SpanSolver"] += 1
            init(solver, *args)

        monkeypatch.setattr(spinor, "rref_rows", counted_rref)
        monkeypatch.setattr(_kernels, "sparse_echelon", counted_echelon)
        monkeypatch.setattr(exactalg.SpanSolver, "__init__", counted_init)
        for space, w in pairs:
            counts.update(rref_rows=0, sparse_echelon=0, SpanSolver=0)
            assert build_factorization(build_ideal(space, w)).identity_checked
            assert counts == {"rref_rows": 2, "sparse_echelon": 0, "SpanSolver": 2}, (space, w)

    def test_coords_in_reads_the_canonical_basis(self):
        i = module("F-H6")
        for par, basis in ((0, i.ev_basis), (1, i.odd_basis)):
            for k, x in enumerate(basis):
                want = tuple(Fraction(int(t == k)) for t in range(len(basis)))
                assert i.coords_in(par, x) == want
                assert i.coords_in(par, x.scale(Fraction(-3, 2))) == tuple(
                    Fraction(-3, 2) * c for c in want)
        outside = CliffordElement.scalar(i.space, 1)
        assert i.coords_in(0, outside) is None

    def _pairs(self):
        out = []
        for space, w in grid_spaces(5):
            out.append(build_factorization(build_ideal(space, w)))
        for label in FIXTURES:
            out.append(build_factorization(module(label)))
        return out

    def test_identity_matches_fraction_loop(self):
        from dense_oracles import fraction_identity
        from spinorsheaf.exactalg import LinMat

        for mf in self._pairs():
            assert mf.check_identity() is True
            assert fraction_identity(mf) is True
            n = mf.space.n
            for phi, psi, holds in (
                (mf.psi, mf.phi, True),
                (mf.phi.transpose(), mf.psi.transpose(), True),
                # fractional entries on both sides, the product unchanged
                (LinMat(n, [scale(m, Fraction(1, 2)) for m in mf.phi.coeff]),
                 LinMat(n, [scale(m, 2) for m in mf.psi.coeff]), True),
                (LinMat(n, [scale(m, 2) for m in mf.phi.coeff]),
                 LinMat(n, [scale(m, Fraction(1, 2)) for m in mf.psi.coeff]), True),
                (LinMat(n, [scale(m, Fraction(2, 3)) for m in mf.phi.coeff]),
                 LinMat(n, [scale(m, Fraction(3, 2)) for m in mf.psi.coeff]), True),
                (LinMat(n, [scale(m, Fraction(2, 3)) for m in mf.phi.coeff]),
                 LinMat(n, [scale(m, Fraction(3, 4)) for m in mf.psi.coeff]), False),
                # every product vanishes: only the missing diagonal shows it
                (mf.phi, LinMat(n, [Mat.zeros(mf.N, mf.N)] * n), False),
            ):
                pair = FactorizationPair(mf.space, phi, psi)
                assert pair.check_identity() is holds
                assert fraction_identity(pair) is holds

    def test_single_perturbed_entry_fails(self):
        from dense_oracles import fraction_identity
        from spinorsheaf.exactalg import LinMat

        for mf in self._pairs()[::3]:
            n, N = mf.space.n, mf.N
            for k in (0, n - 1):
                for r, c in ((0, 0), (N - 1, N - 1), (0, N - 1)):
                    for delta in (Fraction(1), Fraction(1, 3), Fraction(-5, 7)):
                        for side in ("phi", "psi"):
                            lm = getattr(mf, side)
                            coeff = list(lm.coeff)
                            rows = row_lists(coeff[k])
                            rows[r][c] += delta
                            coeff[k] = Mat.from_rows(rows)
                            bad = LinMat(n, coeff)
                            pair = (FactorizationPair(mf.space, bad, mf.psi) if side == "phi"
                                    else FactorizationPair(mf.space, mf.phi, bad))
                            assert pair.check_identity() is False
                            assert fraction_identity(pair) is False

    def test_vanishing_diagonal_product_fails(self):
        # phi_0 = psi_0 = 0 with e_0 orthogonal to the rest: every sum in
        # the row accumulators matches its target, but q(e_0) = 2 is never
        # reached, so only the missing nonzero target shows it
        from dense_oracles import fraction_identity
        from spinorsheaf.quadform import QuadraticSpace

        h = Fraction(1, 2)
        space = QuadraticSpace(Mat.from_rows([[2, 0, 0], [0, 0, h], [0, h, 0]]))
        mf = build_factorization(build_ideal(space, Subspace(space, [(0, 0, 1)])))
        assert not mf.phi.coeff[0].is_zero() and mf.check_identity()
        zero = Mat.zeros(mf.N, mf.N)
        pair = FactorizationPair(space, LinMat(3, (zero,) + mf.phi.coeff[1:]),
                                 LinMat(3, (zero,) + mf.psi.coeff[1:]))
        assert pair.check_identity() is False
        assert fraction_identity(pair) is False

    def test_action_matrix_leaving_the_module_raises(self):
        from spinorsheaf.errors import SpanError

        i = module("F-H6")
        # e_0 maps each part into the other, so reading its images in the
        # basis of the same part must fail
        e0 = CliffordElement.from_vector(i.space, e(6, 0))
        with pytest.raises(SpanError, match="left action leaves the module"):
            i.graded_map(i, lambda xi: e0 * xi, "left action leaves the module")


class TestSplittingAgainstDense:
    """``_splitting_exists`` (one solve for the generator's image on
    N_outer unknowns) against the dense Fraction system."""

    def test_every_flag_of_the_grid(self):
        from dense_oracles import dense_splitting_exists

        seen = set()
        for space, w in grid_spaces(5):
            if w.dim < 2:
                continue
            for drop in w.basis:
                fl = flag_sequence(build_ideal(space, w), drop)
                q_odd, q_ev = fl.quotient
                assert fl.split_module == dense_splitting_exists(fl.inner, fl.outer, q_ev, q_odd)
                seen.add(fl.split_module)
                # q scaled by 2 needs a section scaled by 1/2, so the
                # right-hand side meets a denominator; q = 0 leaves rows
                # whose only entry is the right-hand side
                for s in (2, 0):
                    q_odd, q_ev = (scale(q, s) for q in fl.quotient)
                    got = spinor._splitting_exists(fl.inner, fl.outer, (q_odd, q_ev))
                    assert got == dense_splitting_exists(fl.inner, fl.outer, q_ev, q_odd)
                    assert got == (fl.split_module if s else False)
        assert seen == {True, False}


# sha256 of the JSON form (``verify.jsonable``) of the module maps that the
# reports only summarize: the orthogonal shift witness (A, B, u), the
# restriction and cone maps, and rho and sigma of equivariance_check for
# each default group element.
MAP_SHA256 = {
    "F-C5": {
        "cone": "2ccf45298674ae7160ad3c6877f5a3bc41e952acaa343e30db3579b39efb0883",
        "rho_0": "562d203769181137147d7c287f1cea5961edfb22a7aa5b840ce4ba6b17de552e",
        "rho_1": "737973874bb3226baf5165bfda956141c6dcc7651fff2d3c90d269c624937a84",
        "rho_2": "036bd038303b2b9aff47c06de0b2e783fe3a9ef1d4fcc778009b4c971a74cd31",
        "shift_witness": "ad12dfb117ad6a98d6c6ae55025b8ef49ad938997e6b68b7bf8f58390770372e",
        "sigma_0": "45965457db9a1523fa3bbea694d19413c0e86e8e2c9136c93ea951e9d87e79b3",
        "sigma_1": "c9a38f9621ca936e456befc76cf0e7632edb50ea0098d93e4f60902dd4954e94",
        "sigma_2": "036bd038303b2b9aff47c06de0b2e783fe3a9ef1d4fcc778009b4c971a74cd31",
    },
    "F-H2": {
        "rho_0": "f05693e8863e767ac31b6d32a1b7735265bbadcd4d89519f0b700d5e23ded94f",
        "rho_1": "4549d16a580d0bba486d0c0badd28ea95069616180f5f04b1e73896e516a017c",
        "rho_2": "4549d16a580d0bba486d0c0badd28ea95069616180f5f04b1e73896e516a017c",
        "sigma_0": "a21d04337251c4f57d0fbaaf0e746d028dfb656b95a3a35cdbcf1abbe916dc7b",
        "sigma_1": "a21d04337251c4f57d0fbaaf0e746d028dfb656b95a3a35cdbcf1abbe916dc7b",
        "sigma_2": "4549d16a580d0bba486d0c0badd28ea95069616180f5f04b1e73896e516a017c",
    },
    "F-H6": {
        "restrict": "2ccf45298674ae7160ad3c6877f5a3bc41e952acaa343e30db3579b39efb0883",
        "rho_0": "562d203769181137147d7c287f1cea5961edfb22a7aa5b840ce4ba6b17de552e",
        "rho_1": "2ccf45298674ae7160ad3c6877f5a3bc41e952acaa343e30db3579b39efb0883",
        "rho_2": "2ccf45298674ae7160ad3c6877f5a3bc41e952acaa343e30db3579b39efb0883",
        "sigma_0": "e7868c2ee5db526385551f670e1357defd078af4d16f9643563707d68c011915",
        "sigma_1": "1b5679ad11a3d94efde184ec5c42a2a37cd269b4466338d22e98bb6bc153fa4f",
        "sigma_2": "2ccf45298674ae7160ad3c6877f5a3bc41e952acaa343e30db3579b39efb0883",
    },
    "F-H6a": {
        "rho_0": "a7d803a235f8f369acf928accbe5ab77557442d160bf51c20387bcfab37bc0fe",
        "rho_1": "95924e0a1309748f141dab4030d734e7fe0a148f60100f0df9d99add11ebd85a",
        "rho_2": "1dc0b7be8e0f91c4a7232862bb2144df3fc380d55c4f80ecba2546ba1017b1f3",
        "shift_witness": "96dd2c309e3113f302bb97e36d883c306d59e4392b40a0599792617ae094303f",
        "sigma_0": "8ee271e4f027b20f26965ec292e59b7c0c7550d3d636aa6842fc7bfe51eab482",
        "sigma_1": "86b722a334853129ec5bbfbbbfaa1895d5815e6f4db4510a8c1279cb1ae6e0b1",
        "sigma_2": "c4861d9ac687d30f5f208c1e491b10b398344f9702b7425736468602e4863b72",
    },
    "F-QS": {
        "rho_0": "4d14154e5f6448e82272be920e24cd62b71cd6b69c6b1dc6cd62db45c97c1e22",
        "rho_1": "baf8622b6f9a2d2e61c6c9dff15957a99a51657638c784e34e3d8087ea353d9e",
        "rho_2": "3458a9b0f193daa5c202a61d68f60eff9c8f5f2e2b8df08d4a6344cfc1e37865",
        "sigma_0": "c72c3f91a12863ef4044613dadd9023e7cc7ffdb5e2b278bedb933f350e6cb18",
        "sigma_1": "c72c3f91a12863ef4044613dadd9023e7cc7ffdb5e2b278bedb933f350e6cb18",
        "sigma_2": "3458a9b0f193daa5c202a61d68f60eff9c8f5f2e2b8df08d4a6344cfc1e37865",
    },
    "F-QSb": {
        "rho_0": "4d14154e5f6448e82272be920e24cd62b71cd6b69c6b1dc6cd62db45c97c1e22",
        "rho_1": "baf8622b6f9a2d2e61c6c9dff15957a99a51657638c784e34e3d8087ea353d9e",
        "rho_2": "3458a9b0f193daa5c202a61d68f60eff9c8f5f2e2b8df08d4a6344cfc1e37865",
        "sigma_0": "c72c3f91a12863ef4044613dadd9023e7cc7ffdb5e2b278bedb933f350e6cb18",
        "sigma_1": "c72c3f91a12863ef4044613dadd9023e7cc7ffdb5e2b278bedb933f350e6cb18",
        "sigma_2": "3458a9b0f193daa5c202a61d68f60eff9c8f5f2e2b8df08d4a6344cfc1e37865",
    },
}


def _module_map_digests(label):
    import hashlib
    import json

    from spinorsheaf.homalg import _orthogonal_shift_witness
    from spinorsheaf.verify import default_group_elements, jsonable

    fx = get_fixture(label)
    m = build_ideal(fx.space, fx.w)
    maps = {}
    witness = _orthogonal_shift_witness(m, shift(m))
    if witness is not None:
        maps["shift_witness"] = list(witness)
    if fx.section_subspace is not None:
        v = restrict_compare(m, Subspace(fx.space, fx.section_subspace))
        if v.kind == "ISOMORPHIC":
            maps["restrict"] = list(v.map[::-1])
    if fx.cone_mod is not None:
        v = cone_compare(m, quotient_space(fx.space, Subspace(fx.space, fx.cone_mod)))
        maps["cone"] = list(v.map[::-1])
    evens, odd = default_group_elements(fx.space)
    for k, g in enumerate(evens + [odd]):
        v = equivariance_check(g, m)
        maps[f"rho_{k}"] = list(v.rho[::-1])
        maps[f"sigma_{k}"] = list(v.sigma[::-1])
    return {k: hashlib.sha256(json.dumps(jsonable(x)).encode()).hexdigest()
            for k, x in maps.items()}


@pytest.mark.parametrize("label", sorted(MAP_SHA256))
def test_module_maps_pinned(label):
    assert _module_map_digests(label) == MAP_SHA256[label]


# sha256 of the JSON form (``verify.jsonable``) of the flag maps, which the
# reports only summarize: inclusion and quotient as built before
# ``IdealModule.graded_map`` built them, and F-H6's section x -> x u.
FLAG_MAP_SHA256 = {
    "F-H6": {
        "inclusion_ev": "9e12a55539d3a20aaefa9e057e10a110dd412a76a4066e29dd538fd94ffc98bf",
        "inclusion_odd": "a0c9ad1c1f7f4fafa539f2a8bb8d9e28a71668b54e7d23cb431be43993264c51",
        "quotient_ev": "4ba83142c9c48104f6c670e22444097c4dfead030f2cf80ee0f418ff02ca179d",
        "quotient_odd": "87b76905d98d22da03561b8ce0108a887b7a9a8f3d6effbf31d61df8a4238758",
        "section": "9cfe2d4ded88afdf9b344955fa64dda739d1e18af99fd84589c53492d216f93a",
    },
    "F-QS": {
        "inclusion_ev": "879d76aea7802dab20f7ddf0d9a0ef6d3f1c48d2df70d87ae83956a3a0a4ecc9",
        "inclusion_odd": "879d76aea7802dab20f7ddf0d9a0ef6d3f1c48d2df70d87ae83956a3a0a4ecc9",
        "quotient_ev": "1e6b7e8d61edd6049cb4f4a2c5cb27664126e30133d602aa1b68aabd1df202cb",
        "quotient_odd": "1e6b7e8d61edd6049cb4f4a2c5cb27664126e30133d602aa1b68aabd1df202cb",
    },
}


def _flag_field(fl, name):
    """A field of the flag sequence by its pinned name, where
    "inclusion_ev" is part B of ``inclusion``."""
    pair, _, parity = name.rpartition("_")
    if parity in ("ev", "odd"):
        return getattr(fl, pair)[parity == "ev"]
    return getattr(fl, name)


@pytest.mark.parametrize("label", sorted(FLAG_MAP_SHA256))
def test_flag_maps_pinned(label):
    import hashlib
    import json

    from spinorsheaf.verify import jsonable

    fx = get_fixture(label)
    fl = flag_sequence(module(label), fx.flag_drop)
    maps = {k: _flag_field(fl, k) for k in FLAG_MAP_SHA256[label]}
    assert {k: hashlib.sha256(json.dumps(jsonable(x)).encode()).hexdigest()
            for k, x in maps.items()} == FLAG_MAP_SHA256[label]
    assert (fl.section is None) == (label == "F-QS")


FLAG_FIELDS = ("inclusion_ev", "inclusion_odd", "quotient_ev", "quotient_odd", "exact",
               "split_subspace", "split_module", "section")
# sha256 of the JSON form (``verify.jsonable``) of the flag fields and
# maps, and of each restriction and cone comparison's (kind, d, parity,
# bijective, linear, then the map's even and odd parts), for the inputs that
# ``_grid_comparison_inputs`` derives from each grid_spaces(7) pair
GRID_COMPARISON_SHA256 = "deca5e876112cd54fb9553616c98719c29f1cc8eeb5ccf003353fefdb0a36cb6"


def _grid_comparison_inputs(space, w):
    """(flag drop, section subspace, cone vertex) of a grid pair: the flag
    drops w's last basis vector and the section is the coordinate
    hyperplane that omits the last pivot of w's reduced rows, both when
    dim W >= 2; the vertex is a basis of W cap K, less its last vector when
    W cap K = W.  None where there is no input."""
    drop = section = None
    if w.dim >= 2:
        drop = w.basis[-1]
        last = max(w._solver.pivots)
        section = Subspace(space, [space.basis_vector(k) for k in range(space.n) if k != last])
    cap = sub_intersection(w, radical_basis(space)).basis
    vertex = cap[:-1] if len(cap) == w.dim else cap
    return drop, section, (Subspace(space, vertex) if vertex else None)


def test_grid_comparisons_pinned():
    import hashlib
    import json

    from spinorsheaf.verify import jsonable

    def comparison(v):
        assert v.kind == "ISOMORPHIC" and v.bijective and v.linear
        return [v.kind, v.d, v.parity, v.bijective, v.linear, *v.map[::-1]]

    records = []
    sections = 0
    for space, w in grid_spaces(7):
        m = build_ideal(space, w)
        drop, section, vertex = _grid_comparison_inputs(space, w)
        rec = {}
        if drop is not None:
            fl = flag_sequence(m, drop)
            sections += fl.section is not None
            rec["flag"] = [_flag_field(fl, k) for k in FLAG_FIELDS]
            rec["restrict"] = comparison(restrict_compare(m, section))
        if vertex is not None:
            rec["cone"] = comparison(cone_compare(m, quotient_space(space, vertex)))
        records.append(rec)
    assert sum("flag" in r for r in records) == 79 and sections == 13
    assert sum("cone" in r for r in records) == 66
    digest = hashlib.sha256(json.dumps(jsonable(records)).encode("utf-8")).hexdigest()
    assert digest == GRID_COMPARISON_SHA256


# A form whose q(e_i) and 2 b(e_i, e_j) are not all integers (1/3, 1/5, 2/3,
# ...), with a radical vector e4 in W, a flag, a section and a cone: its
# Clifford table and module bases carry Fractions through the same code.
NON_INTEGRAL_FIXTURE = {
    "label": "F-Q5r", "dimension": 5,
    "gram": [["1/3", "1/6", "1/5", "2/3", 0],
             ["1/6", 0, 0, "1/3", 0],
             ["1/5", 0, 0, "1/5", 0],
             ["2/3", "1/3", "1/5", "1/3", 0],
             [0, 0, 0, 0, 0]],
    "isotropic": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]],
    "flag_drop": [0, 0, 1, 0, 0],
    "section_subspace": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0],
                         [0, 0, 0, 0, 1]],
    "cone_mod": [[0, 0, 0, 0, 1]],
}
# sha256 of its run_suite(..., "all") report; every record but the fiber
# record's point counts is as computed when every scalar was a Fraction
NON_INTEGRAL_REPORT_SHA256 = "3c6dfeea25664e9209e1372ef05824f038f8d2df7203e666310704391b40f43d"


def test_module_scalars_are_canonical():
    # from the Clifford table through the canonical bases to the action
    # matrices, a whole rational is an int; the non-integral form keeps
    # Fractions where they are not whole
    from spinorsheaf.fixtures import fixture_from_dict

    odd = fixture_from_dict(NON_INTEGRAL_FIXTURE)
    cases = ([(fx.space, fx.w) for fx in map(get_fixture, FIXTURE_LABELS)]
             + grid_spaces(6) + [(odd.space, odd.w)])
    for space, w in cases:
        i = build_ideal(space, w)
        coeffs = [c for x in i.ev_basis + i.odd_basis for c in x.terms.values()]
        entries = [a for m in i.act_ev + i.act_odd for a in m.entries]
        assert all(map(canonical, coeffs + entries)), (space, w)
        assert (space is odd.space) == any(type(c) is Fraction for c in coeffs)


def test_maps_and_certificates_are_canonical(monkeypatch):
    # the Hom basis pairs and every scalar that a report records
    # (certificates, witnesses, maps) of the six fixtures and of the
    # non-integral form; test_module_scalars_are_canonical reads the action
    from spinorsheaf import verify
    from spinorsheaf.fixtures import fixture_from_dict
    from spinorsheaf.homalg import hom_space

    seen = []
    original = verify.jsonable

    def spy(x):
        if isinstance(x, Mat):
            seen.extend(x.entries)
        elif isinstance(x, (int, Fraction)):
            seen.append(x)
        return original(x)

    monkeypatch.setattr(verify, "jsonable", spy)
    for fx in [get_fixture(label) for label in FIXTURE_LABELS] + [
            fixture_from_dict(NON_INTEGRAL_FIXTURE)]:
        i = build_ideal(fx.space, fx.w)
        for hom in (hom_space(i, i), hom_space(i, shift(i))):
            entries = [a for pair in hom_basis(hom) for m in pair for a in m.entries]
            assert all(map(canonical, entries)), fx.label
        seen.clear()
        verify.run_suite(fx, "all")
        assert seen and all(canonical(x) for x in seen if type(x) is not bool), fx.label


def test_non_integral_form_report_pinned():
    import hashlib

    from spinorsheaf.fixtures import fixture_from_dict
    from spinorsheaf.verify import run_suite

    report = run_suite(fixture_from_dict(NON_INTEGRAL_FIXTURE), "all")
    assert report.counts() == {"pass": 23, "fail": 0, "UNDECIDED": 0}
    text = report.to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NON_INTEGRAL_REPORT_SHA256


@lru_cache(maxsize=None)
def _fixture_pair(label):
    return build_factorization(module(label))


_INT_DELTAS = st.integers(-3, 3).filter(bool)
_FRACTION_DELTAS = st.fractions(-3, 3, max_denominator=7).filter(lambda x: x.denominator > 1)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIXTURES), st.sampled_from(("phi", "psi")),
       st.sampled_from((_INT_DELTAS, _FRACTION_DELTAS)), st.data())
def test_perturbed_identity_matches_fraction_loop(label, side, deltas, data):
    # check_identity (one accumulator per row, integer rows) against the
    # pairwise Fraction loop after 1-3 entries of phi or psi are moved
    from dense_oracles import fraction_identity

    mf = _fixture_pair(label)
    n, N = mf.space.n, mf.N
    lm = getattr(mf, side)
    coeff = [row_lists(m) for m in lm.coeff]
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, n - 1))
        r, c = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
        coeff[k][r][c] += data.draw(deltas)
    bad = LinMat(n, [Mat.from_rows(rows) for rows in coeff])
    pair = (FactorizationPair(mf.space, bad, mf.psi) if side == "phi"
            else FactorizationPair(mf.space, mf.phi, bad))
    assert pair.check_identity() is fraction_identity(pair)
