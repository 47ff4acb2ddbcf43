from fractions import Fraction

import pytest

from spinorsheaf.clifford import CliffordElement, GroupElement
from spinorsheaf import spinor
from spinorsheaf.errors import InvariantError, PreconditionError
from spinorsheaf.exactalg import Mat, vec
from spinorsheaf.fixtures import get_fixture, grid_spaces
from spinorsheaf.quadform import Subspace, quotient_space, radical_basis, standardize
from spinorsheaf.spinor import (
    FactorizationPair,
    build_factorization,
    build_ideal,
    cone_compare,
    direct_sum,
    dual_factorization,
    equivariance_check,
    family_indicator,
    fiber_rank,
    flag_sequence,
    recover_intersection_with_radical,
    restrict_compare,
    sample_quadric_points,
    shift,
    zero_module,
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
        assert i.ev_basis[0] == CliffordElement.monomial(space, (0, 1))
        assert i.odd_basis[0] == CliffordElement.monomial(space, (1,))

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
        assert shift(shift(i)).same_module(i)

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
        rows = coeff[0].row_lists()
        rows[0][0] += 1
        coeff[0] = Mat.from_rows(rows)
        bad = FactorizationPair(mf.space, LinMat(4, coeff), mf.psi)
        assert not bad.check_identity()


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

    def test_stratification_on_sampled_points(self):
        for label in ("F-QS", "F-QSb", "F-C5", "F-H6", "F-H6a"):
            fx = get_fixture(label)
            i = build_ideal(fx.space, fx.w)
            mf = build_factorization(i)
            c = i.codim
            rad = radical_basis(fx.space)
            from spinorsheaf.quadform import sub_intersection

            wk = sub_intersection(fx.w, rad)
            for v in sample_quadric_points(fx.space):
                _, fiber = fiber_rank(mf, v)
                if wk.contains(v):
                    assert fiber == 1 << (c - 1)
                else:
                    assert fiber == 1 << (c - 2)

    def test_codim_one_components(self):
        # rank-2 surface: Q = PW cup PW'; the 1x1 factorization vanishes on
        # exactly one of the two hyperplanes
        mf = build_factorization(module("F-H2"))
        r0, f0 = fiber_rank(mf, e(2, 0))
        r1, f1 = fiber_rank(mf, e(2, 1))
        assert sorted((f0, f1)) == [0, 1]


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

        # codim 3 (odd): dual pair equivalent to (phi, psi)
        mf = build_factorization(module("F-H6"))
        dual = dual_factorization(mf)
        cert = factorization_equivalent(dual, mf)
        assert cert is not None
        # codim 2 (even): dual pair equivalent to (psi, phi)
        mf2 = build_factorization(module("F-QS"))
        dual2 = dual_factorization(mf2)
        swapped = FactorizationPair(mf2.space, mf2.psi, mf2.phi)
        assert factorization_equivalent(dual2, swapped) is not None
        assert factorization_equivalent(dual2, mf2) is None


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
                assert module.same_module(build_ideal(space, Subspace(space, rest + [drop])))

    def test_grid_split_agreement(self):
        for space, w in grid_spaces(4):
            if w.dim < 2:
                continue
            for drop in w.basis:
                fl = flag_sequence(build_ideal(space, w), drop)
                assert fl.exact
                assert fl.split_agree


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
        wbar = Subspace(qs.space, [qs.project(fx.w.basis[0])])
        iq = build_ideal(qs.space, wbar)
        verdict = cone_compare(iq, qs)
        assert verdict.dim_u == 1
        assert verdict.parity == 1
        assert verdict.bijective and verdict.linear

    def test_zero_vertex(self):
        fx = get_fixture("F-H6")
        qs = quotient_space(fx.space, Subspace(fx.space, []))
        iq = build_ideal(qs.space, Subspace(qs.space, [qs.project(v) for v in fx.w.basis]))
        verdict = cone_compare(iq, qs)
        assert verdict.dim_u == 0
        assert verdict.parity == 0
        assert verdict.bijective and verdict.linear

    def test_vertex_outside_radical_rejected(self):
        fx = get_fixture("F-C5")
        with pytest.raises(PreconditionError):
            quotient_space(fx.space, Subspace(fx.space, [e(5, 0)]))


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
        std = standardize(fx.space, fx.w)
        i = build_ideal(std.space_std, std.w_std)
        assert family_indicator(i) == "ODD"

    def test_fh2_kills_even(self):
        i = module("F-H2")  # dim w odd, already standard coordinates
        assert family_indicator(i) == "EVEN"

    def test_shift_flips(self):
        fx = get_fixture("F-QS")
        std = standardize(fx.space, fx.w)
        i = build_ideal(std.space_std, std.w_std)
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
        assert v.ok and not v.target_shifted

    def test_even_pair(self):
        i = module("F-H6")
        g = GroupElement(i.space, [vec((1, 0, 0, 1, 0, 0)), vec((0, 1, 0, 0, 1, 0))])
        v = equivariance_check(g, i)
        assert v.ok and not v.target_shifted

    def test_single_odd_factor(self):
        i = module("F-H6")
        g = GroupElement(i.space, [vec((1, 0, 0, 1, 0, 0))])
        v = equivariance_check(g, i)
        assert v.ok and v.target_shifted

    def test_other_fixtures(self):
        for label, factors in (
            ("F-QS", [vec((1, 1, 0, 0)), vec((1, -1, 0, 0))]),
            ("F-C5", [vec((1, 0, 1, 0, 0)), vec((0, 1, 0, 1, 0))]),
        ):
            i = module(label)
            g = GroupElement(i.space, factors)
            assert equivariance_check(g, i).ok


class TestDirectSum:
    def test_sum_with_zero(self):
        from spinorsheaf.homalg import is_isomorphic

        i = module("F-QS")
        s = direct_sum(i, zero_module(i.space))
        assert (s.ev_dim, s.odd_dim) == (i.ev_dim, i.odd_dim)
        assert is_isomorphic(s, i).kind == "ISO"

    def test_block_identity(self):
        from spinorsheaf.exactalg import LinMat

        a = module("F-QS")
        b = shift(module("F-QS"))
        s = direct_sum(a, b)
        pair = FactorizationPair(
            s.space, LinMat(s.space.n, s.act_ev), LinMat(s.space.n, s.act_odd)
        )
        assert pair.check_identity()


class TestSampler:
    def test_points_lie_on_quadric(self):
        for label in ("F-H6", "F-QS", "F-C5"):
            space = get_fixture(label).space
            pts = sample_quadric_points(space)
            assert len(pts) >= 4
            for v in pts:
                assert space.q(v) == 0

    def test_deterministic(self):
        space = get_fixture("F-H6").space
        assert sample_quadric_points(space) == sample_quadric_points(space)


class TestInvariants:
    """A broken internal invariant raises InvariantError, which python -O
    cannot strip as it would an assert."""

    def test_failing_identity_raises(self, monkeypatch):
        monkeypatch.setattr(spinor.MatrixFactorization, "check_identity",
                            lambda self: False)
        with pytest.raises(InvariantError, match="factorization identity"):
            build_factorization(module("F-QS"))

    def test_dimension_law_raises(self, monkeypatch):
        rref_rows = spinor.rref_rows
        seen = []

        def drop_last(vectors, ncols):
            # truncate the canonical basis build_ideal computes from its
            # sparse product rows
            rows, pivots = rref_rows(vectors, ncols)
            seen.append(rows)
            return rows[:-1], pivots[:-1]

        monkeypatch.setattr(spinor, "rref_rows", drop_last)
        fx = get_fixture("F-H6")
        with pytest.raises(InvariantError, match="dimension law"):
            build_ideal(fx.space, fx.w)
        assert len(seen) == 2 and all(len(rows) == 4 for rows in seen)
        assert all(isinstance(row, dict) for rows in seen for row in rows)

    def _restrict_fh6(self):
        fx = get_fixture("F-H6")
        return build_ideal(fx.space, fx.w), Subspace(fx.space, fx.section_subspace)

    def test_restrict_solve_raises(self, monkeypatch):
        i, u = self._restrict_fh6()
        monkeypatch.setattr(spinor, "mat_solve", lambda a, target: None)
        with pytest.raises(InvariantError, match="W cap U"):
            restrict_compare(i, u)

    def test_transversality_bookkeeping_raises(self, monkeypatch):
        i, u = self._restrict_fh6()
        sub_intersection = spinor.sub_intersection

        def one_vector_short(a, b):
            cap = sub_intersection(a, b)
            return Subspace(cap.ambient, list(cap.basis)[1:])

        monkeypatch.setattr(spinor, "sub_intersection", one_vector_short)
        with pytest.raises(InvariantError, match="transversality"):
            restrict_compare(i, u)

    def test_adapted_basis_raises(self, monkeypatch):
        i, u = self._restrict_fh6()
        build = spinor.build_ideal

        def shifted_on_the_full_space(space, w):
            out = build(space, w)
            return shift(out) if space is i.space else out

        monkeypatch.setattr(spinor, "build_ideal", shifted_on_the_full_space)
        with pytest.raises(InvariantError, match="adapted basis"):
            restrict_compare(i, u)


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
        from dense_oracles import dense_ideal_bases

        for label in FIXTURES:
            fx = get_fixture(label)
            i = build_ideal(fx.space, fx.w)
            ev, odd = dense_ideal_bases(fx.space, fx.w)
            assert [x.coords() for x in i.ev_basis] == [x.coords() for x in ev]
            assert [x.coords() for x in i.odd_basis] == [x.coords() for x in odd]

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
                (LinMat(n, [m.scale(Fraction(1, 2)) for m in mf.phi.coeff]),
                 LinMat(n, [m.scale(2) for m in mf.psi.coeff]), True),
                (LinMat(n, [m.scale(2) for m in mf.phi.coeff]),
                 LinMat(n, [m.scale(Fraction(1, 2)) for m in mf.psi.coeff]), True),
                (LinMat(n, [m.scale(Fraction(2, 3)) for m in mf.phi.coeff]),
                 LinMat(n, [m.scale(Fraction(3, 2)) for m in mf.psi.coeff]), True),
                (LinMat(n, [m.scale(Fraction(2, 3)) for m in mf.phi.coeff]),
                 LinMat(n, [m.scale(Fraction(3, 4)) for m in mf.psi.coeff]), False),
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
                            rows = coeff[k].row_lists()
                            rows[r][c] += delta
                            coeff[k] = Mat.from_rows(rows)
                            bad = LinMat(n, coeff)
                            pair = (FactorizationPair(mf.space, bad, mf.psi) if side == "phi"
                                    else FactorizationPair(mf.space, mf.phi, bad))
                            assert pair.check_identity() is False
                            assert fraction_identity(pair) is False

    def test_action_matrix_leaving_the_module_raises(self):
        from spinorsheaf.errors import SpanError

        i = module("F-H6")
        # e_0 maps the even part into the odd part, so reading its images
        # in the even part's basis must fail
        e0 = CliffordElement.from_vector(i.space, e(6, 0))
        with pytest.raises(SpanError, match="left action leaves the module"):
            i.part_matrix(0, [e0 * xi for xi in i.ev_basis], "left action leaves the module")


class TestSplittingAgainstDense:
    """``_splitting_exists`` (the Hom system's rows plus q . sigma = id on
    one sparse elimination) against the dense Fraction system."""

    def test_every_flag_of_the_grid(self):
        from dense_oracles import dense_splitting_exists

        seen = set()
        for space, w in grid_spaces(5):
            if w.dim < 2:
                continue
            for drop in w.basis:
                fl = flag_sequence(build_ideal(space, w), drop)
                assert fl.split_module == dense_splitting_exists(
                    fl.inner, fl.outer, fl.quotient_ev, fl.quotient_odd)
                seen.add(fl.split_module)
                # q scaled by 2 needs a section scaled by 1/2, so the
                # right-hand side meets a denominator; q = 0 leaves rows
                # whose only entry is the right-hand side
                for s in (2, 0):
                    q_ev, q_odd = fl.quotient_ev.scale(s), fl.quotient_odd.scale(s)
                    got = spinor._splitting_exists(fl.inner, fl.outer, q_ev, q_odd)
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
    import random

    from spinorsheaf.exactalg import rref_rows
    from spinorsheaf.homalg import DEFAULT_SEED, _orthogonal_shift_witness
    from spinorsheaf.verify import default_group_elements, jsonable

    fx = get_fixture(label)
    m = build_ideal(fx.space, fx.w)
    maps = {}
    witness = _orthogonal_shift_witness(m, shift(m), random.Random(DEFAULT_SEED))
    if witness is not None:
        maps["shift_witness"] = list(witness)
    if fx.section_subspace is not None:
        v = restrict_compare(m, Subspace(fx.space, fx.section_subspace))
        if v.kind == "ISOMORPHIC":
            maps["restrict"] = [v.map_ev, v.map_odd]
    if fx.cone_mod is not None:
        qs = quotient_space(fx.space, Subspace(fx.space, fx.cone_mod))
        rows, _ = rref_rows([qs.project(v) for v in fx.w.basis], qs.space.n)
        v = cone_compare(build_ideal(qs.space, Subspace(qs.space, rows)), qs)
        maps["cone"] = [v.map_ev, v.map_odd]
    evens, odd = default_group_elements(fx.space)
    for k, g in enumerate(evens + [odd]):
        v = equivariance_check(g, m)
        maps[f"rho_{k}"] = list(v.rho)
        maps[f"sigma_{k}"] = list(v.sigma)
    return {k: hashlib.sha256(json.dumps(jsonable(x)).encode()).hexdigest()
            for k, x in maps.items()}


@pytest.mark.parametrize("label", sorted(MAP_SHA256))
def test_module_maps_pinned(label):
    assert _module_map_digests(label) == MAP_SHA256[label]
