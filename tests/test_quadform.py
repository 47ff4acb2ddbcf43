from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracles import (
    canonical,
    evaluate,
    fraction_form,
    quotient_induced_gram,
    quotient_lift,
)
from spinorsheaf.errors import PreconditionError, SchemaError
from spinorsheaf.exactalg import Mat, vec
from spinorsheaf.fixtures import get_fixture
from spinorsheaf.quadform import (
    QuadraticSpace,
    StdProfile,
    Subspace,
    candidate_vectors,
    check_isotropic,
    isotropic_type,
    line_roots,
    quotient_space,
    radical_basis,
    standardize,
    sub_intersection,
)


def e(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


_small_rats = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


# ints, whole Fractions and proper ones
_mixed = st.one_of(st.integers(-3, 3), _small_rats)


@st.composite
def _space_and_vectors(draw, entries=_small_rats):
    n = draw(st.integers(2, 5))
    # symmetric, mostly sparse; a Gram of rank < 2 is no QuadraticSpace
    upper = {(i, j): draw(st.one_of(st.just(Fraction(0)), entries))
             for i in range(n) for j in range(i, n)}
    gram = Mat.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    try:
        space = QuadraticSpace(gram)
    except SchemaError:
        assume(False)
    vectors = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return space, draw(vectors), draw(vectors)


class TestBilinear:
    @settings(max_examples=150, deadline=None)
    @given(_space_and_vectors())
    def test_b_matches_the_dense_gram(self, case):
        space, v, w = case
        got = space.b(v, w)
        assert canonical(got)
        assert got == sum((a * c for a, c in zip(v, space.gram.mul_vec(w))), Fraction(0))

    @settings(max_examples=150, deadline=None)
    @given(_space_and_vectors(_mixed))
    def test_b_and_q_match_the_fraction_oracle(self, case):
        # the integer Gram rows and the cleared vectors give the value of
        # the form in Fractions, canonical, whole Fractions among the inputs
        space, v, w = case
        for got, want in ((space.b(v, w), fraction_form(space, v, w)),
                          (space.b(w, v), fraction_form(space, v, w)),
                          (space.q(v), fraction_form(space, v, v))):
            assert canonical(got) and got == want

    def test_b_checks_lengths(self):
        space = get_fixture("F-H6").space
        with pytest.raises(PreconditionError):
            space.b(e(6, 0), e(5, 0))


class TestEvaluate:
    def test_hyperbolic_pairing(self):
        fx = get_fixture("F-H6")
        assert evaluate(fx.space, e(6, 0), e(6, 3)) == Fraction(1, 2)

    def test_zero_vector(self):
        fx = get_fixture("F-QS")
        assert evaluate(fx.space, (0, 0, 0, 0)) == 0

    def test_bilinearity_sum(self):
        fx = get_fixture("F-H6")
        v = vec((1, 0, 0, 1, 0, 0))  # e0 + e3
        assert evaluate(fx.space, v) == 1

    def test_length_mismatch(self):
        fx = get_fixture("F-H2")
        with pytest.raises(PreconditionError):
            evaluate(fx.space, (1, 0, 0))


class TestRadical:
    def test_nondegenerate(self):
        assert radical_basis(get_fixture("F-H6").space).dim == 0

    def test_rank_two_surface(self):
        k = radical_basis(get_fixture("F-QS").space)
        assert k.dim == 2
        assert k.contains(e(4, 2)) and k.contains(e(4, 3))

    def test_corank_one(self):
        k = radical_basis(get_fixture("F-C5").space)
        assert k.dim == 1
        assert k.contains(e(5, 4))

    def test_radical_rows_vanish(self):
        space = get_fixture("F-QS").space
        for v in radical_basis(space).basis:
            assert all(x == 0 for x in space.gram.mul_vec(v))


class TestIsotropy:
    def test_max_isotropic_fh6(self):
        fx = get_fixture("F-H6")
        assert check_isotropic(fx.space, fx.w)

    def test_pairing_detected(self):
        space = get_fixture("F-H6").space
        w = Subspace(space, [e(6, 0), e(6, 3)])
        assert not check_isotropic(space, w)

    def test_fqs(self):
        space = get_fixture("F-QS").space
        assert check_isotropic(space, Subspace(space, [e(4, 1), e(4, 2)]))


class TestQuotient:
    def test_fqs_mod_radical(self):
        space = get_fixture("F-QS").space
        qs = quotient_space(space, radical_basis(space))
        assert qs.space.n == 2
        assert qs.space.rank == 2
        assert quotient_induced_gram(qs) == Mat.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])

    def test_mod_zero(self):
        space = get_fixture("F-H6").space
        qs = quotient_space(space, Subspace(space, []))
        assert qs.space.gram == space.gram

    def test_fc5_mod_vertex(self):
        space = get_fixture("F-C5").space
        qs = quotient_space(space, radical_basis(space))
        assert qs.space.n == 4
        assert qs.space.rank == 4

    def test_projection_section_identity(self):
        space = get_fixture("F-QS").space
        qs = quotient_space(space, radical_basis(space))
        assert qs.projection @ qs.section == Mat.identity(2)

    def test_section_respects_forms(self):
        space = get_fixture("F-C5").space
        qs = quotient_space(space, radical_basis(space))
        for i in range(qs.space.n):
            for j in range(qs.space.n):
                vi, vj = e(qs.space.n, i), e(qs.space.n, j)
                assert qs.space.b(vi, vj) == space.b(quotient_lift(qs, vi),
                                                     quotient_lift(qs, vj))

    def test_rejects_non_radical(self):
        space = get_fixture("F-QS").space
        with pytest.raises(PreconditionError):
            quotient_space(space, Subspace(space, [e(4, 0)]))


class TestStandardize:
    def test_fh6_already_standard(self):
        fx = get_fixture("F-H6")
        std = standardize(fx.space, fx.w)
        assert std.profile.k == 3
        assert std.profile.pi_dim == 3
        assert std.profile.diag_index is None
        # permutation only: every new basis vector is a standard one
        for v in std.new_basis:
            assert sum(1 for x in v if x) == 1

    def test_fqs_normal_form(self):
        fx = get_fixture("F-QS")
        std = standardize(fx.space, fx.w)
        p = std.profile
        assert (p.k, p.pi_dim, p.w_radical_count) == (1, 1, 1)
        assert std.space_std.gram == Mat.from_rows(
            [
                [0, Fraction(1, 2), 0, 0],
                [Fraction(1, 2), 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        )
        assert std.w_std.contains(e(4, 1))
        assert std.w_std.contains(e(4, 2))

    def test_fc5_pairs_and_radical(self):
        fx = get_fixture("F-C5")
        std = standardize(fx.space, fx.w)
        p = std.profile
        assert p.k == 2
        assert p.pi_dim == 1
        assert p.w_radical_count == 1
        # gram verification of the output pairs
        for a, b in zip(p.a_positions, p.b_positions):
            va, vb = std.new_basis[a], std.new_basis[b]
            assert fx.space.q(va) == 0
            assert fx.space.q(vb) == 0
            assert fx.space.b(va, vb) == Fraction(1, 2)
        for r in p.radical_positions:
            vr = std.new_basis[r]
            assert all(x == 0 for x in fx.space.gram.mul_vec(vr))

    def test_normal_form_pairs_reproduced(self):
        for label in ("F-H2", "F-H6", "F-H6a", "F-QS", "F-QSb", "F-C5"):
            fx = get_fixture(label)
            std = standardize(fx.space, fx.w)
            g = std.space_std.gram
            assert g == std.profile.normal_gram()
            # change of basis really conjugates the form
            assert std.change.transpose() @ fx.space.gram @ std.change == g

    def test_odd_rank_diag(self):
        gram = Mat.from_rows(
            [
                [1, 0, 0],
                [0, 0, Fraction(1, 2)],
                [0, Fraction(1, 2), 0],
            ]
        )
        space = QuadraticSpace(gram)
        w = Subspace(space, [e(3, 1)])
        std = standardize(space, w)
        assert std.profile.diag_index == 0
        assert std.profile.diag_value != 0

    def test_detect_profile_roundtrip(self):
        # the oracle of the standardized certificates recovers the profile
        # that standardize returned, and recognizes no other space
        from dense_oracles import detect_standard_profile

        for label in ("F-QS", "F-H6", "F-C5", "F-H6a"):
            fx = get_fixture(label)
            std = standardize(fx.space, fx.w)
            prof = detect_standard_profile(std.space_std, std.w_std)
            assert prof is not None
            for attr in StdProfile.__slots__:
                assert getattr(prof, attr) == getattr(std.profile, attr)
        # x0^2 - x1^2 is not in normal form
        space = QuadraticSpace(Mat.from_rows([[1, 0], [0, -1]]))
        w = Subspace(space, [(1, 1)])
        assert detect_standard_profile(space, w) is None
        assert standardize(space, w).profile.pi_dim == 1

    def test_non_isotropic_rejected(self):
        fx = get_fixture("F-H6")
        w = Subspace(fx.space, [e(6, 0), e(6, 3)])
        with pytest.raises(PreconditionError):
            standardize(fx.space, w)

    def test_unavailable_over_rationals(self):
        # leftover x2^2 + x3^2 has no rational isotropic vector
        from spinorsheaf.errors import StandardizationUnavailable

        half = Fraction(1, 2)
        gram = Mat.from_rows(
            [[0, half, 0, 0], [half, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        space = QuadraticSpace(gram)
        with pytest.raises(StandardizationUnavailable):
            standardize(space, Subspace(space, [e(4, 0)]))

    def test_messy_gram_completes(self):
        half = Fraction(1, 2)
        gram = Mat.from_rows([[1, 1, 0], [1, -1, half], [0, half, 0]])
        space = QuadraticSpace(gram)
        std = standardize(space, Subspace(space, [e(3, 2)]))
        assert std.profile.k == 1
        assert std.profile.diag_value != 0
        assert std.space_std.gram == std.profile.normal_gram()


class TestSubspaceOps:
    def test_intersection(self):
        space = get_fixture("F-QS").space
        w = Subspace(space, [e(4, 1), e(4, 2)])
        k = radical_basis(space)
        cap = sub_intersection(w, k)
        assert cap.dim == 1
        assert cap.contains(e(4, 2))

    def test_space_invariants(self):
        with pytest.raises(SchemaError):
            QuadraticSpace(Mat.from_rows([[0, 1], [0, 0]]))  # not symmetric
        with pytest.raises(SchemaError):
            QuadraticSpace(Mat.from_rows([[1, 0], [0, 0]]))  # rank 1


class TestSearches:
    def test_candidate_order_pinned(self):
        # e_i, then for each i < j: e_i + e_j and e_i - e_j
        space = get_fixture("F-QS").space
        got = [tuple(int(x) for x in v) for v in candidate_vectors(space)]
        assert got == [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
            (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0),
            (0, 1, 0, 1), (0, 1, 0, -1), (0, 0, 1, 1), (0, 0, 1, -1),
        ]
        assert all(len(v) == 4 and all(map(canonical, v))
                   for v in candidate_vectors(space))

    @given(_space_and_vectors())
    @settings(max_examples=60, deadline=None)
    def test_line_roots_solve_q(self, sv):
        space, a, b = sv
        qa, bab, qb = space.q(a), 2 * space.b(a, b), space.q(b)
        roots = line_roots(qa, bab, qb)
        assert roots == sorted(set(roots))
        for t in roots:
            assert space.q(tuple(x + t * y for x, y in zip(a, b))) == 0
        if qb == 0 and bab != 0:
            assert roots == [Fraction(-qa, bab)]

    def test_line_roots_cases(self):
        half = Fraction(1, 2)
        # t^2 - 1: two roots, ascending
        assert line_roots(-1, 0, 1) == [-1, 1]
        # (t + 1/2)^2: one double root
        assert line_roots(Fraction(1, 4), 1, 1) == [-half]
        # t^2 - 2 and t^2 + 1: no rational root
        assert line_roots(-2, 0, 1) == []
        assert line_roots(1, 0, 1) == []
        # linear, qb = 0: 3 + 2t
        assert line_roots(3, 2, 0) == [Fraction(-3, 2)]
        # qb = bab = 0: none given, whether or not qa = 0
        assert line_roots(3, 0, 0) == []
        assert line_roots(0, 0, 0) == []
        # q = x0 x1 on the line (1, 0) + t (1, 1): q = t + t^2
        space = QuadraticSpace(Mat.from_rows([[0, half], [half, 0]]))
        a, b = e(2, 0), (Fraction(1), Fraction(1))
        assert line_roots(space.q(a), 2 * space.b(a, b), space.q(b)) == [-1, 0]

    def test_isotropic_type(self):
        # (dim pi(w), rank // 2, dim w cap K)
        expected = {"F-H2": (1, 1, 0), "F-QS": (1, 1, 1), "F-QSb": (1, 1, 1),
                    "F-C5": (1, 2, 1), "F-H6": (3, 3, 0), "F-H6a": (1, 3, 0)}
        for label, jkl in expected.items():
            fx = get_fixture(label)
            assert isotropic_type(fx.space, fx.w) == jkl
