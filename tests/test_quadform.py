from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracles import (
    StdProfile,
    canonical,
    detect_standard_profile,
    evaluate,
    fraction_form,
    quotient_induced_gram,
    quotient_lift,
    standardization_profile,
    standardized_copy,
)
from spinorsheaf.errors import PreconditionError, SchemaError
from spinorsheaf.exactalg import Mat, vec
from spinorsheaf.fixtures import FIXTURE_LABELS, get_fixture, grid_spaces
from spinorsheaf.quadform import (
    QuadraticSpace,
    Subspace,
    anisotropic_orthogonal,
    candidate_vectors,
    check_isotropic,
    isotropic_type,
    quotient_space,
    radical_basis,
    standardize,
    sub_intersection,
)
from spinorsheaf.spinor import quadric_points


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
        assert len(std.partners) == 3
        assert len(std.tails) == 3
        assert std.diag is None
        # permutation only: every new basis vector is a standard one
        for v in std.basis:
            assert sum(1 for x in v if x) == 1

    def test_fqs_normal_form(self):
        fx = get_fixture("F-QS")
        std = standardize(fx.space, fx.w)
        assert (len(std.partners), len(std.tails), std.l) == (1, 1, 1)
        space_std, w_std = standardized_copy(fx.space, fx.w)
        assert space_std.gram == Mat.from_rows(
            [
                [0, Fraction(1, 2), 0, 0],
                [Fraction(1, 2), 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        )
        assert w_std.contains(e(4, 1))
        assert w_std.contains(e(4, 2))

    def test_fc5_pairs_and_radical(self):
        # F-C5's pi(w) has dim 1 < k = 2: no standardization
        fx = get_fixture("F-C5")
        with pytest.raises(PreconditionError):
            standardize(fx.space, fx.w)
        for space, w in grid_spaces(6):
            j, k, l = isotropic_type(space, w)
            if j != k:
                continue
            std = standardize(space, w)
            assert (len(std.partners), len(std.tails), std.l) == (k, j, l)
            # gram verification of the output pairs
            for va, vb in zip(std.partners, std.tails):
                assert space.q(va) == 0
                assert space.q(vb) == 0
                assert space.b(va, vb) == Fraction(1, 2)
            for vr in std.radical:
                assert all(x == 0 for x in space.gram.mul_vec(vr))

    def test_normal_form_pairs_reproduced(self):
        for label in ("F-H2", "F-H6", "F-QS", "F-QSb"):
            fx = get_fixture(label)
            std = standardize(fx.space, fx.w)
            g = standardized_copy(fx.space, fx.w)[0].gram
            assert g == standardization_profile(fx.space, std).normal_gram()
            # the new basis really conjugates the form
            basis = std.basis
            assert all(fx.space.b(u, v) == g[p, q] for p, u in enumerate(basis)
                       for q, v in enumerate(basis))
        for label in ("F-H6a", "F-C5"):
            fx = get_fixture(label)
            with pytest.raises(PreconditionError):
                standardize(fx.space, fx.w)

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
        assert std.basis[0] == std.diag
        assert space.q(std.diag) != 0

    def test_detect_profile_roundtrip(self):
        # the oracle of the standardized certificates recovers the profile
        # of the basis that standardize returned, and recognizes no other space
        for label in ("F-QS", "F-H6"):
            fx = get_fixture(label)
            std = standardize(fx.space, fx.w)
            prof = detect_standard_profile(*standardized_copy(fx.space, fx.w))
            assert prof is not None
            expected = standardization_profile(fx.space, std)
            for attr in StdProfile.__slots__:
                assert getattr(prof, attr) == getattr(expected, attr)
        for label in ("F-C5", "F-H6a"):
            fx = get_fixture(label)
            with pytest.raises(PreconditionError):
                standardize(fx.space, fx.w)
        # x0^2 - x1^2 is not in normal form
        space = QuadraticSpace(Mat.from_rows([[1, 0], [0, -1]]))
        w = Subspace(space, [(1, 1)])
        assert detect_standard_profile(space, w) is None
        assert len(standardize(space, w).tails) == 1

    def test_non_isotropic_rejected(self):
        fx = get_fixture("F-H6")
        w = Subspace(fx.space, [e(6, 0), e(6, 3)])
        with pytest.raises(PreconditionError):
            standardize(fx.space, w)

    def test_unavailable_over_rationals(self):
        # leftover x2^2 + x3^2 has no rational isotropic vector, so no
        # hyperbolic basis exists; pi(w) of dim 1 < k = 2 is refused first
        half = Fraction(1, 2)
        gram = Mat.from_rows(
            [[0, half, 0, 0], [half, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        space = QuadraticSpace(gram)
        with pytest.raises(PreconditionError, match="maximal"):
            standardize(space, Subspace(space, [e(4, 0)]))

    def test_only_maximal_projection(self):
        # every grid w with dim pi(w) < k is refused, whatever its radical part
        refused = 0
        for space, w in grid_spaces(5):
            j, k, _ = isotropic_type(space, w)
            if j == k:
                continue
            with pytest.raises(PreconditionError, match="maximal"):
                standardize(space, w)
            refused += 1
        assert refused > 0

    def test_messy_gram_completes(self):
        half = Fraction(1, 2)
        gram = Mat.from_rows([[1, 1, 0], [1, -1, half], [0, half, 0]])
        space = QuadraticSpace(gram)
        w = Subspace(space, [e(3, 2)])
        std = standardize(space, w)
        assert len(std.partners) == 1
        assert space.q(std.diag) != 0
        space_std, _ = standardized_copy(space, w)
        assert space_std.gram == standardization_profile(space, std).normal_gram()


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

    def test_isotropic_type(self):
        # (dim pi(w), rank // 2, dim w cap K)
        expected = {"F-H2": (1, 1, 0), "F-QS": (1, 1, 1), "F-QSb": (1, 1, 1),
                    "F-C5": (1, 2, 1), "F-H6": (3, 3, 0), "F-H6a": (1, 3, 0)}
        for label, jkl in expected.items():
            fx = get_fixture(label)
            assert isotropic_type(fx.space, fx.w) == jkl

    def test_anisotropic_orthogonal_is_complete(self):
        # every isotropic point off K of the fixtures' and grid_spaces(6)'s
        # forms: an h with b(h, v) = 0 and q(h) != 0 exactly when q has
        # rank >= 3, and on a rank-2 form q vanishes on v^perp
        cases = [(get_fixture(label).space, get_fixture(label).w) for label in FIXTURE_LABELS]
        found = {True: 0, False: 0}
        for space, w in cases + grid_spaces(6):
            rad = radical_basis(space)
            for v in quadric_points(space, w):
                if rad.contains(v):
                    with pytest.raises(PreconditionError, match="radical"):
                        anisotropic_orthogonal(space, v)
                    continue
                h = anisotropic_orthogonal(space, v)
                assert (h is not None) == (space.rank >= 3)
                if h is None:
                    perp = [u for u in candidate_vectors(space) if space.b(u, v) == 0]
                    assert all(space.q(u) == 0 for u in perp)
                else:
                    assert all(x.__class__ is int for x in h)
                    assert space.b(h, v) == 0 and space.q(h) != 0
                found[h is not None] += 1
        assert found[True] > 0 and found[False] > 0

    def test_anisotropic_orthogonal_order(self):
        # y_k = c_a e_k - c_k e_a for the first a with c_a = b(v, e_a) != 0,
        # then the pair sums: on the hyperbolic F-H6 at v = e0 (c_3 = 1/2,
        # cleared to 1) every y_k is isotropic, and y_1 + y_4 is the first
        # anisotropic sum
        space = get_fixture("F-H6").space
        assert anisotropic_orthogonal(space, e(6, 0)) == (0, 1, 0, 0, 1, 0)
