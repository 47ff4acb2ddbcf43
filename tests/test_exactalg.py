from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorsheaf import exactalg as ea
from spinorsheaf.exactalg import (
    LinMat,
    Mat,
    UniPoly,
    binomial_upoly,
    mat_invertible,
    mat_rank,
    mat_rank_kernel,
    mat_solve,
    monomial_multiplication_matrix,
    monomials,
    mult_map_rank,
)


def M(rows):
    return Mat.from_rows(rows)


class TestRankKernel:
    def test_identity(self):
        rank, kernel = mat_rank_kernel(Mat.identity(3))
        assert rank == 3
        assert kernel == ()

    def test_zero(self):
        rank, kernel = mat_rank_kernel(Mat.zeros(2, 2))
        assert rank == 0
        assert kernel == ((1, 0), (0, 1))

    def test_rank_one(self):
        # hand row-reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], kernel (-2,1)
        rank, kernel = mat_rank_kernel(M([[1, 2], [2, 4]]))
        assert rank == 1
        assert kernel == ((-2, 1),)

    def test_rectangular_with_fractions(self):
        m = M([[Fraction(1, 2), 1, 0], [0, 0, 1]])
        rank, kernel = mat_rank_kernel(m)
        assert rank == 2
        assert kernel == ((-2, 1, 0),)
        for v in kernel:
            assert m.mul_vec(v) == (0, 0)


class TestSolve:
    def test_identity(self):
        sol = mat_solve(Mat.identity(2), (5, 7))
        assert sol == ((5, 7), ())

    def test_inconsistent(self):
        assert mat_solve(Mat.zeros(2, 2), (1, 0)) is None

    def test_underdetermined(self):
        particular, kernel = mat_solve(M([[1, 1], [0, 0]]), (3, 0))
        assert particular == (3, 0)
        assert kernel == ((-1, 1),)

    def test_solvability_matches_rank(self):
        a = M([[1, 2], [2, 4], [0, 0]])
        t = (1, 2, 0)
        aug = M([[1, 2, 1], [2, 4, 2], [0, 0, 0]])
        assert mat_solve(a, t) is not None
        assert mat_rank(a) == mat_rank(aug)
        t_bad = (1, 0, 0)
        assert mat_solve(a, t_bad) is None
        aug_bad = M([[1, 2, 1], [2, 4, 0], [0, 0, 0]])
        assert mat_rank(aug_bad) == mat_rank(a) + 1


class TestInvert:
    def test_identity(self):
        assert mat_invertible(Mat.identity(3)) == Mat.identity(3)

    def test_swap_involution(self):
        s = M([[0, 1], [1, 0]])
        assert mat_invertible(s) == s

    def test_singular(self):
        assert mat_invertible(M([[1, 1], [1, 1]])) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_invertible(Mat.zeros(2, 3))

    def test_fractional(self):
        m = M([[Fraction(1, 2), 1], [0, 3]])
        inv = mat_invertible(m)
        assert m @ inv == Mat.identity(2)
        assert inv @ m == Mat.identity(2)


@st.composite
def small_mats(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    ents = draw(
        st.lists(
            st.fractions(max_denominator=6, min_value=-5, max_value=5),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return Mat(rows, cols, [Fraction(x) for x in ents])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_mats())
    def test_rank_transpose_invariant(self, m):
        assert mat_rank(m) == mat_rank(m.transpose())

    @settings(max_examples=60, deadline=None)
    @given(small_mats())
    def test_kernel_vectors_annihilated(self, m):
        rank, kernel = mat_rank_kernel(m)
        assert rank + len(kernel) == m.cols
        zero = tuple([0] * m.rows)
        for v in kernel:
            assert m.mul_vec(v) == zero

    def test_deterministic(self):
        m = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert mat_rank_kernel(m) == mat_rank_kernel(m)
        assert repr(mat_rank_kernel(m)) == repr(mat_rank_kernel(m))


class TestMonomialMatrix:
    def test_single_variable_degree_one(self):
        # lm = [x0] in two variables: constants -> linear forms
        lm = LinMat(2, [M([[1]]), M([[0]])])
        mat = monomial_multiplication_matrix(lm, 1)
        assert (mat.rows, mat.cols) == (2, 1)
        assert mat.col(0) == (1, 0)

    def test_single_variable_degree_two(self):
        # domain x0,x1; codomain x0^2, x0x1, x1^2
        lm = LinMat(2, [M([[1]]), M([[0]])])
        mat = monomial_multiplication_matrix(lm, 2)
        assert (mat.rows, mat.cols) == (3, 2)
        assert mat.row_lists() == [[1, 0], [0, 1], [0, 0]]
        assert mat_rank(mat) == 2

    def test_rejects_nonpositive_degree(self):
        lm = LinMat(2, [M([[1]]), M([[0]])])
        with pytest.raises(ValueError):
            monomial_multiplication_matrix(lm, 0)

    def test_mult_map_rank_matches_dense(self):
        lm = LinMat(
            2,
            [M([[1, 0], [0, 1]]), M([[0, 1], [1, 0]])],
        )
        for t in range(1, 5):
            dense = mat_rank(monomial_multiplication_matrix(lm, t))
            assert mult_map_rank(lm, t) == dense
        assert mult_map_rank(lm, 0) == 0
        assert mult_map_rank(lm, -3) == 0

    def test_mult_map_rank_on_grid_factorizations(self):
        # phi gives h^0, its transpose the top cohomology (homalg.cohomology_dim)
        from spinorsheaf.fixtures import grid_spaces
        from spinorsheaf.spinor import build_factorization, build_ideal

        checked = 0
        for space, w in grid_spaces(5):
            mf = build_factorization(build_ideal(space, w))
            for lm in (mf.phi, mf.phi.transpose()):
                for t in (1, 2, 3):
                    dense = mat_rank(monomial_multiplication_matrix(lm, t))
                    assert mult_map_rank(lm, t) == dense
                    checked += 1
        assert checked == 204

    def test_mult_map_rank_large_instance(self):
        # a rank-6 form on n = 6 with dim W = 1, so N = 16: at t = 3 the
        # matrix is 896 x 336, over 300,000 cells
        from spinorsheaf.fixtures import grid_spaces
        from spinorsheaf.spinor import build_factorization, build_ideal

        space, w = [(s, w) for s, w in grid_spaces(6)
                    if s.n == 6 and s.rank == 6 and w.dim == 1][0]
        mf = build_factorization(build_ideal(space, w))
        assert mf.N == 16
        mat = monomial_multiplication_matrix(mf.phi, 3)
        assert (mat.rows, mat.cols) == (896, 336)
        assert mult_map_rank(mf.phi, 3) == mat_rank(mat) == 336

    def test_mult_map_rank_common_denominator(self):
        # phi = [[x0/2 - 3x1/4, x1], [x0 - 3x1/2, 2x1]]: row 2 is twice row 1,
        # which keeping each entry's numerator alone would break
        F = Fraction
        lm = LinMat(2, [
            M([[F(1, 2), 0], [1, 0]]),
            M([[F(-3, 4), 1], [F(-3, 2), 2]]),
        ])
        for t in range(1, 5):
            dense = mat_rank(monomial_multiplication_matrix(lm, t))
            assert dense == t + 1 < 2 * (t + 1)
            assert mult_map_rank(lm, t) == dense
        lm3 = LinMat(3, [
            M([[F(1, 2), F(1, 3)], [0, F(-3, 4)]]),
            M([[F(-3, 4), 0], [F(5, 6), 1]]),
            M([[0, F(2, 7)], [F(-1, 2), 0]]),
        ])
        for t in range(1, 4):
            assert mult_map_rank(lm3, t) == mat_rank(monomial_multiplication_matrix(lm3, t))

    def test_monomial_order_is_lex(self):
        assert monomials(2, 1) == ((1, 0), (0, 1))
        assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_printed_4x4_pair_degree_one_rank(self):
        from spinorsheaf.cli import linmat_from_strings, paper_example_matrices

        phi_rows, _ = paper_example_matrices()
        lm = linmat_from_strings(6, phi_rows)
        mat = monomial_multiplication_matrix(lm, 1)
        assert (mat.rows, mat.cols) == (24, 4)
        assert mat_rank(mat) == 4


class TestUniPoly:
    def test_binomial_values(self):
        # C(t+3, 3) at integer points agrees with binomial coefficients
        p = binomial_upoly(3, 3)
        assert [p(t) for t in range(5)] == [1, 4, 10, 20, 35]
        assert p(-1) == 0
        assert p(-4) == -1

    def test_arithmetic(self):
        p = UniPoly([1, 2])
        q = UniPoly([0, 1])
        assert (p * q).coeffs == (0, 1, 2)
        assert (p - p).coeffs == ()
        assert (p + q)(3) == p(3) + q(3)

    def test_degree_and_lead(self):
        p = UniPoly([0, 0, Fraction(5, 2)])
        assert p.degree() == 2
        assert p.coeff(2) == Fraction(5, 2)
        assert UniPoly([]).degree() == -1


class TestSpanSolver:
    def test_coords_roundtrip(self):
        vs = [(1, 0, 2), (0, 1, 3)]
        rows, pivots = ea.rref_rows([ea.vec(v) for v in vs], 3)
        solver = ea.SpanSolver(rows, pivots)
        assert solver.coords(ea.vec((1, 1, 5))) == (1, 1)
        assert solver.coords(ea.vec((0, 0, 1))) is None
