from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorsheaf import _kernels, exactalg as ea
from spinorsheaf.exactalg import (
    LinMat,
    Mat,
    UniPoly,
    binomial_upoly,
    mat_invertible,
    mat_rank,
    mat_rank_kernel,
    mat_solve,
    monomials,
    mult_map_rank,
    transposed_mult_map_rank,
)

from dense_oracles import (
    block_diag,
    canonical,
    canonical_nonzeros,
    dense_invertible,
    dense_rank,
    dense_rank_kernel,
    dense_solve,
    monomial_multiplication_matrix,
    row_lists,
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
        assert mat_solve(Mat.identity(2), (5, 7)) == (5, 7)

    def test_inconsistent(self):
        assert mat_solve(Mat.zeros(2, 2), (1, 0)) is None

    def test_underdetermined(self):
        # the solution is 0 at the free column
        a = M([[1, 1], [0, 0]])
        assert mat_solve(a, (3, 0)) == (3, 0)
        assert mat_rank_kernel(a)[1] == ((-1, 1),)

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

    @settings(max_examples=60, deadline=None)
    @given(small_mats(), st.data())
    def test_mul_vec_matches_dense_sum(self, m, data):
        v = data.draw(st.lists(st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-3, 3),
                                         st.fractions(-3, 3, max_denominator=5)),
                               min_size=m.cols, max_size=m.cols))
        expected = tuple(sum((m[i, j] * v[j] for j in range(m.cols)), Fraction(0))
                         for i in range(m.rows))
        assert m.mul_vec(v) == expected
        assert all(map(canonical, m.mul_vec(v)))

    def test_mul_vec_empty_shapes(self):
        assert Mat.zeros(3, 0).mul_vec(()) == (0, 0, 0)
        assert Mat.zeros(0, 2).mul_vec((1, 2)) == ()

    def test_deterministic(self):
        m = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert mat_rank_kernel(m) == mat_rank_kernel(m)
        assert repr(mat_rank_kernel(m)) == repr(mat_rank_kernel(m))


@st.composite
def rectangular_lin_mats(draw):
    """LinMats with rows != cols and fractional entries, most entries zero;
    some repeat a scaled row (or column) of every coefficient, so that the
    multiplication maps are often rank-deficient."""
    n = draw(st.integers(1, 3))
    R = draw(st.integers(1, 4))
    C = draw(st.sampled_from([c for c in range(1, 5) if c != R]))
    entry = st.one_of(st.just(0), st.just(0),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    coeff = [draw(st.lists(st.lists(entry, min_size=C, max_size=C), min_size=R, max_size=R))
             for _ in range(n)]
    kind = draw(st.sampled_from(["generic", "row", "col"]))
    s = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
    for m in coeff:
        if kind == "row" and R > 1:
            m[-1] = [s * x for x in m[0]]
        elif kind == "col" and C > 1:
            for row in m:
                row[-1] = s * row[0]
    return LinMat(n, [M(m) for m in coeff])


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
        assert row_lists(mat) == [[1, 0], [0, 1], [0, 0]]
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
            dense = dense_rank(monomial_multiplication_matrix(lm, t))
            assert mult_map_rank(lm, t) == dense
            dense_t = dense_rank(monomial_multiplication_matrix(lm.transpose(), t))
            assert transposed_mult_map_rank(lm, t) == dense_t
        assert mult_map_rank(lm, 0) == transposed_mult_map_rank(lm, 0) == 0
        assert mult_map_rank(lm, -3) == transposed_mult_map_rank(lm, -3) == 0
        # [x0, x1] maps S(t-1)^2 onto S(t), with the Koszul syzygy as kernel
        # from t = 2; its transpose [x0; x1] is injective
        row = LinMat(2, [M([[1, 0]]), M([[0, 1]])])
        for t in range(1, 5):
            assert mult_map_rank(row, t) == t + 1 <= 2 * t
            assert mult_map_rank(row.transpose(), t) == t < 2 * (t + 1)
            assert transposed_mult_map_rank(row, t) == t
            assert dense_rank(monomial_multiplication_matrix(row, t)) == t + 1

    def test_mult_map_rank_on_grid_factorizations(self):
        # phi gives h^0, its transpose the top cohomology (homalg.cohomology_dim)
        from spinorsheaf.fixtures import grid_spaces
        from spinorsheaf.spinor import build_factorization, build_ideal

        checked = 0
        for space, w in grid_spaces(5):
            mf = build_factorization(build_ideal(space, w))
            for lm in (mf.phi, mf.phi.transpose()):
                for t in (1, 2, 3):
                    dense = dense_rank(monomial_multiplication_matrix(lm, t))
                    assert mult_map_rank(lm, t) == dense
                    if lm is not mf.phi:
                        assert transposed_mult_map_rank(mf.phi, t) == dense
                    checked += 1
        assert checked == 204

    @settings(max_examples=60, deadline=None)
    @given(rectangular_lin_mats())
    # codomain blocks laid out cols wide instead of rows wide overlap here
    # and lose a pivot at t = 3
    @example(LinMat(2, [M([[1, 0], [0, 0], [0, 0]]), M([[0, 1], [0, 0], [-1, 0]])]))
    def test_mult_map_rank_rectangular(self, lm):
        assert lm.rows != lm.cols
        for t in range(1, 5):
            assert mult_map_rank(lm, t) == dense_rank(monomial_multiplication_matrix(lm, t))
            assert transposed_mult_map_rank(lm, t) == dense_rank(
                monomial_multiplication_matrix(lm.transpose(), t))

    def test_cohomology_grid_ranks_pinned(self):
        # every rank one cohomology-grid pass computes: phi at t = 1..6 for
        # h^0, phi^T in degree -t-n+1 >= 1 (twists t >= -6) for the top
        # index; psi phi = q Id makes each map injective, of full column rank
        import hashlib

        from spinorsheaf.fixtures import grid_spaces
        from spinorsheaf.spinor import build_factorization, build_ideal

        ranks = []
        for space, w in grid_spaces(6):
            n = space.n
            if n not in (5, 6):
                continue
            mf = build_factorization(build_ideal(space, w))
            for rank, degrees in ((mult_map_rank, range(1, 7)),
                                  (transposed_mult_map_rank, range(1, 8 - n))):
                got = [rank(mf.phi, t) for t in degrees]
                assert got == [mf.N * ea.monomial_count(n, t - 1) for t in degrees]
                ranks.append(got)
        assert len(ranks) == 2 * 51
        digest = hashlib.sha256(repr(ranks).encode("utf-8")).hexdigest()
        assert digest == "3d338e5c718a0155952ebc5ae086204300a19a16b472da04119e195841dc9df2"

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
        assert mult_map_rank(mf.phi, 3) == mat_rank(mat) == dense_rank(mat) == 336

    def test_mult_map_rank_common_denominator(self):
        # phi = [[x0/2 - 3x1/4, x1], [x0 - 3x1/2, 2x1]]: row 2 is twice row 1,
        # which keeping each entry's numerator alone would break
        F = Fraction
        lm = LinMat(2, [
            M([[F(1, 2), 0], [1, 0]]),
            M([[F(-3, 4), 1], [F(-3, 2), 2]]),
        ])
        for t in range(1, 5):
            dense = dense_rank(monomial_multiplication_matrix(lm, t))
            assert dense == t + 1 < 2 * (t + 1)
            assert mult_map_rank(lm, t) == dense
        lm3 = LinMat(3, [
            M([[F(1, 2), F(1, 3)], [0, F(-3, 4)]]),
            M([[F(-3, 4), 0], [F(5, 6), 1]]),
            M([[0, F(2, 7)], [F(-1, 2), 0]]),
        ])
        for t in range(1, 4):
            assert mult_map_rank(lm3, t) == dense_rank(monomial_multiplication_matrix(lm3, t))
        for m in (lm, lm3):
            for t in range(1, 4):
                assert transposed_mult_map_rank(m, t) == dense_rank(
                    monomial_multiplication_matrix(m.transpose(), t))

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

    @staticmethod
    def fraction_horner(p, t):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * t + c
        return acc

    def test_integer_horner_matches_fractions_on_hilbert_polynomials(self):
        from spinorsheaf.homalg import _quadric_polys

        for n in range(2, 13):
            for N in (1, 2 ** (n - 2), 3):
                for p in _quadric_polys(n):
                    p = p.scale(N)
                    for t in range(-20, 21):
                        got = p(t)
                        assert got == self.fraction_horner(p, t) and canonical(got)
        assert UniPoly([])(5) == 0 and UniPoly([Fraction(7, 2)])(-3) == Fraction(7, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(-5, 5, max_denominator=9), max_size=7),
           st.one_of(st.integers(-30, 30), st.fractions(-4, 4, max_denominator=7)))
    def test_integer_horner_matches_fractions(self, coeffs, t):
        p = UniPoly(coeffs)
        got = p(t)
        assert got == self.fraction_horner(p, Fraction(t)) and canonical(got)
        assert p(t) == got


class TestSpanSolver:
    def test_coords_roundtrip(self):
        vs = [(1, 0, 2), (0, 1, 3)]
        rows, pivots = ea.rref_rows([ea.vec(v) for v in vs])
        solver = ea.SpanSolver(rows, pivots)
        assert solver.coords(ea.vec((1, 1, 5))) == {0: 1, 1: 1}
        assert solver.coords(ea.vec((0, 0, 1))) is None


ONE = Fraction(1)


@st.composite
def spanning_sets(draw):
    """Mostly-zero rational vectors with zero, repeated and scaled copies
    and fractional entries, so that dependent sets are common."""
    nc = draw(st.integers(1, 9))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.integers(-5, 5).map(Fraction),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))
    base = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=1, max_size=7))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "scaled"]))
        if kind == "zero":
            rows.append([Fraction(0)] * nc)
        else:
            src = draw(st.sampled_from(base))
            s = Fraction(1) if kind == "repeat" else draw(
                st.sampled_from([Fraction(-3), Fraction(2), Fraction(1, 2), Fraction(-5, 3)]))
            rows.append([s * v for v in src])
    order = draw(st.permutations(range(len(rows))))
    return [tuple(rows[i]) for i in order], nc


def sparse_dense_rref(vectors, nc):
    """The dense Bareiss RREF of ``vectors`` in the sparse form of
    ``rref_rows``: rows as ``{col: value}`` dicts of nonzeros."""
    from dense_oracles import dense_rref

    rows, pivots = dense_rref(vectors, nc)
    return [{j: x for j, x in enumerate(r) if x} for r in rows], pivots


class TestRrefAgainstDense:
    """The dense Bareiss RREF that rref_rows replaced is its oracle; rows
    come out as ``{col: value}`` dicts in column order, from dense or
    sparse input."""

    @staticmethod
    def _check(given, vectors, nc):
        """``rref_rows(given)``, ``vectors`` in some form, against the
        dense reference on ``vectors``."""
        rows, pivots = ea.rref_rows(given)
        assert (rows, pivots) == sparse_dense_rref(vectors, nc)
        assert all(list(row) == sorted(row) for row in rows)
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for row in rows for x in row.values())

    @settings(max_examples=200, deadline=None)
    @given(spanning_sets())
    def test_dense_vectors(self, case):
        vectors, nc = case
        self._check(vectors, vectors, nc)

    @settings(max_examples=200, deadline=None)
    @given(spanning_sets())
    def test_sparse_vectors(self, case):
        vectors, nc = case
        self._check([{j: x for j, x in enumerate(v) if x} for v in vectors], vectors, nc)

    def test_empty_and_zero(self):
        assert ea.rref_rows([]) == ([], [])
        assert ea.rref_rows([ea.vec((0, 0, 0))]) == ([], [])
        assert ea.rref_rows([{}]) == ([], [])

    def test_known(self):
        # [[2, 4, 0], [1, 3, 1]] -> [[1, 0, -2], [0, 1, 1]]
        rows, pivots = ea.rref_rows([ea.vec((2, 4, 0)), ea.vec((1, 3, 1))])
        assert pivots == [0, 1]
        assert rows == [{0: 1, 2: -2}, {1: 1, 2: 1}]
        rows, _ = ea.rref_rows([{0: Fraction(2), 1: Fraction(4)}, {0: ONE, 1: Fraction(3), 2: ONE}])
        assert rows == [{0: 1, 2: -2}, {1: 1, 2: 1}]


@st.composite
def reduced_up_to_scale(draw):
    """Rows of a reduced echelon form, each scaled by a nonzero rational
    (negative and non-unit leading entries among them), with zero rows,
    in shuffled order; and ``near``, the same rows after one change that
    makes them no longer reduced: a row gets a nonzero at another row's
    leading column, or a scaled copy of a row shares its leading column."""
    nc = draw(st.integers(1, 9))
    pivots = sorted(draw(st.sets(st.integers(0, nc - 1), min_size=1, max_size=nc)))
    nonzero = st.one_of(st.integers(-5, 5).filter(bool).map(Fraction),
                        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))
    entry = st.one_of(st.just(Fraction(0)), nonzero)
    rows = []
    for p in pivots:
        s = draw(nonzero)
        rows.append([Fraction(0) if j < p or (j in pivots and j != p)
                     else s if j == p else s * draw(entry) for j in range(nc)])
    if len(pivots) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(pivots) - 2))
        near = [list(r) for r in rows]
        near[i][draw(st.sampled_from(pivots[i + 1:]))] = draw(nonzero)
    else:
        near = rows + [[draw(nonzero) * x for x in draw(st.sampled_from(rows))]]
    zeros = [[Fraction(0)] * nc for _ in range(draw(st.integers(0, 2)))]

    def shuffled(rs):
        rs = rs + zeros
        return [tuple(rs[k]) for k in draw(st.permutations(range(len(rs))))]

    return shuffled(rows), shuffled(near), nc


class TestRrefShortcut:
    """Rows already reduced up to scale skip the elimination, and rows
    that only nearly are take it; both match the dense Bareiss reference."""

    @staticmethod
    def _rref(vectors, as_dicts):
        """``rref_rows`` of ``vectors``, given as dicts or dense tuples, and
        the number of eliminations it ran."""
        from unittest import mock

        if as_dicts:
            vectors = [{j: x for j, x in enumerate(v) if x} for v in vectors]
        with mock.patch.object(ea._kernels, "sparse_echelon",
                               wraps=ea._kernels.sparse_echelon) as kernel:
            rows, pivots = ea.rref_rows(vectors)
        assert all(list(row) == sorted(row) for row in rows)
        assert all(map(canonical, (x for row in rows for x in row.values())))
        return (rows, pivots), kernel.call_count

    @settings(max_examples=200, deadline=None)
    @given(reduced_up_to_scale(), st.booleans())
    def test_reduced_input_matches_the_dense_reference(self, case, as_dicts):
        rows, near, nc = case
        assert self._rref(rows, as_dicts) == (sparse_dense_rref(rows, nc), 0)
        assert self._rref(near, as_dicts) == (sparse_dense_rref(near, nc), 1)

    def test_known(self):
        # scaled reduced rows, one with a Fraction tail and a negative lead
        rows = [(0, Fraction(-2, 3), 0, 1), (3, 0, 0, Fraction(3, 2)), (0, 0, 0, 0)]
        assert self._rref(rows, False) == (([{0: 1, 3: Fraction(1, 2)},
                                             {1: 1, 3: Fraction(-3, 2)}], [0, 1]), 0)
        # the first row is nonzero at the second's leading column
        assert self._rref([(1, 1), (0, 2)], True) == (([{0: 1}, {1: 1}], [0, 1]), 1)
        # two rows lead at column 0
        assert self._rref([(1, 2), (2, 4)], True) == (([{0: 1, 1: 2}], [0]), 1)


@st.composite
def solve_cases(draw):
    """A matrix from ``spanning_sets`` (any shape) and a target: an image
    a x, so consistent, or any vector, mostly inconsistent when the rank
    is short."""
    rows, nc = draw(spanning_sets())
    a = Mat.from_rows(rows)
    entry = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=5))
    if draw(st.booleans()):
        target = a.mul_vec(draw(st.lists(entry, min_size=nc, max_size=nc)))
    else:
        target = tuple(draw(st.lists(entry, min_size=a.rows, max_size=a.rows)))
    return a, target


@st.composite
def square_mats(draw):
    """Square matrices with fractional entries; a zero, repeated or
    scaled row makes a singular one."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.integers(-4, 4).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=7))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["as drawn", "unit lower", "zero", "repeat", "scaled"]))
    if kind == "unit lower":
        rows = [[Fraction(1) if i == j else (x if j < i else Fraction(0))
                 for j, x in enumerate(r)] for i, r in enumerate(rows)]
        rows = [rows[i] for i in draw(st.permutations(range(n)))]
    elif kind != "as drawn" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        s = {"zero": Fraction(0), "repeat": Fraction(1), "scaled": Fraction(-2, 3)}[kind]
        rows[i] = [s * x for x in rows[j]]
    return Mat.from_rows(rows)


class TestMatRoutinesAgainstBareiss:
    """The dense Bareiss routines that the sparse echelon replaced are the
    oracle of ``mat_rank``, ``mat_rank_kernel``, ``mat_solve`` and
    ``mat_invertible``: pivots, kernels, solutions and inverses are fixed
    by the reduced form, so both give equal results."""

    @staticmethod
    def all_canonical(*vectors):
        return all(canonical(x) for v in vectors for x in v)

    @settings(max_examples=200, deadline=None)
    @given(spanning_sets())
    def test_rank_and_kernel(self, case):
        m = Mat.from_rows(case[0])
        rank, kernel = mat_rank_kernel(m)
        assert (rank, kernel) == dense_rank_kernel(m)
        assert mat_rank(m) == dense_rank(m) == rank
        assert self.all_canonical(*kernel)

    @settings(max_examples=200, deadline=None)
    @given(solve_cases())
    def test_solve(self, case):
        a, target = case
        got = mat_solve(a, target)
        want = dense_solve(a, target)
        assert (got is None) == (want is None)
        if got is not None:
            particular, kernel = want
            assert got == particular
            assert mat_rank_kernel(a)[1] == kernel
            assert a.mul_vec(got) == target
            assert self.all_canonical(got)

    @settings(max_examples=200, deadline=None)
    @given(square_mats())
    def test_inverse(self, m):
        inv = mat_invertible(m)
        assert inv == dense_invertible(m)
        assert (inv is None) == (mat_rank(m) < m.rows)
        if inv is not None:
            assert inv @ m == m @ inv == Mat.identity(m.rows)
            assert self.all_canonical(inv.entries)

    @pytest.mark.parametrize("rows, target, want", [
        # consistent, with a free column between two pivots
        ([[2, 1, 4], [0, 0, 6]], (1, 3), ((Fraction(-1, 2), 0, Fraction(1, 2)),
                                          ((Fraction(-1, 2), 1, 0),))),
        # inconsistent: the target column is a pivot
        ([[1, 2], [2, 4]], (1, 3), None),
        ([[0, 0]], (Fraction(1, 3),), None),
        # zero target on a wide matrix: the particular solution is 0
        ([[1, Fraction(1, 2), 0]], (0,), ((0, 0, 0), ((Fraction(-1, 2), 1, 0), (0, 0, 1)))),
    ])
    def test_known_solutions(self, rows, target, want):
        a = M(rows)
        got, dense = mat_solve(a, target), dense_solve(a, target)
        if want is None:
            assert got is None and dense is None
        else:
            assert got == dense[0] == want[0]
            assert mat_rank_kernel(a)[1] == dense[1] == want[1]

    def test_known_inverse_needs_a_row_swap(self):
        m = M([[0, 2], [Fraction(1, 3), 1]])
        assert mat_invertible(m) == M([[Fraction(-3, 2), 3], [Fraction(1, 2), 0]])


class TestIncrementalSpan:
    """``add`` is True exactly when the rank of the vectors added so far
    grows; ``rref_rows`` of each prefix is its oracle."""

    @staticmethod
    def forms(vectors):
        # dense Fractions, dense with integral entries as int, dicts of nonzeros
        yield vectors
        yield [tuple(int(x) if x.denominator == 1 else x for x in v) for v in vectors]
        yield [{j: x for j, x in enumerate(v) if x} for v in vectors]

    @settings(max_examples=100, deadline=None)
    @given(spanning_sets())
    def test_add_reports_rank_growth(self, case):
        vectors, _ = case
        ranks = [len(ea.rref_rows(vectors[:k])[1]) for k in range(len(vectors) + 1)]
        for form in self.forms(vectors):
            span = ea.IncrementalSpan()
            for k, v in enumerate(form):
                assert span.add(v) == (ranks[k + 1] > ranks[k])
                assert span.dim == ranks[k + 1]
            assert sorted(span.pivots) == ea.rref_rows(vectors)[1]

    @settings(max_examples=40, deadline=None)
    @given(spanning_sets())
    def test_seeded_span_keeps_independent_extensions(self, case):
        vectors, _ = case
        base = ea.rref_rows(vectors[:2])[0]
        span = ea.IncrementalSpan(base)
        kept = [v for v in vectors if span.add(v)]
        assert len(ea.rref_rows(list(base) + kept)[0]) == len(base) + len(kept)
        assert span.dim == len(ea.rref_rows(vectors)[1])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda nc: st.lists(st.dictionaries(
        st.integers(0, nc - 1),
        st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5)).map(ea.exact)
        .filter(bool), max_size=nc), max_size=12)))
    @example([{}, {1: 2, 3: Fraction(1, 2)}, {0: Fraction(2, 3)}, {1: 4, 3: 1}, {1: 1, 2: 5}])
    def test_add_grows_what_sparse_echelon_grows(self, vectors):
        # a row with a new leading column skips the kernel: the pivots must
        # still be the ones sparse_echelon builds from the same state, with
        # the same keys in the same order and the same rows
        span = ea.IncrementalSpan()
        for v in vectors:
            want = dict(span.pivots)
            _kernels.sparse_echelon([ea._int_row(v.items())], want)
            grew = len(want) > span.dim
            assert span.add(v) == grew
            assert list(span.pivots.items()) == list(want.items())

    def test_zero_and_repeated_vectors(self):
        span = ea.IncrementalSpan()
        assert not span.add((0, 0, 0)) and not span.add({})
        assert span.add((1, Fraction(1, 2), 0))
        assert not span.add((2, 1, 0)) and not span.add({0: Fraction(-1), 1: Fraction(-1, 2)})
        assert span.add({2: Fraction(3)}) and span.dim == 2


class TestSparseSpanSolver:
    def _solver(self):
        rows, pivots = ea.rref_rows(
            [{0: ONE, 2: Fraction(1, 2)}, {1: ONE, 3: Fraction(-2)}, {0: Fraction(3), 4: ONE}])
        return ea.SpanSolver(rows, pivots), rows

    def test_coordinates_of_combinations(self):
        solver, rows = self._solver()
        for coeffs in ((1, 0, 0), (0, -2, 0), (Fraction(2, 3), 5, -1), (0, 0, 0)):
            v = {}
            for a, row in zip(coeffs, rows):
                for j, x in row.items():
                    v[j] = v.get(j, 0) + a * x
            v = {j: x for j, x in v.items() if x}
            assert solver.coords(v) == {k: Fraction(a) for k, a in enumerate(coeffs) if a}

    def test_outside_the_span(self):
        solver, rows = self._solver()
        assert solver.coords({2: ONE}) is None
        assert solver.coords({0: ONE}) is None  # pivot alone misses its tail
        assert solver.coords({1: ONE, 3: Fraction(-2), 2: Fraction(1, 7)}) is None

    def test_dense_vectors_read_as_nonzeros(self):
        solver, _ = self._solver()
        assert solver.coords(ea.vec((0, 1, 0, -2, 0))) == {1: 1}
        assert solver.coords(ea.vec((0, 0, 0, 0, 1))) is None

    def test_columns_returns_an_image_off_a_tail_free_basis(self):
        # rows e_0, e_2 with no tails: no residual is needed until an image
        # has a term off the pivots, and then that image is returned
        solver = ea.SpanSolver([{0: ONE}, {2: ONE}], [0, 2])
        stray = {0: 3, 1: Fraction(1, 2)}
        nzs = [[[] for _ in range(2)] for _ in range(2)]
        assert solver.columns([[{0: 1}, {2: -2}], [{2: 5}, {}]], nzs) is None
        assert nzs == [[[(0, 1)], [(1, 5)]], [[], [(0, -2)]]]
        assert solver.columns([[{2: 1}, stray], [{0: 1}, {0: 1}]], nzs) is stray

    def test_rejects_rows_not_in_reduced_form(self):
        with pytest.raises(ValueError):
            ea.SpanSolver([{0: Fraction(2)}], [0])
        with pytest.raises(ValueError):
            ea.SpanSolver([{0: ONE, 1: ONE}, {1: ONE}], [0, 1])


def _lin_mats():
    from spinorsheaf.fixtures import grid_spaces
    from spinorsheaf.spinor import build_factorization, build_ideal

    out = []
    for space, w in grid_spaces(5)[::5]:
        mf = build_factorization(build_ideal(space, w))
        out += [mf.phi, mf.psi.transpose()]
    out.append(LinMat(2, [M([[Fraction(1, 2), 0], [0, Fraction(-2, 3)]]),
                          M([[0, Fraction(5, 7)], [3, 0]])]))
    return out


class TestNonzeroRows:
    # (rows, cols, dense entries, the same matrix as row-major nonzeros)
    CASES = [
        (2, 3, [0, 2, 0, Fraction(1, 3), 0, -1], [[(1, 2)], [(0, Fraction(1, 3)), (2, -1)]]),
        # zero rows, and a whole Fraction that is stored as its int
        (3, 2, [0, 0, Fraction(4, 2), 0, 0, 0], [[], [(0, 2)], []]),
        (2, 2, [Fraction(0), Fraction(-6, 3), 0, Fraction(5, 7)],
         [[(1, -2)], [(1, Fraction(5, 7))]]),
        (0, 3, [], []),
        (3, 0, [], [[], [], []]),
    ]

    def test_dense_and_nonzero_builds_agree(self):
        # one storage: a matrix built densely and the same matrix built
        # from its nonzeros are equal and hash alike
        for rows, cols, entries, nz in self.CASES:
            dense, given = Mat(rows, cols, entries), Mat.from_nonzeros(rows, cols, nz)
            assert dense.nz == nz and canonical_nonzeros(dense)
            assert dense == given and hash(dense) == hash(given)
            assert given.entries == tuple(entries) and all(map(canonical, given.entries))
            assert [given.row(i) for i in range(rows)] == [
                tuple(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
            assert all(given[i, j] == entries[i * cols + j] == given.col(j)[i]
                       for i in range(rows) for j in range(cols))
        assert Mat(3, 0, []) != Mat(0, 3, []) and Mat(2, 2, [0] * 4) == Mat.zeros(2, 2)
        assert Mat.identity(2) == M([[1, 0], [0, Fraction(1)]])
        assert Mat.from_rows([[Fraction(2), "1/2"]]).nz == [[(0, 2), (1, Fraction(1, 2))]]

    def test_transpose_carries_its_nonzeros(self):
        m = M([[0, 2, 0], [Fraction(1, 3), 0, -1]])
        t = m.transpose()
        assert t == M([[0, Fraction(1, 3)], [2, 0], [0, -1]])
        assert t.nz == Mat(3, 2, t.entries).nz == [[(1, Fraction(1, 3))], [(0, 2)], [(1, -1)]]
        assert Mat.zeros(0, 3).transpose() == Mat.zeros(3, 0)


class TestLinMatSparse:
    def test_evaluate_matches_dense_sum(self):
        from dense_oracles import dense_evaluate

        points = [(1,), (0, 1), (Fraction(1, 2), -1, 0, 3), (2, Fraction(-1, 3), 1, 1, 1, 1)]
        for lm in _lin_mats():
            for p in points:
                v = ea.vec((list(p) * lm.n)[: lm.n])
                got = lm.evaluate(v)
                assert got == dense_evaluate(lm, v)
                assert all(map(canonical, got.entries))

    def test_evaluate_checks_length(self):
        with pytest.raises(ValueError):
            LinMat(2, [Mat.identity(1), Mat.identity(1)]).evaluate((1,))

    def test_transpose_carries_each_coefficient(self):
        lm = LinMat(2, [M([[1, Fraction(1, 2), 0]]), M([[0, 0, -3]])])
        t = lm.transpose()
        assert (t.rows, t.cols) == (3, 1)
        assert t.coeff == tuple(m.transpose() for m in lm.coeff)
        assert t.transpose() == lm and t.transpose() is not lm

    def test_int_rows(self):
        lm = LinMat(2, [M([[Fraction(1, 2), 0], [0, Fraction(-2, 3)]]),
                        M([[0, 0], [3, 0]])])
        den, rows = lm.int_rows()
        assert den == 6
        assert rows == [[[(0, 3)], [(1, -4)]], [[], [(0, 18)]]]
        for k, m in enumerate(lm.coeff):
            for r in range(m.rows):
                for j in range(m.cols):
                    assert dict(rows[k][r]).get(j, 0) == den * m[r, j]
        assert lm.int_rows() is lm.int_rows()


class TestBlockDiag:
    def test_blocks(self):
        a = M([[1, 2]])
        b = M([[3], [Fraction(1, 2)]])
        assert block_diag(a, b) == M([[1, 2, 0], [0, 0, 3], [0, 0, Fraction(1, 2)]])

    def test_empty_blocks(self):
        a = M([[1, 2]])
        assert block_diag(a, Mat.zeros(0, 0)) == a
        assert block_diag(Mat.zeros(0, 0), a) == a
        assert block_diag(Mat.zeros(0, 2), Mat.zeros(0, 1)) == Mat.zeros(0, 3)
        assert block_diag(Mat.zeros(2, 0), Mat.zeros(1, 0)) == Mat.zeros(3, 0)

    def test_linmat_block_diag(self):
        p = LinMat(2, [M([[1]]), M([[2]])])
        q = LinMat(2, [M([[0, 1]]), M([[Fraction(1, 3), 0]])])
        s = block_diag(p, q)
        assert s.coeff == (M([[1, 0, 0], [0, 0, 1]]), M([[2, 0, 0], [0, Fraction(1, 3), 0]]))
