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

from dense_oracles import dense_invertible, dense_rank, dense_rank_kernel, dense_solve


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
            dense = dense_rank(monomial_multiplication_matrix(lm, t))
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
                    dense = dense_rank(monomial_multiplication_matrix(lm, t))
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


class TestRrefAgainstDense:
    """The dense Bareiss RREF that rref_rows replaced is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(spanning_sets())
    def test_dense_vectors(self, case):
        from dense_oracles import dense_rref

        vectors, nc = case
        rows, pivots = ea.rref_rows(vectors, nc)
        assert (rows, pivots) == dense_rref(vectors, nc)
        assert all(type(row) is tuple and len(row) == nc for row in rows)
        assert all(isinstance(x, Fraction) for row in rows for x in row)

    @settings(max_examples=200, deadline=None)
    @given(spanning_sets())
    def test_sparse_vectors(self, case):
        from dense_oracles import dense_rref

        vectors, nc = case
        sparse = [{j: x for j, x in enumerate(v) if x} for v in vectors]
        rows, pivots = ea.rref_rows(sparse, nc)
        want, want_pivots = dense_rref(vectors, nc)
        assert pivots == want_pivots
        assert rows == [{j: x for j, x in enumerate(r) if x} for r in want]
        assert all(list(row) == sorted(row) for row in rows)

    def test_empty_and_zero(self):
        assert ea.rref_rows([], 3) == ([], [])
        assert ea.rref_rows([ea.vec((0, 0, 0))], 3) == ([], [])
        assert ea.rref_rows([{}], 3) == ([], [])

    def test_known(self):
        # [[2, 4, 0], [1, 3, 1]] -> [[1, 0, -2], [0, 1, 1]]
        rows, pivots = ea.rref_rows([ea.vec((2, 4, 0)), ea.vec((1, 3, 1))], 3)
        assert pivots == [0, 1]
        assert rows == [(1, 0, -2), (0, 1, 1)]
        rows, _ = ea.rref_rows([{0: Fraction(2), 1: Fraction(4)}, {0: ONE, 1: Fraction(3), 2: ONE}], 3)
        assert rows == [{0: 1, 2: -2}, {1: 1, 2: 1}]



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
    def all_fractions(*vectors):
        return all(isinstance(x, Fraction) for v in vectors for x in v)

    @settings(max_examples=200, deadline=None)
    @given(spanning_sets())
    def test_rank_and_kernel(self, case):
        m = Mat.from_rows(case[0])
        rank, kernel = mat_rank_kernel(m)
        assert (rank, kernel) == dense_rank_kernel(m)
        assert mat_rank(m) == dense_rank(m) == rank
        assert self.all_fractions(*kernel)

    @settings(max_examples=200, deadline=None)
    @given(solve_cases())
    def test_solve(self, case):
        a, target = case
        got = mat_solve(a, target)
        assert got == dense_solve(a, target)
        if got is not None:
            particular, kernel = got
            assert a.mul_vec(particular) == target
            assert self.all_fractions(particular, *kernel)

    @settings(max_examples=200, deadline=None)
    @given(square_mats())
    def test_inverse(self, m):
        inv = mat_invertible(m)
        assert inv == dense_invertible(m)
        assert (inv is None) == (mat_rank(m) < m.rows)
        if inv is not None:
            assert inv @ m == m @ inv == Mat.identity(m.rows)
            assert self.all_fractions(inv.entries)

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
        assert mat_solve(a, target) == dense_solve(a, target) == want

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
        vectors, nc = case
        ranks = [len(ea.rref_rows(vectors[:k], nc)[1]) for k in range(len(vectors) + 1)]
        for form in self.forms(vectors):
            span = ea.IncrementalSpan()
            for k, v in enumerate(form):
                assert span.add(v) == (ranks[k + 1] > ranks[k])
                assert span.dim == ranks[k + 1]
            assert sorted(span.pivots) == ea.rref_rows(vectors, nc)[1]

    @settings(max_examples=40, deadline=None)
    @given(spanning_sets())
    def test_seeded_span_keeps_independent_extensions(self, case):
        vectors, nc = case
        base = ea.rref_rows(vectors[:2], nc)[0]
        span = ea.IncrementalSpan(base)
        kept = [v for v in vectors if span.add(v)]
        assert len(ea.rref_rows(list(base) + kept, nc)[0]) == len(base) + len(kept)
        assert span.dim == len(ea.rref_rows(vectors, nc)[1])

    def test_zero_and_repeated_vectors(self):
        span = ea.IncrementalSpan()
        assert not span.add((0, 0, 0)) and not span.add({})
        assert span.add((1, Fraction(1, 2), 0))
        assert not span.add((2, 1, 0)) and not span.add({0: Fraction(-1), 1: Fraction(-1, 2)})
        assert span.add({2: Fraction(3)}) and span.dim == 2


class TestSparseSpanSolver:
    def _solver(self):
        rows, pivots = ea.rref_rows(
            [{0: ONE, 2: Fraction(1, 2)}, {1: ONE, 3: Fraction(-2)}, {0: Fraction(3), 4: ONE}], 5)
        return ea.SpanSolver(rows, pivots), rows

    def test_coordinates_of_combinations(self):
        solver, rows = self._solver()
        for coeffs in ((1, 0, 0), (0, -2, 0), (Fraction(2, 3), 5, -1), (0, 0, 0)):
            v = {}
            for a, row in zip(coeffs, rows):
                for j, x in row.items():
                    v[j] = v.get(j, 0) + a * x
            v = {j: x for j, x in v.items() if x}
            assert solver.coords(v) == tuple(Fraction(a) for a in coeffs)

    def test_outside_the_span(self):
        solver, rows = self._solver()
        assert solver.coords({2: ONE}) is None
        assert solver.coords({0: ONE}) is None  # pivot alone misses its tail
        assert solver.coords({1: ONE, 3: Fraction(-2), 2: Fraction(1, 7)}) is None

    def test_dense_vectors_read_as_nonzeros(self):
        solver, _ = self._solver()
        assert solver.coords(ea.vec((0, 1, 0, -2, 0))) == (0, 1, 0)
        assert solver.coords(ea.vec((0, 0, 0, 0, 1))) is None

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


class TestLinMatSparse:
    def test_evaluate_matches_dense_sum(self):
        from dense_oracles import dense_evaluate

        points = [(1,), (0, 1), (Fraction(1, 2), -1, 0, 3), (2, Fraction(-1, 3), 1, 1, 1, 1)]
        for lm in _lin_mats():
            for p in points:
                v = ea.vec((list(p) * lm.n)[: lm.n])
                got = lm.evaluate(v)
                assert got == dense_evaluate(lm, v)
                assert all(isinstance(x, Fraction) for x in got.entries)

    def test_evaluate_checks_length(self):
        with pytest.raises(ValueError):
            LinMat(2, [Mat.identity(1), Mat.identity(1)]).evaluate((1,))

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


class TestBlockDiag:
    def test_blocks(self):
        a = M([[1, 2]])
        b = M([[3], [Fraction(1, 2)]])
        assert a.block_diag(b) == M([[1, 2, 0], [0, 0, 3], [0, 0, Fraction(1, 2)]])

    def test_empty_blocks(self):
        a = M([[1, 2]])
        assert a.block_diag(Mat.zeros(0, 0)) == a
        assert Mat.zeros(0, 0).block_diag(a) == a
        assert Mat.zeros(0, 2).block_diag(Mat.zeros(0, 1)) == Mat.zeros(0, 3)
        assert Mat.zeros(2, 0).block_diag(Mat.zeros(1, 0)) == Mat.zeros(3, 0)

    def test_linmat_block_diag(self):
        p = LinMat(2, [M([[1]]), M([[2]])])
        q = LinMat(2, [M([[0, 1]]), M([[Fraction(1, 3), 0]])])
        s = p.block_diag(q)
        assert s.coeff == (M([[1, 0, 0], [0, 0, 1]]), M([[2, 0, 0], [0, Fraction(1, 3), 0]]))
