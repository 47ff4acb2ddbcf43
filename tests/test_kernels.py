import random

from hypothesis import given, settings
from hypothesis import strategies as st

from spinorsheaf import _kernels
from spinorsheaf import _rowreduce_py as pure
from spinorsheaf.exactalg import _kernel_from_sparse_echelon

from dense_oracles import _kernel_from_echelon


def random_matrix(rng, nr, nc):
    return [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]


def sparse_rows(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


class TestPureKernel:
    def test_echelon_known(self):
        rows = [[1, 2], [2, 4]]
        rank, pivots = pure.echelon(rows, 2)
        assert (rank, pivots) == (1, [0])
        assert rows[1] == [0, 0]

    def test_sparse_rank_known(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 5}]
        assert pure.sparse_rank(rows) == 2

    def test_sparse_matches_dense(self):
        rng = random.Random(11)
        for _ in range(100):
            nr, nc = rng.randint(1, 10), rng.randint(1, 10)
            mat = random_matrix(rng, nr, nc)
            dense = [row[:] for row in mat]
            rank, _ = pure.echelon(dense, nc)
            sparse = [
                {j: v for j, v in enumerate(row) if v} for row in mat
            ]
            sparse = [d for d in sparse if d]
            assert pure.sparse_rank(sparse) == rank

    def test_sparse_echelon_known(self):
        pivots = pure.sparse_echelon([{1: 2, 2: 4}, {1: 1, 2: 2}, {0: 3, 2: 1}, {}])
        assert sorted(pivots) == [0, 1]
        assert all(min(row) == c for c, row in pivots.items())

    def test_kernels_reexports_the_one_implementation(self):
        assert _kernels.echelon is pure.echelon
        assert _kernels.sparse_rank is pure.sparse_rank
        assert _kernels.sparse_echelon is pure.sparse_echelon
        assert _kernels.BACKEND == "pure"


class TestHeapOrder:
    def test_reduced_row_opens_a_column_left_of_the_queue(self):
        # Leading columns 0, 3 and 5 are queued at the start.  Eliminating
        # column 0 turns {0: 1, 3: 2} into {1: -1, 3: 2} and {0: 2, 4: 1}
        # into {1: -2, 4: 1}: column 1 opens left of every queued column
        # and must be the next pivot, ahead of 3 and 5.
        mat = [
            [1, 1, 0, 0, 0, 0, 0],
            [1, 0, 0, 2, 0, 0, 0],
            [2, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0, 0, 3],
            [0, 0, 0, 0, 0, 1, 1],
        ]
        nc = 7
        dense = [row[:] for row in mat]
        rank, pivots = pure.echelon(dense, nc)
        kernel = _kernel_from_echelon(dense, pivots, nc)

        ech = pure.sparse_echelon(sparse_rows(mat))
        assert list(ech) == sorted(ech) == pivots == [0, 1, 3, 4, 5]
        assert len(ech) == rank
        assert all(min(row) == c for c, row in ech.items())
        assert _kernel_from_sparse_echelon(ech, nc) == kernel
        assert pure.sparse_rank(sparse_rows(mat)) == rank

    def test_fixed_pivot_then_new_column(self):
        # against a fixed pivot at column 0, a new row opens column 2,
        # below the queued column 4
        ech = pure.sparse_echelon([{0: 1, 2: 1}])
        pure.sparse_echelon([{4: 1}, {0: 3, 5: 1}], ech)
        mat = [[1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0], [3, 0, 0, 0, 0, 1]]
        dense = [row[:] for row in mat]
        rank, pivots = pure.echelon(dense, 6)
        assert list(ech) == pivots == [0, 2, 4]
        assert _kernel_from_sparse_echelon(ech, 6) == _kernel_from_echelon(dense, pivots, 6)


@st.composite
def sparse_int_matrices(draw):
    """Mostly-zero integer matrices with zero rows, repeated rows and
    scaled copies of rows, so that rank deficiency is common."""
    nc = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.just(0), st.just(0),
                      st.integers(-7, 7), st.sampled_from([1, -1]))
    base = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=1, max_size=8))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "scaled"]))
        if kind == "zero":
            rows.append([0] * nc)
        else:
            src = draw(st.sampled_from(base))
            s = 1 if kind == "repeat" else draw(st.sampled_from([-3, -2, 2, 5]))
            rows.append([s * v for v in src])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], nc


class TestSparseAgainstDense:
    """Dense Bareiss elimination is the oracle for the sparse kernel."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_int_matrices())
    def test_rank_pivots_and_kernel(self, case):
        mat, nc = case
        dense = [row[:] for row in mat]
        rank, pivots = pure.echelon(dense, nc)
        kernel = _kernel_from_echelon(dense, pivots, nc)

        ech = pure.sparse_echelon(sparse_rows(mat))
        assert len(ech) == rank
        assert sorted(ech) == pivots
        assert all(min(row) == c for c, row in ech.items())
        assert _kernel_from_sparse_echelon(ech, nc) == kernel
        assert pure.sparse_rank(sparse_rows(mat)) == rank

    @settings(max_examples=200, deadline=None)
    @given(sparse_int_matrices(), st.integers(0, 16))
    def test_appending_rows_to_an_echelon_form(self, case, cut):
        mat, nc = case
        dense = [row[:] for row in mat]
        rank, pivots = pure.echelon(dense, nc)

        ech = pure.sparse_echelon(sparse_rows(mat[:cut]))
        first = dict(ech)
        first_rows = {c: dict(row) for c, row in ech.items()}
        same = pure.sparse_echelon(sparse_rows(mat[cut:]), ech)
        assert same is ech
        assert len(ech) == rank
        assert sorted(ech) == pivots
        # the pivot rows fixed by the first call are kept as they were
        assert all(ech[c] is first[c] and ech[c] == first_rows[c] for c in first)
