"""The canonical form of an exact rational: an int when it is whole, a
Fraction otherwise.  Every producer of values returns that form, on
integral inputs and on fractional ones, whole Fractions among them."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinorsheaf.errors import SchemaError
from spinorsheaf.exactalg import LinMat, Mat, exact, mat_invertible, mat_rank_kernel, mat_solve
from spinorsheaf.fixtures import grid_spaces
from spinorsheaf.homalg import hom_space, sheaf_numerics
from spinorsheaf.quadform import QuadraticSpace, Subspace, _combination
from spinorsheaf.spinor import build_factorization, build_ideal, shift

from dense_oracles import canonical, canonical_nonzeros, hom_basis, per_image_action, scale

INTEGRAL = st.integers(-4, 4)
# Fractions, whole ones included, which no producer may pass on as they are
FRACTIONAL = st.one_of(st.integers(-4, 4).map(Fraction),
                       st.fractions(-3, 3, max_denominator=6))


@st.composite
def scalars(draw, n):
    """n entries, all ints or all drawn from ints and Fractions."""
    entry = draw(st.sampled_from([INTEGRAL, st.one_of(INTEGRAL, FRACTIONAL)]))
    return draw(st.lists(entry, min_size=n, max_size=n))


@st.composite
def mats(draw, rows=None, cols=None):
    """A matrix built densely from drawn entries, whole Fractions among
    them, which the constructor stores in canonical form."""
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    return Mat(rows, cols, draw(scalars(rows * cols)))


def all_canonical(*groups):
    return all(canonical(x) for g in groups for x in g)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_and_sums(data):
    a = data.draw(mats())
    b = data.draw(mats(rows=a.cols))
    c = data.draw(mats(rows=a.rows, cols=a.cols))
    v = data.draw(scalars(a.cols))
    s = data.draw(st.one_of(INTEGRAL, FRACTIONAL))
    assert all_canonical((a @ b).entries, a.mul_vec(v), (a + c).entries, (a - c).entries,
                         scale(a, s).entries)
    assert all(map(canonical_nonzeros, (a, a @ b, a + c, a - c, scale(a, s), a.transpose())))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate(data):
    n = data.draw(st.integers(1, 4))
    first = data.draw(mats())
    lm = LinMat(n, [first] + [data.draw(mats(first.rows, first.cols)) for _ in range(n - 1)])
    got = lm.evaluate(data.draw(scalars(n)))
    assert all_canonical(got.entries) and canonical_nonzeros(got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernels_solutions_and_inverses(data):
    m = data.draw(mats())
    _, kernel = mat_rank_kernel(m)
    got = mat_solve(m, data.draw(scalars(m.rows)))
    solved = [got[0], *got[1]] if got else []
    square = data.draw(mats(m.rows, m.rows))
    inv = mat_invertible(square)
    assert all_canonical(*kernel, *solved, inv.entries if inv else ())
    assert inv is None or canonical_nonzeros(inv)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_form_values(data):
    n = data.draw(st.integers(2, 4))
    upper = data.draw(scalars(n * n))
    gram = Mat(n, n, [upper[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n)])
    try:
        space = QuadraticSpace(gram)
    except SchemaError:
        assume(False)
    v, w = data.draw(scalars(n)), data.draw(scalars(n))
    coeffs = data.draw(scalars(2))
    assert all_canonical((space.b(v, w), space.q(v)), _combination(coeffs, (v, w), n))


def test_numerics_and_hom_pairs():
    for space, w in grid_spaces(5)[::4]:
        i = build_ideal(space, w)
        num = sheaf_numerics(build_factorization(i))
        if not num.torsion_flag:
            assert all_canonical((num.rank, num.degree, num.slope))
        assert all(map(canonical_nonzeros, i.act_ev + i.act_odd))
        for hom in (hom_space(i, i), hom_space(i, shift(i))):
            assert all_canonical(*(m.entries for pair in hom_basis(hom) for m in pair))
            assert all(canonical_nonzeros(m) for pair in hom_basis(hom) for m in pair)
            if hom.dimension:
                cs = tuple(exact(k + 1, 2) for k in range(hom.dimension))
                assert all_canonical(*(m.entries for m in hom.at(cs)))
                assert all(map(canonical_nonzeros, hom.at(cs)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_action_matrices_of_fractional_forms(data):
    # q(e_0) = 0 and b(e_0, e_1) != 0, so e_0 spans an isotropic line of a
    # form of rank >= 2; the other entries are ints and Fractions, whole
    # ones among them.  The action matrices of the module of <e_0> and of
    # its shift hold canonical nonzeros and match the per-image route.
    n = data.draw(st.integers(2, 5))
    upper = data.draw(st.lists(st.one_of(INTEGRAL, FRACTIONAL), min_size=n * n, max_size=n * n))
    upper[0] = 0
    upper[1] = data.draw(FRACTIONAL.filter(bool))
    gram = Mat(n, n, [upper[min(i, j) * n + max(i, j)] for i in range(n) for j in range(n)])
    space = QuadraticSpace(gram)
    i = build_ideal(space, Subspace(space, [(1,) + (0,) * (n - 1)]))
    for m in (i, shift(build_ideal(space, i.w))):
        for parity, act in ((0, m.act_ev), (1, m.act_odd)):
            assert all(map(canonical_nonzeros, act))
            assert act == per_image_action(m, parity)
