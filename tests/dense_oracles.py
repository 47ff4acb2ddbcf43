"""Dense reference implementations that the sparse construction path
replaced; the tests compare the package against them."""

from fractions import Fraction
from functools import reduce
from math import lcm

from spinorsheaf import _kernels
from spinorsheaf.clifford import CliffordElement, _ctx, multiply
from spinorsheaf.errors import SpanError
from spinorsheaf.exactalg import (
    ONE,
    ZERO,
    Mat,
    SpanSolver,
    mat_invertible,
    mat_solve,
    rat,
    rref_rows,
)


def _scaled_int_rows(frac_rows):
    """Clear denominators row by row; row scaling preserves rank and kernel."""
    out = []
    for row in frac_rows:
        l = reduce(lcm, (x.denominator for x in row), 1)
        out.append([x.numerator * (l // x.denominator) for x in row])
    return out


def _back_substitute(rows, pivots, n, rhs):
    """The solution over the first ``n`` columns of a dense integer echelon
    system (``_kernels.echelon`` rows) with right-hand side ``rhs[i]`` on
    row i, taken 0 at every free column: x[c] for pivot c = pivots[i] is
    (rhs[i] - sum over j > c of rows[i][j] x[j]) / rows[i][c], from the
    last pivot up."""
    x = [ZERO] * n
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = rows[i]
        s = rhs[i]
        for j in range(c + 1, n):
            xj = x[j]
            if xj and row[j]:
                s -= row[j] * xj
        x[c] = Fraction(s, row[c]) if s else ZERO
    return x


def _kernel_from_echelon(rows, pivots, ncols):
    """Kernel basis in reduced echelon-normal form: one vector per free
    column f, with entry 1 there and zeros at the other free columns, so
    its pivot entries solve the system with right-hand side -column f."""
    rows = rows[:len(pivots)]
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        x = _back_substitute(rows, pivots, ncols, [-row[f] for row in rows])
        x[f] = ONE
        basis.append(tuple(x))
    return tuple(basis)


def dense_rank_kernel(m: Mat):
    """``mat_rank_kernel`` by dense Bareiss elimination."""
    rows = _scaled_int_rows(m.row_lists())
    rank, pivots = _kernels.echelon(rows, m.cols)
    return rank, _kernel_from_echelon(rows, pivots, m.cols)


def dense_rank(m: Mat) -> int:
    """``mat_rank`` by dense Bareiss elimination."""
    rows = _scaled_int_rows(m.row_lists())
    rank, _ = _kernels.echelon(rows, m.cols)
    return rank


def dense_solve(a: Mat, target):
    """``mat_solve`` by dense Bareiss elimination of [a | target]."""
    aug = [list(a.row(i)) + [rat(target[i])] for i in range(a.rows)]
    rows = _scaled_int_rows(aug)
    rank, pivots = _kernels.echelon(rows, a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        return None
    x = _back_substitute(rows, pivots, a.cols, [row[a.cols] for row in rows[:rank]])
    return tuple(x), _kernel_from_echelon(rows, pivots, a.cols)


def dense_invertible(m: Mat):
    """``mat_invertible`` by dense Bareiss elimination of [m | I]."""
    n = m.rows
    ident = Mat.identity(n)
    aug = [list(m.row(i)) + list(ident.row(i)) for i in range(n)]
    rows = _scaled_int_rows(aug)
    _, pivots = _kernels.echelon(rows, 2 * n)
    pivots = pivots[:n]
    if pivots != list(range(n)):
        return None
    return Mat.from_cols([_back_substitute(rows, pivots, n, [row[n + k] for row in rows])
                          for k in range(n)])


def dense_rref(vectors, ncols):
    """Reduced row echelon basis by dense Bareiss elimination, then
    normalization to pivot 1 and back-elimination on dense Fraction rows.
    Returns (rows as tuples, pivots)."""
    rows = _scaled_int_rows([list(v) for v in vectors])
    rank, pivots = _kernels.echelon(rows, ncols)
    out = [[Fraction(x) for x in rows[i]] for i in range(rank)]
    for i in range(rank):
        p = out[i][pivots[i]]
        if p != 1:
            out[i] = [x / p for x in out[i]]
    for i in range(rank - 1, -1, -1):
        c = pivots[i]
        for k in range(i):
            f = out[k][c]
            if f:
                for j in range(c, ncols):
                    if out[i][j]:
                        out[k][j] -= f * out[i][j]
    return [tuple(r) for r in out], pivots


def dense_ideal_bases(space, w):
    """(ev_basis, odd_basis) of the ideal module of w, from the dense
    coordinate vectors of every product e_mask * w1...wm."""
    gen = CliffordElement.scalar(space, 1)
    for v in w.basis:
        gen = multiply(gen, CliffordElement.from_vector(space, v))
    ctx = _ctx(space)
    ev_raw, odd_raw = [], []
    for mask in range(1 << space.n):
        elt = CliffordElement(space, ctx.mono_mul_terms(mask, gen.terms))
        if elt.is_zero():
            continue
        if (bin(mask).count("1") + w.dim) % 2 == 0:
            ev_raw.append(elt.coords())
        else:
            odd_raw.append(elt.coords())
    dim = 1 << space.n
    return tuple(
        [CliffordElement(space, {ctx.order[i]: c for i, c in enumerate(r) if c})
         for r in dense_rref(raw, dim)[0]]
        for raw in (ev_raw, odd_raw)
    )


def fraction_identity(pair) -> bool:
    """The factorization identity checked on Fraction entries."""
    g = pair.space.gram
    n = pair.space.n
    N = pair.N

    def sparse_rows(m):
        return [[(j, v) for j, v in enumerate(m.row(i)) if v] for i in range(m.rows)]

    phi_rows = [sparse_rows(m) for m in pair.phi.coeff]
    psi_rows = [sparse_rows(m) for m in pair.psi.coeff]
    for first, second in ((phi_rows, psi_rows), (psi_rows, phi_rows)):
        for i in range(n):
            for j in range(i, n):
                target = g[i, i] if i == j else 2 * g[i, j]
                for r in range(N):
                    acc = {}
                    for t, v in first[i][r]:
                        for c, w in second[j][t]:
                            acc[c] = acc.get(c, ZERO) + v * w
                    if i != j:
                        for t, v in first[j][r]:
                            for c, w in second[i][t]:
                                acc[c] = acc.get(c, ZERO) + v * w
                    for c, v in acc.items():
                        if v != (target if c == r else 0):
                            return False
                    if target and acc.get(r, ZERO) != target:
                        return False
    return True


def dense_evaluate(lm, v) -> Mat:
    """M(v) as a running sum of scaled dense coefficient matrices."""
    out = Mat.zeros(lm.rows, lm.cols)
    for x, m in zip(v, lm.coeff):
        if x:
            out = out + m.scale(x)
    return out


def dense_splitting_exists(inner, outer, q_ev, q_odd) -> bool:
    """Is there a graded Cl-linear section of the quotient map?  One dense
    Fraction row per equation (Cl-linearity against every coordinate
    vector, then q . sigma = id), solved by ``mat_solve``.  The section has
    components s_ev: inner_odd -> outer_ev and s_odd: inner_ev -> outer_odd."""
    n = inner.space.n
    a_rows, a_cols = outer.ev_dim, inner.odd_dim
    b_rows, b_cols = outer.odd_dim, inner.ev_dim
    nvars = a_rows * a_cols + b_rows * b_cols

    def a_index(r, c):
        return r * a_cols + c

    def b_index(r, c):
        return a_rows * a_cols + r * b_cols + c

    rows = []
    rhs = []

    def add_row(coeffs, target):
        row = [ZERO] * nvars
        for idx, val in coeffs:
            row[idx] += val
        rows.append(row)
        rhs.append(target)

    # outer.act_ev[i] @ s_ev = s_odd @ inner.act_odd[i], and the odd twin
    for i in range(n):
        oa, ia = outer.act_ev[i], inner.act_odd[i]
        for r in range(b_rows):
            for c in range(a_cols):
                coeffs = [(a_index(t, c), oa[r, t]) for t in range(a_rows) if oa[r, t]]
                coeffs += [(b_index(r, t), -ia[t, c]) for t in range(b_cols) if ia[t, c]]
                add_row(coeffs, ZERO)
        ob, ib = outer.act_odd[i], inner.act_ev[i]
        for r in range(a_rows):
            for c in range(b_cols):
                coeffs = [(b_index(t, c), ob[r, t]) for t in range(b_rows) if ob[r, t]]
                coeffs += [(a_index(r, t), -ib[t, c]) for t in range(a_cols) if ib[t, c]]
                add_row(coeffs, ZERO)

    # q_ev @ s_ev = id, q_odd @ s_odd = id
    for r in range(a_cols):
        for c in range(a_cols):
            coeffs = [(a_index(t, c), q_ev[r, t]) for t in range(a_rows) if q_ev[r, t]]
            add_row(coeffs, Fraction(1) if r == c else ZERO)
    for r in range(b_cols):
        for c in range(b_cols):
            coeffs = [(b_index(t, c), q_odd[r, t]) for t in range(b_rows) if q_odd[r, t]]
            add_row(coeffs, Fraction(1) if r == c else ZERO)

    return mat_solve(Mat.from_rows(rows), rhs) is not None


def left_action_matrix(v, domain_basis, codomain_basis) -> Mat:
    """Matrix of xi -> v*xi from span(domain_basis) to span(codomain_basis),
    through coordinates in the RREF basis of the codomain and a basis
    change back to the given codomain basis.  Raises SpanError (with the
    offending element as witness) when an image leaves the codomain span."""
    if not domain_basis:
        return Mat.zeros(len(codomain_basis), 0)
    space = domain_basis[0].space
    velt = CliffordElement.from_vector(space, v)
    rows, pivots = rref_rows([x.terms for x in codomain_basis], 1 << space.n)
    solver = SpanSolver(rows, pivots)
    change = mat_invertible(Mat.from_cols([solver.coords(x.terms) for x in codomain_basis]))
    if change is None:
        raise SpanError("codomain basis vectors are dependent")
    cols = []
    for xi in domain_basis:
        image = multiply(velt, xi)
        in_rref = solver.coords(image.terms)
        if in_rref is None:
            raise SpanError("image leaves the codomain span", witness=image)
        cols.append(change.mul_vec(in_rref))
    return Mat.from_cols(cols)
