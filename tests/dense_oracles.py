"""Dense reference implementations that the sparse construction path
replaced; the tests compare the package against them."""

from fractions import Fraction

from spinorsheaf import _kernels
from spinorsheaf.clifford import CliffordElement, _ctx, multiply
from spinorsheaf.exactalg import ZERO, Mat, _scaled_int_rows


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
