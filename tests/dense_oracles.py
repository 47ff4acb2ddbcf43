"""Dense reference implementations that the sparse construction path
replaced, the certificates on a standardized copy of the space that the
module-side ones replaced, the eliminated cohomology dimensions that the
identity route replaced, the form and fiber ranks in Fraction
arithmetic that the integer form replaced, the Clifford table entry by
entry that the row-per-monomial table replaced, the map check on built
products that the row sums of ``intertwines`` replaced, the fiber ranks
eliminated at every point and the Hom cross-check on every basis map
that the identity and the kernel certificate replaced, and the
form-evaluation, quotient-space, Clifford, matrix and module helpers no
package module needs; the tests compare the package against them.  The
references compute on their own Fraction constants, so they stay
independent of the package's canonical form."""

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm

from spinorsheaf import _kernels
from spinorsheaf.clifford import CliffordElement, _ctx, multiply, trace_form
from spinorsheaf.errors import PreconditionError, SpanError
from spinorsheaf.exactalg import (
    IncrementalSpan,
    LinMat,
    Mat,
    SpanSolver,
    exact,
    mat_invertible,
    mat_solve,
    monomial_count,
    monomials,
    mult_map_rank,
    rref_rows,
    vec,
)
from spinorsheaf.quadform import (
    QuadraticSpace,
    Subspace,
    radical_basis,
    standardize,
    sub_intersection,
)
from spinorsheaf.spinor import (
    FactorizationPair,
    IdealModule,
    _action,
    build_factorization,
    build_ideal,
    fiber_rank,
    intertwines,
    quadric_points,
    shift,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def canonical(x) -> bool:
    """Whether ``x`` is an exact rational in the package's canonical form:
    an int, or a Fraction with denominator > 1; never a bool or a float."""
    return x.__class__ is int or (x.__class__ is Fraction and x.denominator > 1)


def canonical_nonzeros(m: Mat) -> bool:
    """Whether ``m`` holds the one storage of a matrix: a list per row of
    ``(col, value)`` tuples, columns ascending inside the shape, no zero,
    each value canonical."""
    return (m.nz.__class__ is list and len(m.nz) == m.rows
            and all(row.__class__ is list
                    and all(p.__class__ is tuple and len(p) == 2 for p in row)
                    and [j for j, _ in row] == sorted({j for j, _ in row})
                    and all(0 <= j < m.cols and x != 0 and canonical(x) for j, x in row)
                    for row in m.nz))


def row_lists(m: Mat):
    """The rows of ``m`` as lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def block_diag(a, b):
    """The block matrix [[a, 0], [0, b]] of two Mats, or of two LinMats
    coefficient by coefficient."""
    if isinstance(a, LinMat):
        if a.n != b.n:
            raise ValueError("ambient dimension mismatch")
        return LinMat(a.n, [block_diag(x, y) for x, y in zip(a.coeff, b.coeff)])
    top = (a.row(i) + (0,) * b.cols for i in range(a.rows))
    bottom = ((0,) * a.cols + b.row(i) for i in range(b.rows))
    return Mat(a.rows + b.rows, a.cols + b.cols, chain.from_iterable(chain(top, bottom)))


def monomial(space, indices, coeff=1) -> CliffordElement:
    """The element coeff * e_{i1}...e_{ik} for distinct ascending indices."""
    mask = 0
    for i in indices:
        bit = 1 << i
        if mask & bit:
            raise PreconditionError("monomial indices must be distinct")
        mask |= bit
    return CliffordElement(space, {mask: coeff})


def vector_part(a: CliffordElement):
    """The degree-1 coordinates of ``a``, or None if other monomials appear."""
    v = [0] * a.space.n
    for m, c in a.terms.items():
        if bin(m).count("1") != 1:
            return None
        v[m.bit_length() - 1] = c
    return tuple(v)


def dense_coords(a: CliffordElement) -> tuple:
    """The 2^n coordinates of ``a`` in the monomial order of its space."""
    ctx = _ctx(a.space)
    out = [0] * (1 << ctx.n)
    for m, c in a.terms.items():
        out[ctx.index[m]] = c
    return tuple(out)


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
    rows = _scaled_int_rows(row_lists(m))
    rank, pivots = _kernels.echelon(rows, m.cols)
    return rank, _kernel_from_echelon(rows, pivots, m.cols)


def dense_rank(m: Mat) -> int:
    """``mat_rank`` by dense Bareiss elimination."""
    rows = _scaled_int_rows(row_lists(m))
    rank, _ = _kernels.echelon(rows, m.cols)
    return rank


def monomial_multiplication_matrix(lm, t: int) -> Mat:
    """Dense matrix of multiplication by ``lm`` from (degree t-1
    forms)^cols to (degree t forms)^rows, monomials ordered
    lexicographically: the reference for ``exactalg.mult_map_rank``."""
    if t <= 0:
        raise ValueError("t must be at least 1")
    n = lm.n
    dom = monomials(n, t - 1)
    codom = monomials(n, t)
    idx = {m: i for i, m in enumerate(codom)}
    R, C = lm.rows, lm.cols
    nrows = len(codom) * R
    ncols = len(dom) * C
    out = [ZERO] * (nrows * ncols)
    for mi, mu in enumerate(dom):
        for k in range(n):
            nu = mu[:k] + (mu[k] + 1,) + mu[k + 1 :]
            ri = idx[nu]
            coeff = lm.coeff[k]
            for r in range(R):
                for j in range(C):
                    v = coeff[r, j]
                    if v:
                        out[(ri * R + r) * ncols + mi * C + j] += v
    return Mat(nrows, ncols, out)


def eliminated_cohomology_dim(mf, idx: int, t: int) -> int:
    """``homalg.cohomology_dim`` by elimination, as it was computed before
    the ranks were read off psi phi = q Id: h^0 is N * df(t) minus the rank
    of phi in degree t, the top index N * df(s) minus the rank of phi^T in
    degree s = -t-n+1, and the middle indices vanish."""
    n, N = mf.space.n, mf.N

    def h0():
        return N * monomial_count(n, t) - mult_map_rank(mf.phi, t)

    def htop():
        s = -t - n + 1
        return N * monomial_count(n, s) - mult_map_rank(mf.phi.transpose(), s)

    if n == 2:
        return h0() + htop()
    if idx == 0:
        return h0()
    if idx == n - 2:
        return htop()
    return 0


def dense_solve(a: Mat, target):
    """``mat_solve`` by dense Bareiss elimination of [a | target]."""
    aug = [list(a.row(i)) + [Fraction(target[i])] for i in range(a.rows)]
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
            ev_raw.append(dense_coords(elt))
        else:
            odd_raw.append(dense_coords(elt))
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


def scale(m: Mat, s) -> Mat:
    """The matrix s * m, its nonzeros scaled one by one, canonical."""
    s = exact(s)
    return Mat.from_nonzeros(m.rows, m.cols,
                             [[(j, exact(s * x)) for j, x in row] if s else [] for row in m.nz])


def dense_evaluate(lm, v) -> Mat:
    """M(v) as a running sum of scaled dense coefficient matrices."""
    out = Mat.zeros(lm.rows, lm.cols)
    for x, m in zip(v, lm.coeff):
        if x:
            out = out + scale(m, x)
    return out


def fraction_form(space, v, w) -> Fraction:
    """b(v, w) = sum over i, j of v_i G_ij w_j, every cell of the dense
    Gram taken, in Fraction arithmetic."""
    n = space.n
    return sum((Fraction(v[i]) * Fraction(space.gram[i, j]) * Fraction(w[j])
                for i in range(n) for j in range(n)), ZERO)


def evaluate(space, v, w=None):
    """b(v, w); with w omitted, q(v) = b(v, v)."""
    v = vec(v)
    if w is None:
        return space.q(v)
    return space.b(v, vec(w))


def fraction_fiber_rank(mf, v) -> int:
    """The rank of phi(v) on the dense phi(v) at v itself, in Fractions."""
    return dense_rank(dense_evaluate(mf.phi, tuple(map(Fraction, v))))


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
    rows, pivots = rref_rows([x.terms for x in codomain_basis])
    solver = SpanSolver(rows, pivots)

    def dense_coords(x):
        coords = solver.coords(x.terms)
        return None if coords is None else tuple(coords.get(k, 0) for k in range(len(pivots)))

    change = mat_invertible(Mat.from_cols([dense_coords(x) for x in codomain_basis]))
    if change is None:
        raise SpanError("codomain basis vectors are dependent")
    cols = []
    for xi in domain_basis:
        image = multiply(velt, xi)
        in_rref = dense_coords(image)
        if in_rref is None:
            raise SpanError("image leaves the codomain span", witness=image)
        cols.append(change.mul_vec(in_rref))
    return Mat.from_cols(cols)


def per_image_action(i, parity):
    """The matrices of left multiplication by each e_k on one graded part
    of the ideal module ``i``, by the route that one coordinate sweep per
    matrix replaced: each image from ``vec_mul_terms``, its coordinates
    read one image at a time (its entry at each pivot of the other part's
    canonical basis, that multiple of the row taken off, no residual
    left), then one fill of the nonzeros, as Fractions.  An image outside
    the other part raises SpanError with the image as witness."""
    ctx = _ctx(i.space)
    rows = [x.terms for x in i.parts[1 - parity]]
    at = {min(r, key=ctx.index.__getitem__): k for k, r in enumerate(rows)}
    out = []
    for e in range(i.space.n):
        nz = [[] for _ in rows]
        for c, x in enumerate(i.parts[parity]):
            image = ctx.vec_mul_terms(e, x.terms)
            rest = dict(image)
            for m, a in image.items():
                k = at.get(m)
                if k is not None:
                    nz[k].append((c, Fraction(a)))
                    for j, y in rows[k].items():
                        rest[j] = rest.get(j, ZERO) - a * y
            if any(rest.values()):
                raise SpanError("left action leaves the module",
                                witness=CliffordElement(i.space, image))
        out.append(Mat.from_nonzeros(len(rows), len(i.parts[parity]), nz))
    return tuple(out)


def per_entry_table(space):
    """The Clifford table one entry at a time: ``entry(i, mask)`` is the
    normal form of e_i * (monomial mask), memoized per (i, mask).  With j
    the least index of mask and rest = mask - e_j, it is e_{mask + i} for
    i < j, q(e_j) e_rest for i = j, and 2 b(e_i, e_j) e_rest - e_j (e_i e_rest)
    for i > j."""
    n = space.n
    consts = [[Fraction(g if i == j else 2 * g) for j, g in enumerate(space.gram.row(i))]
              for i in range(n)]
    cache = {}

    def entry(i, mask):
        key = (i, mask)
        if key in cache:
            return cache[key]
        bit = 1 << i
        if mask == 0:
            res = {bit: ONE}
        else:
            j = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            if i < j:
                res = {bit | mask: ONE}
            elif i == j:
                res = {rest: consts[i][i]} if consts[i][i] else {}
            else:
                jbit = 1 << j
                res = {rest: consts[i][j]} if consts[i][j] else {}
                for m, c in entry(i, rest).items():
                    v = res.get(m | jbit, ZERO) - c
                    if v:
                        res[m | jbit] = v
                    else:
                        res.pop(m | jbit, None)
        cache[key] = res
        return res

    return entry


def dense_trace_pairing_nondegenerate(space) -> bool:
    """``clifford.trace_pairing_nondegenerate`` from the full 2^n x 2^n
    Gram of tr(e_S * e_T) and its rank."""
    monos = [CliffordElement(space, {m: ONE}) for m in range(1 << space.n)]
    gram = Mat.from_rows([[trace_form(a, b) for b in monos] for a in monos])
    return dense_rank(gram) == 1 << space.n


class StdProfile:
    """Positions of the normal-form blocks of a space in standardized
    coordinates."""

    __slots__ = (
        "n",
        "rank",
        "k",
        "pi_dim",
        "diag_index",
        "diag_value",
        "a_positions",
        "b_positions",
        "radical_positions",
        "w_radical_count",
    )

    def __init__(self, n, rank, k, pi_dim, diag_index, diag_value,
                 a_positions, b_positions, radical_positions, w_radical_count):
        self.n = n
        self.rank = rank
        self.k = k
        self.pi_dim = pi_dim
        self.diag_index = diag_index
        self.diag_value = diag_value
        self.a_positions = tuple(a_positions)
        self.b_positions = tuple(b_positions)
        self.radical_positions = tuple(radical_positions)
        self.w_radical_count = w_radical_count

    @property
    def w_positions(self):
        return self.b_positions[: self.pi_dim] + self.radical_positions[: self.w_radical_count]

    def normal_gram(self) -> Mat:
        half = Fraction(1, 2)
        g = [[0] * self.n for _ in range(self.n)]
        for a, b in zip(self.a_positions, self.b_positions):
            g[a][b] = half
            g[b][a] = half
        if self.diag_index is not None:
            g[self.diag_index][self.diag_index] = self.diag_value
        return Mat.from_rows(g)


def standardized_copy(space, w):
    """(space_std, w_std): the form in the basis that ``standardize``
    returns, and w by its coordinates in that basis."""
    change = Mat.from_cols(standardize(space, w).basis)
    space_std = QuadraticSpace(change.transpose() @ space.gram @ change)
    inverse = mat_invertible(change)
    coords = [inverse.mul_vec(vec(v)) for v in w.basis]
    return space_std, Subspace.span(space_std, coords)


def standardization_profile(space, std) -> StdProfile:
    """The ``StdProfile`` of the layout of ``standardize``'s result ``std``:
    [diag] + partners + tails + radical, w the tails and the first
    ``std.l`` radical vectors."""
    d = 0 if std.diag is None else 1
    k = len(std.partners)
    return StdProfile(
        space.n, space.rank, k, len(std.tails), None if std.diag is None else 0,
        None if std.diag is None else space.q(std.diag), range(d, d + k),
        range(d + k, d + 2 * k), range(d + 2 * k, space.n), std.l,
    )


def detect_standard_profile(space, w):
    """Recognize a space already in standardized coordinates: the
    ``StdProfile`` of (space, w), or None when the form is not in normal
    form or w is not spanned by the leading tail and radical vectors."""
    n = space.n
    rank = space.rank
    k = rank // 2
    diag_index = None
    diag_value = None
    offset = 0
    if rank % 2 == 1:
        diag_index = 0
        diag_value = space.gram[0, 0]
        if diag_value == 0:
            return None
        offset = 1
    a_positions = list(range(offset, offset + k))
    b_positions = list(range(offset + k, offset + 2 * k))
    radical_positions = list(range(offset + 2 * k, n))
    # w must be spanned by coordinate vectors among tails and radicals
    positions = []
    for row in rref_rows(w.basis)[0]:
        if list(row.values()) != [1]:
            return None
        positions.append(min(row))
    tail_hits = [p for p in positions if p in b_positions]
    rad_hits = [p for p in positions if p in radical_positions]
    if len(tail_hits) + len(rad_hits) != len(positions):
        return None
    if tail_hits != b_positions[: len(tail_hits)]:
        return None
    if rad_hits != radical_positions[: len(rad_hits)]:
        return None
    profile = StdProfile(
        n, rank, k, len(tail_hits), diag_index, diag_value,
        a_positions, b_positions, radical_positions, len(rad_hits),
    )
    if space.gram != profile.normal_gram():
        return None
    return profile


def _standardized_module(i):
    """The module of i rebuilt on the standardized copy of its space (and
    shifted as i is), with the profile detected there."""
    space_std, w_std = standardized_copy(i.space, i.w)
    module = build_ideal(space_std, w_std)
    profile = detect_standard_profile(space_std, w_std)
    return (shift(module) if i.shift else module), profile


def standardized_family_indicator(i):
    """``spinor.family_indicator`` on the standardized copy of the module:
    the monomial of the partners and of the radical directions outside w,
    tried on both graded halves."""
    module, profile = _standardized_module(i)
    if profile is None:
        raise PreconditionError("family_indicator needs a standardized basis")
    if profile.diag_index is not None:
        raise PreconditionError("family_indicator needs dim V/K even")
    if profile.pi_dim != profile.k:
        raise PreconditionError("family_indicator needs pi(w) maximal")
    witness_positions = list(profile.a_positions) + list(
        profile.radical_positions[profile.w_radical_count:]
    )
    xi = monomial(module.space, sorted(witness_positions))
    killed_ev = all(multiply(xi, b).is_zero() for b in module.ev_basis)
    killed_odd = all(multiply(xi, b).is_zero() for b in module.odd_basis)
    if killed_ev and not killed_odd:
        return "EVEN"
    if killed_odd and not killed_ev:
        return "ODD"
    return "NONE"


def standardized_irreducibility_certificate(i):
    """``homalg._irreducibility_certificate`` on the standardized copy of
    the module, with the coordinate vectors of the detected profile."""
    try:
        module, prof = _standardized_module(i)
    except PreconditionError:
        return None
    space = module.space
    gen = module.generator
    checks = []

    def vecel(pos):
        return CliffordElement.from_vector(space, space.basis_vector(pos))

    for pos in prof.w_positions:
        if not multiply(vecel(pos), gen).is_zero():
            return None
    checks.append("w kills the generator")
    for ai, bi in zip(prof.a_positions, prof.b_positions):
        if multiply(vecel(bi), multiply(vecel(ai), gen)) != gen:
            return None
    checks.append("partner pair restores the generator")
    for ai in prof.a_positions:
        for bj in prof.b_positions:
            if prof.a_positions.index(ai) == prof.b_positions.index(bj):
                continue
            lhs = multiply(vecel(ai), vecel(bj))
            rhs = multiply(vecel(bj), vecel(ai)).scale(-1)
            if lhs != rhs:
                return None
    checks.append("partners anticommute across pairs")
    if prof.diag_index is not None:
        v0 = vecel(prof.diag_index)
        if multiply(v0, multiply(v0, gen)) != gen.scale(prof.diag_value):
            return None
        if prof.diag_value == 0:
            return None
        checks.append("anisotropic direction squares to a nonzero scalar")
    return {"identities": checks, "k": prof.k, "diag": prof.diag_value}


def quotient_lift(qs, v) -> tuple:
    """The section of the quotient space ``qs`` applied to ``v``: V/U -> V."""
    return qs.section.mul_vec(vec(v))


def quotient_induced_gram(qs) -> Mat:
    """The Gram matrix of the form that V/U inherits."""
    return qs.space.gram


def grade_parts(a: CliffordElement):
    """Split into (even, odd) by monomial length parity."""
    ev = {m: c for m, c in a.terms.items() if bin(m).count("1") % 2 == 0}
    od = {m: c for m, c in a.terms.items() if bin(m).count("1") % 2 == 1}
    return CliffordElement(a.space, ev), CliffordElement(a.space, od)


def transpose_anti(a: CliffordElement) -> CliffordElement:
    """The anti-automorphism reversing products of vectors."""
    ctx = _ctx(a.space)
    out = {}
    for m, c in a.terms.items():
        # reversed product e_{ik}...e_{i1}: left-multiply 1 by the indices
        # in ascending order
        acc = {0: 1}
        mm = m
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            acc = ctx.vec_mul_terms(i, acc)
        for mono, cc in acc.items():
            v = out.get(mono, 0) + c * cc
            if v:
                out[mono] = v
            elif mono in out:
                del out[mono]
    return CliffordElement(a.space, out)


def same_module(a, b) -> bool:
    """Whether two ideal modules have the same space, shift and canonical
    bases."""
    return (
        isinstance(a, IdealModule)
        and isinstance(b, IdealModule)
        and a.space == b.space
        and a.shift == b.shift
        and [x.terms for x in a.ev_basis] == [x.terms for x in b.ev_basis]
        and [x.terms for x in a.odd_basis] == [x.terms for x in b.odd_basis]
    )


def direct_sum(a, b) -> FactorizationPair:
    """Block sum of two modules over the same space."""
    if a.space != b.space:
        raise PreconditionError("direct sum needs a common space")
    n = a.space.n
    return FactorizationPair(
        a.space,
        block_diag(LinMat(n, a.act_ev), LinMat(n, b.act_ev)),
        block_diag(LinMat(n, a.act_odd), LinMat(n, b.act_odd)),
    )


def intertwines_by_products(a, b, A, B, pairs=None) -> bool:
    """``spinor.intertwines`` as it was before the row sums: both sides of
    A phi_a(s) = phi_b(v) B and B psi_a(s) = psi_b(v) A built as products
    and compared with ``Mat.__eq__``."""
    if pairs is None:
        basis = [a.space.basis_vector(i) for i in range(a.space.n)]
        pairs = zip(basis, basis)
    return all(A @ _action(a.act_ev, s) == _action(b.act_ev, v) @ B
               and B @ _action(a.act_odd, s) == _action(b.act_odd, v) @ A
               for s, v in pairs)


def fiber_record_by_elimination(fx):
    """(verdict, strata) of the ``fiber_rank_stratification`` record with
    phi(v) eliminated at every point, as before the ranks off the radical
    were read off the checked identity."""
    module = build_ideal(fx.space, fx.w)
    mf = build_factorization(module)
    c = module.codim
    wk = sub_intersection(fx.w, radical_basis(fx.space))
    allowed = {"singular_w": (1 << (c - 1),),
               "elsewhere": (1 << (c - 2),) if c >= 2 else (0, 1)}
    ok = True
    strata = dict.fromkeys(allowed, 0)
    for v in quadric_points(fx.space, fx.w):
        stratum = "singular_w" if wk.contains(v) else "elsewhere"
        strata[stratum] += 1
        ok &= fiber_rank(mf, v)[1] in allowed[stratum]
    return ("pass" if ok else "fail"), strata


def crosscheck_by_maps(h) -> bool:
    """Whether every basis map of the Hom space ``h`` passes
    ``intertwines``: the cross-check before the kernel certificate."""
    return all(intertwines(h.source, h.target, A, B) for A, B in hom_basis(h))


def hom_basis(h):
    """The basis pairs of the Hom space ``h``, in order."""
    return tuple(map(h.pair, range(h.dimension)))


def element_closure(i, par, x):
    """(ev_dim, odd_dim) of the span of the products e_{t1} ... e_{tk} x
    of the element x of part ``par`` of the module ``i``, grown by Clifford
    multiplication and read in the module's coordinates: the reference of
    the closure on action-matrix columns."""
    vectors = [CliffordElement.from_vector(i.space, i.space.basis_vector(t))
               for t in range(i.space.n)]
    spans = (IncrementalSpan(), IncrementalSpan())
    queue = [(par, x)] if spans[par].add(i.coords_in(par, x)) else []
    while queue:
        p, y = queue.pop()
        for e in vectors:
            z = multiply(e, y)
            if spans[1 - p].add(i.coords_in(1 - p, z)):
                queue.append((1 - p, z))
    return spans[0].dim, spans[1].dim
