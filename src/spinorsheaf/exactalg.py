"""Exact rational linear algebra: matrices, matrices of linear forms,
univariate polynomials, and the sparse intertwining rows of Hom systems.

Every scalar is a fractions.Fraction, and every operation is a
deterministic function of its inputs, so identical inputs give
bit-identical outputs.  Every elimination is the sparse leftmost-pivot
kernel of ``_kernels`` on integer rows cleared of denominators: the
canonical span bases (``rref_rows``), the spans grown one vector at a time
(``IncrementalSpan``), the multiplication-map ranks (``mult_map_rank``)
and the matrix routines ``mat_rank``, ``mat_rank_kernel``, ``mat_solve``
and ``mat_invertible``.  One back-substitution (``_back_substitute``)
gives the kernel vectors, the particular solutions and the inverse
columns, each from fixed values at free columns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import factorial, lcm

from . import _kernels

Rat = Fraction


def rat(x) -> Fraction:
    """Coerce an int, 'a/b' string or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational from {x!r}")


def rat_to_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError(f"rationals must be integers or 'a/b' strings, got {v!r}")
    return rat(v)


def vec(values) -> tuple:
    return tuple(rat(v) for v in values)


ZERO = Fraction(0)
ONE = Fraction(1)


class Mat:
    """Dense exact rational matrix, row major, treated as immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(len(rows), ncols, [rat(x) for r in rows for x in r])

    @classmethod
    def from_cols(cls, cols) -> "Mat":
        return cls.from_rows(list(zip(*cols))) if cols else cls(0, 0, [])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [ZERO] * (rows * cols))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, s) -> "Mat":
        s = rat(s)
        return Mat(self.rows, self.cols, [s * a for a in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.rows, other.cols, self.cols
        out = [ZERO] * (n * m)
        oe = other.entries
        for i in range(n):
            base = i * k
            obase = i * m
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    rb = t * m
                    for j in range(m):
                        b = oe[rb + j]
                        if b:
                            out[obase + j] += a * b
        return Mat(n, m, out)

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for i in range(self.rows):
            base = i * self.cols
            s = ZERO
            for j, x in enumerate(v):
                if x:
                    a = self.entries[base + j]
                    if a:
                        s += a * x
            out[i] = s
        return tuple(out)

    def block_diag(self, other: "Mat") -> "Mat":
        """The block matrix [[self, 0], [0, other]]."""
        top = (self.row(i) + (ZERO,) * other.cols for i in range(self.rows))
        bottom = ((ZERO,) * self.cols + other.row(i) for i in range(other.rows))
        return Mat(self.rows + other.rows, self.cols + other.cols,
                   chain.from_iterable(chain(top, bottom)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Mat({self.rows}x{self.cols}: {body})"


def _int_row(pairs):
    """Sparse integer row ``{index: value}`` from ``(index, Fraction)`` pairs
    (iterated twice) times their least common denominator, same span."""
    l = reduce(lcm, (v.denominator for _, v in pairs), 1)
    return {j: v.numerator * (l // v.denominator) for j, v in pairs}


def _intertwining_rows(lefts, rights, x_at, y_at):
    """Sparse integer rows of X L - R Y = 0 for each pair (L, R) of
    ``lefts`` and ``rights``: X is R.rows x L.rows with vec(X) starting at
    variable ``x_at``, Y is R.cols x L.cols with vec(Y) starting at
    ``y_at``.  Equation (r, c) reads column c of L and row r of R, so the
    nonzeros of each are listed once per pair; all-zero rows are dropped."""
    rows = []
    for left, right in zip(lefts, rights):
        m, k, q = left.rows, left.cols, right.cols
        lv, rv = left.entries, right.entries
        lcols = [[(t, lv[t * k + c]) for t in range(m) if lv[t * k + c]]
                 for c in range(k)]
        rrows = [[(y_at + t * k, -rv[r * q + t]) for t in range(q) if rv[r * q + t]]
                 for r in range(right.rows)]
        for r, rrow in enumerate(rrows):
            xr = x_at + r * m
            for c, lcol in enumerate(lcols):
                if lcol or rrow:
                    rows.append(_int_row([(xr + t, v) for t, v in lcol]
                                         + [(j + c, v) for j, v in rrow]))
    return rows


def _hom_system(a, b):
    """The Hom system of graded modules given by their action matrices
    (``act_ev``, ``act_odd``): maps (A, B) with A b.odd x a.odd and B
    b.ev x a.ev, variables vec(A) then vec(B).  Returns the sparse integer
    rows of A phi = phi' B, those of B psi = psi' A, and the variable count."""
    na = b.odd_dim * a.odd_dim
    nvars = na + b.ev_dim * a.ev_dim
    phi_rows = _intertwining_rows(a.act_ev, b.act_ev, 0, na)
    psi_rows = _intertwining_rows(a.act_odd, b.act_odd, na, 0)
    return phi_rows, psi_rows, nvars


def _sparse(v) -> dict:
    """``v`` as ``{col: value}``; a dict is taken to hold nonzeros only."""
    return v if isinstance(v, dict) else {j: x for j, x in enumerate(v) if x}


def _back_substitute(pivots, fixed, n):
    """The solution of a sparse echelon form ``{col: row}`` that takes the
    values ``fixed`` at some free columns and 0 at the others, on the first
    ``n`` columns.  Its pivots are those of the reduced form, so it is the
    same whichever echelon form it is read from; a pivot right of every
    fixed column stays 0."""
    cols = sorted(pivots)
    x = dict(fixed)
    for c in reversed(cols[:bisect_left(cols, max(fixed))]):
        row = pivots[c]
        s = sum(v * x[j] for j, v in row.items() if j in x)
        if s:
            x[c] = -s / row[c]
    return tuple(x.get(j, ZERO) for j in range(n))


def _kernel_from_sparse_echelon(pivots, ncols):
    """Kernel basis in reduced echelon-normal form: for each free column
    f < ncols, the solution with 1 at f and 0 at the other free columns."""
    return tuple(_back_substitute(pivots, {f: ONE}, ncols)
                 for f in range(ncols) if f not in pivots)


def _int_rows(m: Mat, extra=None):
    """Sparse integer rows of ``m``, row i extended by the pairs ``extra[i]``."""
    return [_int_row([(j, x) for j, x in enumerate(m.row(i)) if x] + (extra[i] if extra else []))
            for i in range(m.rows)]


def mat_rank_kernel(m: Mat):
    """Rank and a deterministic kernel basis of ``m``."""
    pivots = _kernels.sparse_echelon(_int_rows(m))
    return len(pivots), _kernel_from_sparse_echelon(pivots, m.cols)


def mat_rank(m: Mat) -> int:
    return _kernels.sparse_rank(_int_rows(m))


def mat_solve(a: Mat, target):
    """Solve a x = target.  Returns (particular, kernel_basis) or None if
    the system is inconsistent."""
    if len(target) != a.rows:
        raise ValueError("target length mismatch")
    n = a.cols
    # [a | -target] x' = 0 with x'[n] = 1; inconsistent when n is a pivot
    pivots = _kernels.sparse_echelon(
        _int_rows(a, [[(n, -t)] if t else [] for t in map(rat, target)]))
    if n in pivots:
        return None
    return _back_substitute(pivots, {n: ONE}, n), _kernel_from_sparse_echelon(pivots, n)


def mat_invertible(m: Mat):
    """Inverse of ``m`` or None if singular.  Non-square input is rejected."""
    if m.rows != m.cols:
        raise ValueError("mat_invertible requires a square matrix")
    n = m.rows
    # [m | -I] x' = 0 with x'[n + k] = 1 gives column k of the inverse
    pivots = _kernels.sparse_echelon(_int_rows(m, [[(n + i, -ONE)] for i in range(n)]))
    if any(c not in pivots for c in range(n)):
        return None
    return Mat.from_cols([_back_substitute(pivots, {n + k: ONE}, n) for k in range(n)])


def rref_rows(vectors, ncols):
    """Canonical (reduced row echelon) basis of the span of ``vectors``,
    dense sequences or ``{col: value}`` dicts: echelon form from the sparse
    kernel on rows cleared of denominators, then back-substitution from the
    last pivot up to pivot 1.  Returns (rows, pivots); rows are dicts in
    column order for dict input, else dense tuples of length ``ncols``."""
    vectors = list(vectors)
    reduced = _kernels.sparse_echelon(
        [r for r in (_int_row(_sparse(v).items()) for v in vectors) if r])
    pivots = sorted(reduced)
    done = {}
    for c in reversed(pivots):
        row = {j: Fraction(v, reduced[c][c]) for j, v in reduced[c].items()}
        # a finished row holds no other pivot: clearing one refills none
        for k in [k for k in row if k != c and k in done]:
            f = row.pop(k)
            for j, x in done[k].items():
                if j != k:
                    v = row.get(j, ZERO) - f * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        done[c] = row
    rows = [dict(sorted(done[c].items())) for c in pivots]
    if vectors and not isinstance(vectors[0], dict):
        rows = [tuple(r.get(j, ZERO) for j in range(ncols)) for r in rows]
    return rows, pivots


class IncrementalSpan:
    """A span grown one vector at a time, in the incremental mode of
    ``_kernels.sparse_echelon``: each new vector (dense, or a ``{col:
    value}`` dict of nonzeros) is reduced against the pivot rows held so
    far, and ``add`` tells whether it added a pivot."""

    __slots__ = ("pivots",)

    def __init__(self, vectors=()):
        self.pivots = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def add(self, v) -> bool:
        """Add ``v``; True exactly when it lies outside the span so far."""
        dim = len(self.pivots)
        _kernels.sparse_echelon([_int_row(_sparse(v).items())], self.pivots)
        return len(self.pivots) > dim


class SpanSolver:
    """Coordinates in a fixed RREF basis, on ``{col: value}`` dicts of
    nonzeros (dense sequences are read as their nonzeros).  A row has 1 at
    its pivot and 0 at the other pivots, so a coordinate is the vector's
    entry at a pivot; the vector is in the span when that combination of
    the rows leaves no residual.  Only nonzeros are touched."""

    def __init__(self, rref, pivots):
        rows = [_sparse(r) for r in rref]
        self.pivots = list(pivots)
        self._at = {c: k for k, c in enumerate(self.pivots)}
        if any(r.get(c) != 1 or any(j != c and j in self._at for j in r)
               for r, c in zip(rows, self.pivots)):
            raise ValueError("span rows must be in reduced row echelon form")
        self._tails = [[(j, x) for j, x in r.items() if j != c]
                       for r, c in zip(rows, self.pivots)]

    def coords(self, v):
        """Coordinates of v in the basis, or None if v is outside the span."""
        v = _sparse(v)
        out = [ZERO] * len(self.pivots)
        rest = dict(v)
        for c, a in v.items():
            k = self._at.get(c)
            if k is not None:
                out[k] = a
                del rest[c]
                for j, x in self._tails[k]:
                    r = rest.get(j, ZERO) - a * x
                    if r:
                        rest[j] = r
                    else:
                        rest.pop(j, None)
        return None if rest else tuple(out)


class LinMat:
    """Matrix of linear forms M(x) = sum_i x_i * coeff[i], all shapes equal."""

    __slots__ = ("n", "rows", "cols", "coeff")

    def __init__(self, n: int, coeff):
        coeff = tuple(coeff)
        if len(coeff) != n:
            raise ValueError("need one coefficient matrix per coordinate")
        if not coeff:
            raise ValueError("ambient dimension must be positive")
        r, c = coeff[0].rows, coeff[0].cols
        for m in coeff:
            if (m.rows, m.cols) != (r, c):
                raise ValueError("coefficient matrices must share a shape")
        self.n = n
        self.rows = r
        self.cols = c
        self.coeff = coeff

    def evaluate(self, v) -> Mat:
        """M(v), summed over the nonzero entries of each coefficient."""
        v = vec(v)
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        out = [ZERO] * (self.rows * self.cols)
        for x, m in zip(v, self.coeff):
            if x:
                for t, a in enumerate(m.entries):
                    if a:
                        out[t] += x * a
        return Mat(self.rows, self.cols, out)

    def int_rows(self):
        """``(d, rows)``: ``d`` is the least common denominator of all
        coefficients, and ``rows[k][r]`` lists the nonzeros of row r of
        ``coeff[k]`` as int pairs ``(j, d * coeff[k][r, j])``."""
        C = self.cols
        # "is not ZERO" skips the shared zero without calling Fraction.__bool__
        nz = [[(t, v) for t, v in enumerate(m.entries) if v is not ZERO and v]
              for m in self.coeff]
        den = reduce(lcm, (v.denominator for flat in nz for _, v in flat), 1)
        out = []
        for flat in nz:
            rows = [[] for _ in range(self.rows)]
            for t, v in flat:
                rows[t // C].append((t % C, v.numerator * (den // v.denominator)))
            out.append(rows)
        return den, out

    def transpose(self) -> "LinMat":
        return LinMat(self.n, [m.transpose() for m in self.coeff])

    def block_diag(self, other: "LinMat") -> "LinMat":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return LinMat(self.n, [a.block_diag(b) for a, b in zip(self.coeff, other.coeff)])

    def __eq__(self, other):
        return (
            isinstance(other, LinMat)
            and self.n == other.n
            and self.coeff == other.coeff
        )

    def __hash__(self):
        return hash((self.n, self.coeff))

    def entry_str(self, i: int, j: int) -> str:
        terms = []
        for k in range(self.n):
            a = self.coeff[k][i, j]
            if not a:
                continue
            var = f"x{k}"
            if a == 1:
                s = var
            elif a == -1:
                s = f"-{var}"
            else:
                s = f"{a}*{var}"
            if terms and not s.startswith("-"):
                terms.append("+" + s)
            else:
                terms.append(s)
        return "".join(terms) if terms else "0"

    def __repr__(self):
        body = "; ".join(
            " ".join(self.entry_str(i, j) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"LinMat({self.rows}x{self.cols} in {self.n} vars: {body})"


class UniPoly:
    """Univariate polynomial with exact rational coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [rat(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __call__(self, t) -> Fraction:
        acc = ZERO
        t = rat(t)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    def scale(self, s) -> "UniPoly":
        s = rat(s)
        return UniPoly([s * c for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        parts = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return "UniPoly(" + " + ".join(parts) + ")"


def binomial_upoly(offset: int, k: int) -> UniPoly:
    """The polynomial C(t + offset, k) in t."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    p = UniPoly([1])
    for i in range(k):
        p = p * UniPoly([offset - i, 1])
    return p.scale(Fraction(1, factorial(k)))


@lru_cache(maxsize=None)
def monomials(n: int, d: int):
    """Exponent tuples of the degree-d monomials in n variables, in
    lexicographically descending order (x0 powers first)."""
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for a in range(d, -1, -1):
        for rest in monomials(n - 1, d - a):
            out.append((a,) + rest)
    return tuple(out)


def monomial_count(n: int, d: int) -> int:
    if d < 0:
        return 0
    num = 1
    for i in range(1, n):
        num = num * (d + i)
    return num // factorial(n - 1)


def monomial_multiplication_matrix(lm: LinMat, t: int) -> Mat:
    """Matrix of multiplication by ``lm`` from (degree t-1 forms)^cols to
    (degree t forms)^rows, monomials ordered lexicographically."""
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


def mult_map_rank(lm: LinMat, t: int) -> int:
    """Rank of monomial_multiplication_matrix(lm, t); t <= 0 gives an empty
    domain and rank 0.

    The matrix is built straight as sparse integer rows for
    ``_kernels.sparse_rank``.  Row (nu, r) meets column (mu, j) only when
    nu - mu = e_k for one k, so each entry is a single coefficient
    ``lm.coeff[k][r, j]``; all coefficients are scaled by one common
    denominator, which leaves the rank alone.
    """
    if t <= 0:
        return 0
    n = lm.n
    R, C = lm.rows, lm.cols
    _, nz = lm.int_rows()
    dom_idx = {mu: i for i, mu in enumerate(monomials(n, t - 1))}
    rows = []
    for nu in monomials(n, t):
        # (k, offset of the column block of nu - e_k) for each k with nu_k > 0
        blocks = [
            (k, dom_idx[nu[:k] + (nu[k] - 1,) + nu[k + 1 :]] * C)
            for k in range(n) if nu[k]
        ]
        for r in range(R):
            row = {}
            for k, base in blocks:
                for j, v in nz[k][r]:
                    row[base + j] = v
            if row:
                rows.append(row)
    return _kernels.sparse_rank(rows)
