"""Exact rational linear algebra: matrices, matrices of linear forms,
univariate polynomials, and the sparse intertwining rows of Hom systems.

Every scalar is an exact rational, never a float or a bool, and every
operation is a deterministic function of its inputs, so identical inputs
give bit-identical outputs.  An exact rational is an int when it is whole
and a Fraction otherwise: the canonical form.  ``exact`` is the one
constructor of a rational and returns that form; ``vec``, ``Mat.from_rows``
and ``UniPoly`` read their entries through it.  Every producer keeps the
form: products and sums (``@``, ``mul_vec``, ``LinMat.evaluate``), the
canonical span bases (``rref_rows``) and the coordinates in them
(``SpanSolver``), kernels, solutions and inverses.  So an integral form
carries its Clifford products, module bases, action matrices and Hom
pairs as ints.  A quotient is ``exact(a, b)``: ``a / b`` of two ints is a
float.

Every elimination is the sparse leftmost-pivot kernel of ``_kernels`` on
integer rows cleared of denominators: the canonical span bases
(``rref_rows``), the spans grown one vector at a time (``IncrementalSpan``),
the multiplication-map ranks (``mult_map_rank``) and the matrix routines
``mat_rank``, ``mat_rank_kernel``, ``mat_solve`` and ``mat_invertible``.
One back-substitution (``_back_substitute``) gives the kernel vectors, the
particular solutions and the inverse columns, each from fixed values at
free columns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import factorial, lcm

from . import _kernels

Rat = Fraction


def exact(num, den=1):
    """``num / den`` in canonical form: an int when it is whole, else a
    Fraction.  ``num`` is an int, an 'a/b' string or a Fraction, ``den``
    an int or a Fraction; anything else is a TypeError."""
    if num.__class__ is int and den.__class__ is int:
        if den == 1:
            return num
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    if isinstance(num, str):
        num = Fraction(num)
    elif not isinstance(num, (int, Fraction)):
        raise TypeError(f"cannot make an exact rational from {num!r}")
    if den != 1:
        num = Fraction(num, den)
    return num.numerator if num.denominator == 1 else num


def _whole(x):
    """A canonical ``x`` from a sum or product of canonical values: a
    whole Fraction becomes its int."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def rat_to_json(x):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(v):
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError(f"rationals must be integers or 'a/b' strings, got {v!r}")
    return exact(v)


def vec(values) -> tuple:
    return tuple(map(exact, values))


class Mat:
    """Dense exact rational matrix, row major, treated as immutable.  Its
    row-major nonzeros (``nonzero_rows``) are kept in one slot, given by
    the producer or read once from the entries; equality and hashing read
    the entries only."""

    __slots__ = ("rows", "cols", "entries", "_nz")

    def __init__(self, rows: int, cols: int, entries, nz=None):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._nz = nz

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(len(rows), ncols, [exact(x) for r in rows for x in r])

    @classmethod
    def from_cols(cls, cols) -> "Mat":
        return cls.from_rows(list(zip(*cols))) if cols else cls(0, 0, [])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def nonzero_rows(self) -> list:
        """The nonzeros of each row as ``(col, value)`` pairs in column
        order.  Computed once; callers must not modify it."""
        if self._nz is None:
            e, k = self.entries, self.cols
            self._nz = [[(j, x) for j, x in enumerate(e[b:b + k]) if x]
                        for b in range(0, self.rows * k, k)]
        return self._nz

    def transpose(self) -> "Mat":
        out = [0] * (self.rows * self.cols)
        nz = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows()):
            for j, x in row:
                out[j * self.rows + i] = x
                nz[j].append((i, x))
        return Mat(self.cols, self.rows, out, nz)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols,
                   [_whole(a + b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols,
                   [_whole(a - b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, s) -> "Mat":
        s = exact(s)
        return Mat(self.rows, self.cols, [_whole(s * a) for a in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.rows, other.cols, self.cols
        out = [0] * (n * m)
        # the nonzeros of each row of other, listed once
        orows = [[(j, b) for j, b in enumerate(other.row(t)) if b] for t in range(k)]
        for i in range(n):
            base = i * k
            obase = i * m
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    for j, b in orows[t]:
                        out[obase + j] += a * b
        return Mat(n, m, map(_whole, out))

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        # the nonzeros of v, listed once
        nz = [(j, x) for j, x in enumerate(v) if x]
        e, k = self.entries, self.cols
        out = []
        for i in range(self.rows):
            base = i * k
            s = 0
            for j, x in nz:
                a = e[base + j]
                if a:
                    s += a * x
            out.append(_whole(s))
        return tuple(out)

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
    """Sparse integer row ``{index: value}`` from ``(index, value)`` pairs
    (iterated more than once) times their least common denominator, same span;
    all-int pairs are the row as they are."""
    for _, v in pairs:
        if v.__class__ is not int:
            break
    else:
        return dict(pairs)
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
            x[c] = exact(-s, row[c])
    return tuple(x.get(j, 0) for j in range(n))


def _kernel_from_sparse_echelon(pivots, ncols):
    """Kernel basis in reduced echelon-normal form: for each free column
    f < ncols, the solution with 1 at f and 0 at the other free columns."""
    return tuple(_back_substitute(pivots, {f: 1}, ncols)
                 for f in range(ncols) if f not in pivots)


def _int_rows(m: Mat, extra=None):
    """Sparse integer rows of ``m``, row i extended by the pairs ``extra[i]``."""
    nz = m.nonzero_rows()
    return [_int_row(nz[i] + extra[i] if extra else nz[i]) for i in range(m.rows)]


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
        _int_rows(a, [[(n, -t)] if t else [] for t in vec(target)]))
    if n in pivots:
        return None
    return _back_substitute(pivots, {n: 1}, n), _kernel_from_sparse_echelon(pivots, n)


def mat_invertible(m: Mat):
    """Inverse of ``m`` or None if singular.  Non-square input is rejected."""
    if m.rows != m.cols:
        raise ValueError("mat_invertible requires a square matrix")
    n = m.rows
    # [m | -I] x' = 0 with x'[n + k] = 1 gives column k of the inverse
    pivots = _kernels.sparse_echelon(_int_rows(m, [[(n + i, -1)] for i in range(n)]))
    if any(c not in pivots for c in range(n)):
        return None
    cols = [_back_substitute(pivots, {n + k: 1}, n) for k in range(n)]
    return Mat(n, n, chain.from_iterable(zip(*cols)))


def rref_rows(vectors, ncols):
    """Canonical (reduced row echelon) basis of the span of ``vectors``,
    dense sequences or ``{col: value}`` dicts: echelon form from the sparse
    kernel on rows cleared of denominators, then back-substitution from the
    last pivot up to pivot 1.  Returns (rows, pivots); rows are dicts in
    column order for dict input, else dense tuples of length ``ncols``, and
    their entries are canonical (``exact``): ints where whole."""
    vectors = list(vectors)
    reduced = _kernels.sparse_echelon(
        [r for r in (_int_row(_sparse(v).items()) for v in vectors) if r])
    pivots = sorted(reduced)
    done = {}
    for c in reversed(pivots):
        p = reduced[c][c]
        row = {j: exact(v, p) for j, v in reduced[c].items()}
        # a finished row holds no other pivot: clearing one refills none
        for k in [k for k in row if k != c and k in done]:
            f = row.pop(k)
            for j, x in done[k].items():
                if j != k:
                    v = row.get(j, 0) - f * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        done[c] = row
    # a Fraction difference may be whole
    rows = [{j: _whole(v) for j, v in sorted(done[c].items())} for c in pivots]
    if vectors and not isinstance(vectors[0], dict):
        rows = [tuple(r.get(j, 0) for j in range(ncols)) for r in rows]
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
    the rows leaves no residual.  Only nonzeros are touched, and a
    coordinate is the vector's own entry, so canonical vectors (``exact``)
    get canonical coordinates."""

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
        """The nonzero coordinates ``{k: a}`` of v in the basis, or None if
        v is outside the span."""
        v = _sparse(v)
        out = {}
        rest = dict(v)
        for c, a in v.items():
            k = self._at.get(c)
            if k is not None:
                out[k] = a
                del rest[c]
                for j, x in self._tails[k]:
                    r = rest.get(j, 0) - a * x
                    if r:
                        rest[j] = r
                    else:
                        rest.pop(j, None)
        return None if rest else out


class LinMat:
    """Matrix of linear forms M(x) = sum_i x_i * coeff[i], all shapes equal."""

    __slots__ = ("n", "rows", "cols", "coeff", "_int_rows", "_transpose")

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
        self._int_rows = None
        self._transpose = None

    def evaluate(self, v) -> Mat:
        """M(v), summed over the nonzero entries of each coefficient."""
        v = vec(v)
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        out = [0] * (self.rows * self.cols)
        for x, m in zip(v, self.coeff):
            if x:
                for t, a in enumerate(m.entries):
                    if a:
                        out[t] += x * a
        return Mat(self.rows, self.cols, map(_whole, out))

    def int_rows(self):
        """``(d, rows)``: ``d`` is the least common denominator of all
        coefficients, and ``rows[k][r]`` lists the nonzeros of row r of
        ``coeff[k]`` as int pairs ``(j, d * coeff[k][r, j])``.  Computed
        once, since a LinMat is immutable; callers must not modify it."""
        if self._int_rows is None:
            nz = [m.nonzero_rows() for m in self.coeff]
            dens = [v.denominator for rows in nz for row in rows for _, v in row
                    if v.__class__ is not int]
            if not dens:
                self._int_rows = 1, nz
            else:
                den = reduce(lcm, dens, 1)
                self._int_rows = den, [
                    [[(j, v.numerator * (den // v.denominator)) for j, v in row]
                     for row in rows] for rows in nz]
        return self._int_rows

    def transpose(self) -> "LinMat":
        """The transposed matrix, computed once.  It keeps no link back, so
        the two make no reference cycle."""
        if self._transpose is None:
            self._transpose = LinMat(self.n, [m.transpose() for m in self.coeff])
        return self._transpose

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
        coeffs = list(map(exact, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, t):
        acc = 0
        t = exact(t)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return _whole(acc)

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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    def scale(self, s) -> "UniPoly":
        s = exact(s)
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
    return p.scale(exact(1, factorial(k)))


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


def mult_map_rank(lm: LinMat, t: int) -> int:
    """Rank of multiplication by ``lm`` from (degree t-1 forms)^cols to
    (degree t forms)^rows, monomials in ``monomials`` order; t <= 0 gives
    an empty domain and rank 0.

    The rank is taken on the domain side, the transposed matrix: one
    sparse integer row per domain column (mu, j), whose entry at codomain
    row (nu, r), nu = mu + e_k, is the single coefficient
    ``lm.coeff[k][r, j]``, all scaled by one common denominator.  For a
    factorization map, psi phi = q Id (and phi^T psi^T = q Id) makes phi
    and phi^T injective over the polynomial ring, so these rows are
    independent and often reach ``_kernels.sparse_rank`` already in
    echelon form; the codomain side would add rows * (df(t) - df(t-1))
    rows, df(d) the monomial count, only to reduce them to zero.
    """
    if t <= 0:
        return 0
    n, R = lm.n, lm.rows
    _, nz = lm.transpose().int_rows()
    # the nonzeros (k, r, value) of each nonzero column j of the coefficients
    cols = [c for c in ([(k, r, v) for k in range(n) for r, v in nz[k][j]]
                        for j in range(lm.cols)) if c]
    cod_idx = {nu: i for i, nu in enumerate(monomials(n, t))}
    rows = []
    for mu in monomials(n, t - 1):
        # offset of the row block of mu + e_k, for each k
        base = [cod_idx[mu[:k] + (mu[k] + 1,) + mu[k + 1:]] * R for k in range(n)]
        rows += [{base[k] + r: v for k, r, v in col} for col in cols]
    return _kernels.sparse_rank(rows)
