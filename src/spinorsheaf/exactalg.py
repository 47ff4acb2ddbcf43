"""Exact rational linear algebra: matrices stored as their row-major
nonzeros, matrices of linear forms and univariate polynomials.

Every scalar is an exact rational, never a float or a bool, and every
operation is a deterministic function of its inputs, so identical inputs
give bit-identical outputs.  An exact rational is an int when it is whole
and a Fraction otherwise: the canonical form.  ``exact`` is the one
constructor of a rational and returns that form; ``vec``, the dense
``Mat`` constructor and ``UniPoly`` read their entries through it.  Every
producer keeps the form: products and sums (``@``, ``mul_vec``,
``LinMat.evaluate``), the canonical span bases (``rref_rows``) and the
coordinates in them (``SpanSolver``), kernels, solutions and inverses.
So an integral form carries its Clifford products, module bases, action
matrices and Hom pairs as ints.  A quotient is ``exact(a, b)``: ``a / b``
of two ints is a float.

Every elimination is the sparse leftmost-pivot kernel of ``_kernels`` on
integer rows cleared of denominators: the canonical span bases
(``rref_rows``), the spans grown one vector at a time (``IncrementalSpan``),
the multiplication-map ranks (``mult_map_rank``) and the matrix routines
``mat_rank``, ``mat_rank_kernel``, ``mat_solve`` and ``mat_invertible``.
One back-reduction, ``_rref``, gives the reduced form, and the span bases,
kernel vectors, solutions and inverses are all read off its rows.  Rows
already reduced up to scale need no elimination: when their leading columns
are distinct and no row is nonzero at another row's leading column, as the
words e_M g of an ideal module almost always are, ``rref_rows`` divides
each row by its leading entry.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
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
    """Exact rational matrix, treated as immutable, stored as its row-major
    nonzeros only: ``nz[i]`` lists row i as ``(col, value)`` pairs in
    column order, each value canonical (``exact``), one list per row
    whoever built it, so equal matrices compare and hash alike.  Products,
    sums, checks and eliminations read ``nz``; ``entries``, ``row``,
    ``col`` and ``m[i, j]`` are read off it for reports, printing, tests
    and the n x n form work of ``quadform``."""

    __slots__ = ("rows", "cols", "nz")

    def __init__(self, rows: int, cols: int, entries):
        """The matrix of the dense row-major ``entries``."""
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.rows = rows
        self.cols = cols
        self.nz = [[(j, x) for j, x in enumerate(map(exact, entries[i * cols:(i + 1) * cols]))
                    if x] for i in range(rows)]

    @classmethod
    def from_nonzeros(cls, rows: int, cols: int, nz) -> "Mat":
        """The matrix of the row-major nonzeros ``nz``, taken as they are:
        a list per row of canonical ``(col, value)`` pairs in column order."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.nz = rows, cols, nz
        return m

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def from_cols(cls, cols) -> "Mat":
        return cls.from_rows(list(zip(*cols))) if cols else cls(0, 0, [])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls.from_nonzeros(n, n, [[(i, 1)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls.from_nonzeros(rows, cols, [[] for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        row = self.nz[i]
        k = bisect_left(row, (j,))
        return row[k][1] if k < len(row) and row[k][0] == j else 0

    def row(self, i: int) -> tuple:
        out = [0] * self.cols
        for j, x in self.nz[i]:
            out[j] = x
        return tuple(out)

    def col(self, j: int) -> tuple:
        return tuple(self[i, j] for i in range(self.rows))

    @property
    def entries(self) -> tuple:
        """The dense row-major entries."""
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def transpose(self) -> "Mat":
        nz = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for j, x in row:
                nz[j].append((i, x))
        return Mat.from_nonzeros(self.cols, self.rows, nz)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = []
        for a, b in zip(self.nz, other.nz):
            acc = dict(a)
            for j, x in b:
                acc[j] = acc.get(j, 0) + x
            out.append(_sorted_row(acc))
        return Mat.from_nonzeros(self.rows, self.cols, out)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        return Mat.from_nonzeros(self.rows, self.cols,
                                 [[(j, -x) for j, x in row] for row in self.nz])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        onz = other.nz
        out = []
        for row in self.nz:
            acc = {}
            for t, a in row:
                for j, b in onz[t]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_sorted_row(acc))
        return Mat.from_nonzeros(self.rows, other.cols, out)

    def mul_vec(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.nz:
            s = 0
            for j, a in row:
                x = v[j]
                if x:
                    s += a * x
            out.append(s if s.__class__ is int else _whole(s))
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nz == other.nz
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.nz))))

    def __repr__(self):
        e, k = self.entries, self.cols
        body = "; ".join(" ".join(map(str, e[i * k:(i + 1) * k])) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"


def _sorted_row(acc) -> list:
    """The nonzeros of a ``{col: value}`` accumulator of sums and products
    of canonical values, canonical and in column order."""
    return sorted((j, _whole(x)) for j, x in acc.items() if x)


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


def _int_vec(v):
    """``(ints, d)``: the entries of ``v`` times their least common
    denominator ``d``, as ints; an all-int ``v`` is ``(v, 1)`` as it is."""
    for x in v:
        if x.__class__ is not int:
            break
    else:
        return v, 1
    d = reduce(lcm, (x.denominator for x in v), 1)
    return [x.numerator * (d // x.denominator) for x in v], d


def _sparse(v) -> dict:
    """``v`` as ``{col: value}``; a dict is taken to hold nonzeros only."""
    return v if isinstance(v, dict) else {j: x for j, x in enumerate(v) if x}


def _int_rows(m: Mat, extra=None):
    """Sparse integer rows of ``m``, row i extended by the pairs ``extra[i]``."""
    nz = m.nz
    return [_int_row(nz[i] + extra[i] if extra else nz[i]) for i in range(m.rows)]


def _rref(rows):
    """The reduced row echelon form of sparse integer rows ``{col: value}``
    (consumed), as ``{pivot: row}`` in pivot order, rows canonical and in
    column order.  From the last pivot of ``_kernels.sparse_echelon`` up,
    each pivot row is divided by its pivot entry and the later pivots are
    cleared out of it."""
    form = _kernels.sparse_echelon(rows)
    pivots = sorted(form)
    done = {}
    for c in reversed(pivots):
        p = form[c][c]
        row = {j: exact(v, p) for j, v in form[c].items()}
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
    return {c: {j: _whole(v) for j, v in sorted(done[c].items())} for c in pivots}


def mat_rank_kernel(m: Mat):
    """Rank and the kernel basis of ``m`` in reduced form: for each free
    column f, the vector with 1 at f, 0 at the other free columns and
    -R_c[f] at each pivot c, R_c the reduced row of c."""
    reduced = _rref(_int_rows(m))
    kernel = {f: [0] * f + [1] + [0] * (m.cols - f - 1)
              for f in range(m.cols) if f not in reduced}
    for c, row in reduced.items():
        for f, v in row.items():
            if f != c:
                kernel[f][c] = -v
    return len(reduced), tuple(map(tuple, kernel.values()))


def mat_rank(m: Mat) -> int:
    return _kernels.sparse_rank(_int_rows(m))


def mat_solve(a: Mat, target):
    """The solution of a x = target that is 0 at every free column, or None
    if the system is inconsistent: [a | target] reduced, x_c is the last
    entry of the row of pivot c."""
    if len(target) != a.rows:
        raise ValueError("target length mismatch")
    n = a.cols
    reduced = _rref(_int_rows(a, [[(n, t)] if t else [] for t in vec(target)]))
    if n in reduced:
        return None
    return tuple(reduced[c].get(n, 0) if c in reduced else 0 for c in range(n))


def mat_invertible(m: Mat):
    """Inverse of ``m`` or None if singular: [m | I] reduced to [I | m^-1].
    Non-square input is rejected."""
    if m.rows != m.cols:
        raise ValueError("mat_invertible requires a square matrix")
    n = m.rows
    reduced = _rref(_int_rows(m, [[(n + i, 1)] for i in range(n)]))
    if any(c not in reduced for c in range(n)):
        return None
    return Mat.from_nonzeros(n, n, [[(j - n, v) for j, v in reduced[c].items() if j != c]
                                    for c in range(n)])


def rref_rows(vectors, ncols):
    """Canonical (reduced row echelon) basis of the span of ``vectors``,
    dense sequences or ``{col: value}`` dicts.  Returns (rows, pivots);
    rows are dicts in column order for dict input, else dense tuples of
    length ``ncols``, and their entries are canonical (``exact``): ints
    where whole.

    Nonzero rows with distinct leading columns, none of them nonzero at
    another row's leading column, are already in reduced echelon form up
    to scale: each is divided once by its leading entry and no elimination
    runs.  Other input is reduced by ``_rref`` on rows cleared of
    denominators.  The reduced form is unique, so both routes give the
    same rows."""
    vectors = list(vectors)
    nonzero = [r for r in map(_sparse, vectors) if r]
    leads = {min(r): r for r in nonzero}
    if len(leads) == len(nonzero) and all(j == c or j not in leads
                                          for c, r in leads.items() for j in r):
        pivots = sorted(leads)
        rows = [{j: exact(v, r[c]) for j, v in sorted(r.items())}
                for c, r in sorted(leads.items())]
    else:
        reduced = _rref([_int_row(r.items()) for r in nonzero])
        rows, pivots = list(reduced.values()), list(reduced)
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
    coordinate is the vector's own entry, made canonical (``exact``).
    Every read goes through ``columns``, which fills the row-major
    nonzeros of several matrices from their column images in one sweep;
    ``coords`` is one column of one matrix."""

    def __init__(self, rref, pivots):
        self.pivots = list(pivots)
        self._at = at = {c: k for k, c in enumerate(self.pivots)}
        self._tails = []
        for r, c in zip(map(_sparse, rref), self.pivots):
            # 1 at its own pivot, and no other pivot
            if r.get(c) != 1 or len(r.keys() & at.keys()) != 1:
                raise ValueError("span rows must be in reduced row echelon form")
            self._tails.append([(j, x) for j, x in r.items() if j != c])

    def columns(self, images, nzs):
        """Fill the row-major nonzeros of several matrices in one sweep.
        ``images`` gives one sequence per column c, whose entry i, a
        ``{col: value}`` dict of nonzeros, is column c of matrix i; its
        coordinates go to ``nzs[i]`` (``nzs[i][k]`` the list of basis row
        k) as column c, canonical (``exact``).  Returns the first image
        outside the span, or None.

        The residual of an image is its part off the pivots less a * tail
        for each coordinate a, since a row's tail holds no pivot.  It is
        only allocated once an image has a term off the pivots or reads a
        row with a tail."""
        at, tails = self._at, self._tails
        for c, column in enumerate(images):
            for v, nz in zip(column, nzs):
                rest = None
                for j, a in v.items():
                    k = at.get(j)
                    if k is None:
                        if rest is None:
                            rest = {}
                        rest[j] = rest.get(j, 0) + a
                    else:
                        nz[k].append((c, a if a.__class__ is int else _whole(a)))
                        tail = tails[k]
                        if tail:
                            if rest is None:
                                rest = {}
                            for t, x in tail:
                                rest[t] = rest.get(t, 0) - a * x
                if rest and any(rest.values()):
                    return v
        return None

    def coords(self, v):
        """The nonzero coordinates ``{k: a}`` of v in the basis, or None if
        v is outside the span: one column of ``columns``, on the rows it
        touches."""
        col = defaultdict(list)
        if self.columns([[_sparse(v)]], [col]) is not None:
            return None
        return {k: row[0][1] for k, row in col.items()}


class LinMat:
    """Matrix of linear forms M(x) = sum_i x_i * coeff[i], all shapes equal."""

    __slots__ = ("n", "rows", "cols", "coeff", "_int_rows")

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

    def evaluate(self, v) -> Mat:
        """M(v), summed row by row over the nonzeros of each coefficient."""
        v = vec(v)
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        acc = [{} for _ in range(self.rows)]
        for x, m in zip(v, self.coeff):
            if x:
                for row, nz in zip(acc, m.nz):
                    for j, a in nz:
                        row[j] = row.get(j, 0) + x * a
        return Mat.from_nonzeros(self.rows, self.cols, list(map(_sorted_row, acc)))

    def int_rows(self):
        """``(d, rows)``: ``d`` is the least common denominator of all
        coefficients, and ``rows[k][r]`` lists the nonzeros of row r of
        ``coeff[k]`` as int pairs ``(j, d * coeff[k][r, j])``.  Computed
        once, since a LinMat is immutable; callers must not modify it."""
        if self._int_rows is None:
            nz = [m.nz for m in self.coeff]
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
        """The transposed matrix, each coefficient transposed."""
        return LinMat(self.n, [m.transpose() for m in self.coeff])

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

    __slots__ = ("coeffs", "_cleared")

    def __init__(self, coeffs):
        coeffs = list(map(exact, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self._cleared = None

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __call__(self, t):
        """p(t) by Horner's rule on the coefficients cleared once of their
        common denominator d, all in ints at an integer t, and one
        ``exact`` division by d."""
        if self._cleared is None:
            self._cleared = _int_vec(self.coeffs[::-1])
        cleared, d = self._cleared
        t, acc = exact(t), 0
        for c in cleared:
            acc = acc * t + c
        return exact(acc, d)

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
    # the nonzeros (k, r, value) of each column j of the coefficients,
    # k outermost and then r ascending
    by_col = [[] for _ in range(lm.cols)]
    for k, coeff_rows in enumerate(lm.int_rows()[1]):
        for r, row in enumerate(coeff_rows):
            for j, v in row:
                by_col[j].append((k, r, v))
    return _domain_side_rank(by_col, lm.n, lm.rows, t)


def transposed_mult_map_rank(lm: LinMat, t: int) -> int:
    """``mult_map_rank(lm.transpose(), t)`` with no transpose built:
    column r of lm^T is row r of lm, so its nonzeros (k, j, value) are read
    off ``lm.int_rows()`` row by row, k outermost and then j ascending,
    the same rows in the same order."""
    int_rows = lm.int_rows()[1]
    by_row = [[(k, j, v) for k in range(lm.n) for j, v in int_rows[k][r]]
              for r in range(lm.rows)]
    return _domain_side_rank(by_row, lm.n, lm.cols, t)


def _domain_side_rank(by_col, n: int, R: int, t: int) -> int:
    """The rank of ``mult_map_rank`` from the nonzeros ``(k, r, value)``
    of each domain column, grouped: one row per nonempty column and
    degree-(t-1) monomial mu, with the value at codomain row (mu + e_k, r)
    of R rows per monomial."""
    if t <= 0:
        return 0
    cols = [c for c in by_col if c]
    cod_idx = {nu: i for i, nu in enumerate(monomials(n, t))}
    rows = []
    for mu in monomials(n, t - 1):
        # offset of the row block of mu + e_k, for each k
        base = [cod_idx[mu[:k] + (mu[k] + 1,) + mu[k + 1:]] * R for k in range(n)]
        rows += [{base[k] + r: v for k, r, v in col} for col in cols]
    return _kernels.sparse_rank(rows)
