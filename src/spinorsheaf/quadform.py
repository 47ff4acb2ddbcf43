"""Quadratic and bilinear form bookkeeping.

Convention: q(v) = b(v, v), so the Gram matrix stores b and the polynomial
q = x0*x3 encodes the off-diagonal entry 1/2.  The radical K is the kernel
of the Gram matrix; an isotropic subspace has b identically zero on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import isqrt, lcm

from .errors import PreconditionError, SchemaError, StandardizationUnavailable
from .exactalg import (
    IncrementalSpan,
    Mat,
    SpanSolver,
    _int_vec,
    _whole,
    exact,
    mat_invertible,
    mat_rank,
    mat_rank_kernel,
    mat_solve,
    rref_rows,
    vec,
)


class QuadraticSpace:
    """A rational vector space with a symmetric bilinear form of rank >= 2."""

    __slots__ = ("n", "gram", "_den", "_int_nz", "_rank", "_radical", "_clifford")

    def __init__(self, gram: Mat):
        if gram.rows != gram.cols:
            raise SchemaError("gram matrix must be square")
        if gram != gram.transpose():
            raise SchemaError("gram matrix must be symmetric")
        self.n = gram.rows
        self.gram = gram
        # the form on integer rows: _int_nz is the Gram's nonzeros times _den,
        # the least common denominator of its entries
        self._den = reduce(lcm, (x.denominator for row in gram.nz for _, x in row), 1)
        self._int_nz = [[(j, x.numerator * (self._den // x.denominator)) for j, x in row]
                        for row in gram.nz]
        self._rank = mat_rank(gram)
        if self._rank < 2:
            raise SchemaError("quadratic form must have rank at least 2")
        self._radical = None
        self._clifford = None

    @property
    def rank(self) -> int:
        return self._rank

    def b(self, v, w):
        """b(v, w), summed in ints on the integer Gram rows and both
        vectors cleared of denominators, with one ``exact`` division."""
        if len(v) != self.n or len(w) != self.n:
            raise PreconditionError("vector length mismatch")
        v, dv = _int_vec(v)
        w, dw = (v, dv) if w is v else _int_vec(w)
        s = 0
        for a, row in zip(v, self._int_nz):
            if a:
                t = 0
                for j, g in row:
                    c = w[j]
                    if c:
                        t += g * c
                if t:
                    s += a * t
        return exact(s, self._den * dv * dw)

    def q(self, v):
        return self.b(v, v)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def __eq__(self, other):
        return isinstance(other, QuadraticSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"QuadraticSpace(n={self.n}, rank={self._rank})"


class Subspace:
    """A subspace given by linearly independent column vectors."""

    __slots__ = ("ambient", "basis", "_rows", "_solver")

    def __init__(self, ambient: QuadraticSpace, basis):
        basis = tuple(vec(v) for v in basis)
        for v in basis:
            if len(v) != ambient.n:
                raise SchemaError("basis vector length does not match ambient")
        # the canonical rows, as {col: value} dicts of nonzeros
        rows, pivots = rref_rows(
            [{j: x for j, x in enumerate(v) if x} for v in basis], ambient.n
        ) if basis else ([], [])
        if len(rows) != len(basis):
            raise SchemaError("subspace basis vectors must be independent")
        self.ambient = ambient
        self.basis = basis
        self._rows = rows
        self._solver = SpanSolver(rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        return self._solver.coords(vec(v)) is not None

    def same_span(self, other: "Subspace") -> bool:
        return self._rows == other._rows

    def __repr__(self):
        return f"Subspace(dim={self.dim} of n={self.ambient.n})"


def radical_basis(space: QuadraticSpace) -> Subspace:
    """The kernel K of the form; dim K = n - rank(q).  The space caches the
    kernel vectors, not the Subspace, which would refer back to it."""
    if space._radical is None:
        space._radical = mat_rank_kernel(space.gram)[1]
    return Subspace(space, space._radical)


def check_isotropic(space: QuadraticSpace, w: Subspace) -> bool:
    """True iff b vanishes on all pairs of basis vectors of w."""
    if w.ambient is not space and w.ambient != space:
        raise PreconditionError("subspace belongs to a different space")
    for i, vi in enumerate(w.basis):
        for vj in w.basis[i:]:
            if space.b(vi, vj) != 0:
                return False
    return True


def _combination(coeffs, vectors, n) -> tuple:
    """sum_t coeffs[t] * vectors[t], a vector of length n; the coefficients
    beyond the last vector are ignored."""
    v = [0] * n
    for c, col in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(col):
                v[i] += c * x
    return tuple(map(_whole, v))


def sub_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if a.ambient != b.ambient:
        raise PreconditionError("ambient mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient, [])
    cols = list(a.basis) + list(b.basis)
    m = Mat.from_cols(cols)
    _, kernel = mat_rank_kernel(m)
    # the first a.dim coordinates of a kernel vector combine a's basis
    vectors = [_combination(k, a.basis, a.ambient.n) for k in kernel]
    rows, _ = rref_rows(vectors, a.ambient.n) if vectors else ([], [])
    return Subspace(a.ambient, rows)


def sub_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise PreconditionError("ambient mismatch")
    rows, _ = rref_rows(list(a.basis) + list(b.basis), a.ambient.n)
    return Subspace(a.ambient, rows)


def isotropic_type(space: QuadraticSpace, w: Subspace) -> tuple:
    """(j, k, l) of an isotropic w: j = dim pi(w), its image in V/K;
    k = rank(q) // 2, the Witt bound on j; l = dim (w cap K)."""
    l = sub_intersection(w, radical_basis(space)).dim
    return w.dim - l, space.rank // 2, l


def candidate_vectors(space: QuadraticSpace):
    """The vectors that searches over (V, q) try, in order: each e_i, then
    e_i + e_j and e_i - e_j for each i < j.  The order fixes the sample
    points, the group elements and the shift witness that reports show."""
    basis = [space.basis_vector(i) for i in range(space.n)]
    yield from basis
    for x, y in combinations(basis, 2):
        yield tuple(a + b for a, b in zip(x, y))
        yield tuple(a - b for a, b in zip(x, y))


class QuotientSpace:
    """V / modded with a chosen section; requires modded inside the radical
    so the form descends."""

    __slots__ = ("source", "modded", "section", "projection", "space")

    def __init__(self, source, modded, section, projection, space):
        self.source = source
        self.modded = modded
        self.section = section
        self.projection = projection
        self.space = space

    def project(self, v) -> tuple:
        return self.projection.mul_vec(vec(v))


def quotient_space(space: QuadraticSpace, modded: Subspace) -> QuotientSpace:
    """Form V/modded. The section picks the standard coordinates not pivoted
    by modded, so projection . section = identity."""
    rad = radical_basis(space)
    for v in modded.basis:
        if not rad.contains(v):
            raise PreconditionError("modded subspace must lie in the radical")
    d = modded.dim
    n = space.n
    _, pivots = rref_rows(modded.basis, n) if modded.basis else ([], [])
    pivot_set = set(pivots)
    free_positions = [i for i in range(n) if i not in pivot_set]
    section_cols = [space.basis_vector(i) for i in free_positions]
    basis_change = Mat.from_cols(list(modded.basis) + section_cols)
    inv = _invert_or_die(basis_change)
    projection = Mat.from_nonzeros(n - d, n, inv.nz[d:])
    section = Mat.from_cols(section_cols)
    induced = section.transpose() @ space.gram @ section
    quotient = QuadraticSpace(induced)
    if quotient.rank != space.rank:
        raise PreconditionError("induced form lost rank; modded not radical")
    return QuotientSpace(space, modded, section, projection, quotient)


def _invert_or_die(m: Mat) -> Mat:
    inv = mat_invertible(m)
    if inv is None:
        raise PreconditionError("expected an invertible change of basis")
    return inv


class StdProfile:
    """Positions of the normal-form blocks after standardization."""

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


class Standardization:
    """Result of standardize(): new basis, change of basis and profile."""

    __slots__ = ("source", "w", "new_basis", "change", "inverse", "space_std",
                 "w_std", "profile")

    def __init__(self, source, w, new_basis, change, inverse, space_std, w_std, profile):
        self.source = source
        self.w = w
        self.new_basis = new_basis
        self.change = change
        self.inverse = inverse
        self.space_std = space_std
        self.w_std = w_std
        self.profile = profile


def _rational_sqrt(x):
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return exact(rn, rd)
    return None


def line_roots(qa, bab, qb) -> list:
    """The rational roots t of qa + bab t + qb t^2 = 0, ascending: where the
    line a + t b meets the quadric, with qa = q(a), bab = 2 b(a, b) and
    qb = q(b).  For qb = 0 the equation is linear; for qb = bab = 0 no root
    is given, even when every t is one."""
    if qb == 0:
        return [exact(-qa, bab)] if bab != 0 else []
    root = _rational_sqrt(bab * bab - 4 * qb * qa)
    if root is None:
        return []
    return sorted({exact(-bab - root, 2 * qb), exact(-bab + root, 2 * qb)})


def _solve_partner(space, constraints, rhs):
    rows = [space.gram.mul_vec(c) for c in constraints]
    sol = mat_solve(Mat.from_rows(rows), rhs)
    if sol is None:
        raise StandardizationUnavailable("no dual partner solves the pairing system")
    return sol[0]


def _isotropic_in(space, cols):
    """Deterministic search for an isotropic, non-radical vector in the span
    of cols (with the restricted form).  Returns the vector or None."""
    m = len(cols)
    sub_gram = Mat.from_rows(
        [[space.b(cols[i], cols[j]) for j in range(m)] for i in range(m)]
    )

    def non_radical(coords):
        return not all(x == 0 for x in sub_gram.mul_vec(coords))

    for i in range(m):
        coords = tuple(1 if t == i else 0 for t in range(m))
        if sub_gram[i, i] == 0 and non_radical(coords):
            return _combination(coords, cols, space.n)
    for i in range(m):
        for j in range(i + 1, m):
            # the points c_i + t c_j of the quadric
            for t in line_roots(sub_gram[i, i], 2 * sub_gram[i, j], sub_gram[j, j]):
                coords = tuple(
                    1 if s == i else (t if s == j else 0)
                    for s in range(m)
                )
                if non_radical(coords):
                    return _combination(coords, cols, space.n)
    return None


def _orthogonal_complement(space, vectors):
    """Basis of the subspace orthogonal to all of ``vectors``."""
    rows = [space.gram.mul_vec(v) for v in vectors]
    _, kernel = mat_rank_kernel(Mat.from_rows(rows))
    return list(kernel)


def standardize(space: QuadraticSpace, w: Subspace):
    """Hyperbolic standardization adapted to the isotropic subspace w.

    Produces a basis in which q = sum_i x_{a_i} x_{b_i} (+ c x0^2 in odd
    rank) with b(a_i, b_i) = 1/2, w spanned by the leading tail positions
    followed by radical positions.  Raises StandardizationUnavailable when
    the leftover form admits no rational hyperbolic completion.
    """
    if not check_isotropic(space, w):
        raise PreconditionError("standardize requires an isotropic subspace")
    n = space.n
    rank = space.rank
    k = rank // 2
    rad = radical_basis(space)
    w_cap_k = sub_intersection(w, rad)
    l = w_cap_k.dim
    j = w.dim - l

    # complement of w∩K inside w, giving representatives of pi(w)
    span = IncrementalSpan(w_cap_k.basis)
    w_part = [v for v in w.basis if span.add(v)]
    if len(w_part) != j:
        raise PreconditionError("could not split w against the radical")
    if j > k:
        raise PreconditionError("isotropic projection exceeds the Witt bound")

    a_vecs = []
    b_vecs = list(w_part)
    for t in range(j):
        constraints = b_vecs[:j] + a_vecs
        rhs = [Fraction(1, 2) if i == t else 0 for i in range(j)] + [0] * len(a_vecs)
        u = _solve_partner(space, constraints, rhs)
        qu = space.q(u)
        if qu:
            u = vec(x - qu * y for x, y in zip(u, b_vecs[t]))
        a_vecs.append(u)

    # hyperbolically complete the orthogonal complement of the pairs so far
    comp = _orthogonal_complement(space, a_vecs + b_vecs[:j]) if j else None
    cols = comp if comp is not None else [space.basis_vector(i) for i in range(n)]
    while True:
        sub_rank = mat_rank(
            Mat.from_rows([[space.b(u, v) for v in cols] for u in cols])
        ) if cols else 0
        if sub_rank <= 1:
            break
        iso = _isotropic_in(space, cols)
        if iso is None:
            raise StandardizationUnavailable(
                "no rational isotropic vector found in the leftover form"
            )
        # partner inside the complement span
        giso = space.gram.mul_vec(iso)
        proj = [sum(giso[i] * c[i] for i in range(n)) for c in cols]
        sol = mat_solve(Mat.from_rows([proj]), (Fraction(1, 2),))
        if sol is None:
            raise StandardizationUnavailable("no dual partner in the leftover form")
        u = _combination(sol[0], cols, n)
        qu = space.q(u)
        if qu:
            u = vec(x - qu * y for x, y in zip(u, iso))
        a_vecs.append(u)
        b_vecs.append(iso)
        cols = _orthogonal_complement(space, a_vecs + b_vecs)

    diag_vec = None
    if rank % 2 == 1:
        for cvec in cols:
            if space.q(cvec) != 0:
                diag_vec = cvec
                break
        if diag_vec is None:
            raise StandardizationUnavailable("odd-rank leftover has no anisotropic vector")
        cols = _orthogonal_complement(space, a_vecs + b_vecs + [diag_vec])

    # leftover must now be exactly the radical
    span = IncrementalSpan(w_cap_k.basis)
    rad_basis = list(w_cap_k.basis) + [v for v in rad.basis if span.add(v)]
    if len(rad_basis) != rad.dim:
        raise PreconditionError("radical completion failed")

    new_basis = []
    diag_index = None
    diag_value = None
    if diag_vec is not None:
        diag_index = 0
        diag_value = space.q(diag_vec)
        new_basis.append(diag_vec)
    offset = len(new_basis)
    a_positions = list(range(offset, offset + k))
    b_positions = list(range(offset + k, offset + 2 * k))
    new_basis.extend(a_vecs)
    new_basis.extend(b_vecs)
    radical_positions = list(range(offset + 2 * k, offset + 2 * k + len(rad_basis)))
    new_basis.extend(rad_basis)
    if len(new_basis) != n:
        raise StandardizationUnavailable("standardization produced a defective basis")

    profile = StdProfile(
        n, rank, k, j, diag_index, diag_value,
        a_positions, b_positions, radical_positions, l,
    )
    change = Mat.from_cols(new_basis)
    inverse = _invert_or_die(change)
    gram_std = change.transpose() @ space.gram @ change
    if gram_std != profile.normal_gram():
        raise StandardizationUnavailable("completed basis is not in normal form")
    space_std = QuadraticSpace(gram_std)
    w_std = Subspace(
        space_std, [space_std.basis_vector(i) for i in profile.w_positions]
    )
    # the coordinates of w in the new basis must span the same subspace
    w_coords = Subspace(space_std, [inverse.mul_vec(v) for v in w.basis])
    if not w_coords.same_span(w_std):
        raise PreconditionError("w is not tail-positioned after standardization")
    return Standardization(space, w, tuple(new_basis), change, inverse,
                           space_std, w_std, profile)

