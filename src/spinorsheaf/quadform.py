"""Quadratic and bilinear form bookkeeping.

Convention: q(v) = b(v, v), so the Gram matrix stores b and the polynomial
q = x0*x3 encodes the off-diagonal entry 1/2.  The radical K is the kernel
of the Gram matrix; an isotropic subspace has b identically zero on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

from .errors import InvariantError, PreconditionError, SchemaError
from .exactalg import (
    IncrementalSpan,
    Mat,
    SpanSolver,
    _int_vec,
    _whole,
    exact,
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


def anisotropic_orthogonal(space: QuadraticSpace, v):
    """An int vector h with b(h, v) = 0 and q(h) != 0, or None when b
    vanishes on v^perp; ``PreconditionError`` for v in the radical K.

    With c_k = b(v, e_k), cleared of denominators, and a the first index
    with c_a != 0, the n - 1 vectors y_k = c_a e_k - c_k e_a, k != a, are
    orthogonal to v and independent, so they span v^perp.  The search
    tries each y_k, then each sum y_k + y_l, k < l, reading b(y_k, y_l)
    off the integer Gram rows.  It is complete: once every q(y_k) is 0,
    q(y_k + y_l) = 2 b(y_k, y_l), and if all of these vanish too, b is
    zero on v^perp.  For an isotropic v outside K, the radical of q on
    v^perp is K + <v>, so q there has rank rank(q) - 2, and on a form of
    rank >= 3 the search always finds an h."""
    if len(v) != space.n:
        raise PreconditionError("vector length mismatch")
    v, _ = _int_vec(v)
    gram = [dict(row) for row in space._int_nz]
    c = [sum(g * v[j] for j, g in row.items()) for row in gram]
    a = next((k for k, x in enumerate(c) if x), None)
    if a is None:
        raise PreconditionError("v lies in the radical, where v^perp is all of V")
    ca, ga = c[a], gram[a]

    def b(k, l):
        return (ca * ca * gram[k].get(l, 0) - ca * c[l] * ga.get(k, 0)
                - ca * c[k] * ga.get(l, 0) + c[k] * c[l] * ga.get(a, 0))

    others = [k for k in range(space.n) if k != a]
    pair = next(((k, k) for k in others if b(k, k)), None) or next(
        ((k, l) for k, l in combinations(others, 2) if b(k, l)), None)
    if pair is None:
        return None
    h = [0] * space.n
    for k in set(pair):
        h[k] = ca
        h[a] -= c[k]
    return tuple(h)


class QuotientSpace:
    """V / modded with a chosen section; ``quotient_space``, its one
    constructor, requires modded to lie in the radical so the form
    descends."""

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
    by modded, so projection . section = identity.  The projection is read
    off modded's reduced rows R_p: v less sum_p v_p R_p is 0 at every pivot
    p and equal to v modulo modded, so pi(v)_f = v_f - sum_p v_p R_p[f] at
    each free coordinate f."""
    rad = radical_basis(space)
    for v in modded.basis:
        if not rad.contains(v):
            raise PreconditionError("modded subspace must lie in the radical")
    d = modded.dim
    n = space.n
    rows, pivots = rref_rows(modded.basis, n) if modded.basis else ([], [])
    pivot_set = set(pivots)
    free_positions = [i for i in range(n) if i not in pivot_set]
    section_cols = [space.basis_vector(i) for i in free_positions]
    projection = Mat.from_nonzeros(n - d, n, [
        sorted([(f, 1)] + [(p, -r[f]) for p, r in zip(pivots, rows) if r[f]])
        for f in free_positions])
    section = Mat.from_cols(section_cols)
    induced = section.transpose() @ space.gram @ section
    # b(s + u, s' + u') = b(s, s') for u, u' in the radical: no rank is lost
    return QuotientSpace(space, modded, section, projection, QuadraticSpace(induced))


class Standardization:
    """The basis of V that ``standardize`` adapts to w, by its parts."""

    __slots__ = ("diag", "partners", "tails", "radical", "l")

    def __init__(self, diag, partners, tails, radical, l):
        self.diag = diag
        self.partners = partners
        self.tails = tails
        self.radical = radical
        self.l = l

    @property
    def basis(self) -> tuple:
        """diag (odd rank only), the partners, the tails, then the radical."""
        head = () if self.diag is None else (self.diag,)
        return head + self.partners + self.tails + self.radical


def _solve_partner(space, constraints, rhs):
    rows = [space.gram.mul_vec(c) for c in constraints]
    sol = mat_solve(Mat.from_rows(rows), rhs)
    if sol is None:
        raise InvariantError("no dual partner solves the pairing system")
    return sol


def _orthogonal_complement(space, vectors):
    """Basis of the subspace orthogonal to all of ``vectors``."""
    rows = [space.gram.mul_vec(v) for v in vectors]
    _, kernel = mat_rank_kernel(Mat.from_rows(rows))
    return list(kernel)


def standardize(space: QuadraticSpace, w: Subspace) -> Standardization:
    """Hyperbolic standardization adapted to an isotropic w with pi(w)
    maximal, dim pi(w) = k = rank(q) // 2; any other w raises
    PreconditionError.

    The parts of the returned basis: in odd rank an anisotropic vector
    ``diag``; the partners a_t; the tails b_t, the basis vectors of w outside
    w cap K; and the radical, the basis of w cap K (``l`` vectors) then its
    completion from K's basis.  In it q = sum_t x_{a_t} x_{b_t} (+ q(diag)
    x0^2 in odd rank) with b(a_t, b_t) = 1/2.  By Witt's decomposition the
    k planes of pi(w) and their partners leave a form of rank
    rank(q) - 2k <= 1 on their orthogonal complement, so every vector is
    solved for: the partners from the pairing system, the anisotropic
    vector of odd rank from the complement.
    """
    if not check_isotropic(space, w):
        raise PreconditionError("standardize requires an isotropic subspace")
    n = space.n
    k = space.rank // 2
    rad = radical_basis(space)
    w_cap_k = sub_intersection(w, rad)

    # complement of w∩K inside w, giving representatives of pi(w)
    span = IncrementalSpan(w_cap_k.basis)
    tails = [v for v in w.basis if span.add(v)]
    if len(tails) != k:
        raise PreconditionError("standardize requires pi(w) maximal")

    partners = []
    for t in range(k):
        rhs = [Fraction(1, 2) if i == t else 0 for i in range(k)] + [0] * len(partners)
        u = _solve_partner(space, tails + partners, rhs)
        qu = space.q(u)
        if qu:
            u = vec(x - qu * y for x, y in zip(u, tails[t]))
        partners.append(u)

    diag = None
    if space.rank % 2 == 1:
        # the complement of the pairs is K plus one anisotropic line
        diag = next((c for c in _orthogonal_complement(space, partners + tails)
                     if space.q(c) != 0), None)
        if diag is None:
            raise InvariantError("odd-rank leftover has no anisotropic vector")

    span = IncrementalSpan(w_cap_k.basis)
    radical = list(w_cap_k.basis) + [v for v in rad.basis if span.add(v)]
    std = Standardization(diag, tuple(partners), tuple(tails), tuple(radical), w_cap_k.dim)

    change = Mat.from_cols(std.basis)
    if mat_rank(change) != n:
        raise InvariantError("standardization produced a defective basis")
    normal = [[0] * n for _ in range(n)]
    d = 0 if diag is None else 1
    if diag is not None:
        normal[0][0] = space.q(diag)
    for t in range(d, d + k):
        normal[t][t + k] = normal[t + k][t] = Fraction(1, 2)
    if change.transpose() @ space.gram @ change != Mat.from_rows(normal):
        raise InvariantError("completed basis is not in normal form")
    return std
