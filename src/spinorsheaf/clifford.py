"""The Clifford algebra of a quadratic space.

Elements are exact linear combinations of subset monomials e_{i1}...e_{ik}
(i1 < ... < ik) over the standard basis; monomials are stored as bitmasks.
Multiplication rewrites with e_j e_i = 2 b(e_j, e_i) - e_i e_j (i < j) and
e_i e_i = q(e_i), which handles hyperbolic (non-orthogonal) bases directly.
"""

from __future__ import annotations

from .errors import PreconditionError
from .exactalg import exact, vec
from .quadform import QuadraticSpace, Subspace


def _accumulate(out: dict, c, terms: dict) -> None:
    """Add c * ``terms`` into the sum ``out``, dropping the monomials that
    cancel."""
    for m, x in terms.items():
        v = out.get(m, 0) + c * x
        if v:
            out[m] = v
        elif m in out:
            del out[m]


class _Context:
    """Per-space monomial order and multiplication table.  It keeps no
    reference to its space, so the two form no cycle for the collector.
    The table ``vec_cache`` holds one row per monomial mask, filled on
    first use (``vec_row``): the tuple of the n normal forms
    e_0 * e_mask, ..., e_{n-1} * e_mask.  The constants and the entries of
    the table are canonical exact rationals (``exactalg.exact``): ints for
    an integral form."""

    __slots__ = ("n", "order", "index", "vec_cache", "consts", "top")

    def __init__(self, space: QuadraticSpace):
        n = space.n
        self.n = n
        self.order = tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), m)))
        self.index = {m: i for i, m in enumerate(self.order)}
        self.vec_cache = {}
        # q(e_i) on the diagonal, 2 b(e_i, e_j) off it
        self.consts = [[exact(g if i == j else 2 * g) for j, g in enumerate(space.gram.row(i))]
                       for i in range(n)]
        self.top = (1 << n) - 1

    def vec_row(self, mask: int) -> tuple:
        """The normal forms of e_i * (monomial mask) for i = 0, ..., n-1,
        the table's own entries, which callers must not modify.  With j
        the least index of mask and rest = mask - e_j, entry i is
        e_{mask + i} for i < j, q(e_j) e_rest for i = j, and
        2 b(e_i, e_j) e_rest - e_j (e_i e_rest) for i > j, where e_j only
        prefixes the monomials of e_i e_rest: their indices exceed j."""
        row = self.vec_cache.get(mask)
        if row is not None:
            return row
        if mask == 0:
            row = tuple({1 << i: 1} for i in range(self.n))
        else:
            jbit = mask & -mask
            j = jbit.bit_length() - 1
            rest = mask ^ jbit
            qj = self.consts[j][j]
            row = [{(1 << i) | mask: 1} for i in range(j)]
            row.append({rest: qj} if qj else {})
            prev = self.vec_row(rest)
            for i in range(j + 1, self.n):
                two_b = self.consts[i][j]
                res = {rest: two_b} if two_b else {}
                for m, c in prev[i].items():
                    res[m | jbit] = -c
                row.append(res)
            row = tuple(row)
        self.vec_cache[mask] = row
        return row

    def vec_mul_terms(self, i: int, terms: dict) -> dict:
        out = {}
        for m, c in terms.items():
            _accumulate(out, c, self.vec_row(m)[i])
        return out

    def vec_images(self, terms: dict) -> tuple | list:
        """``[e_i * terms for i in range(n)]``.  A monomial with coefficient 1
        gives its table row, whose entries callers must not modify; any
        other element reads the row of each of its terms once."""
        if len(terms) == 1:
            ((m, c),) = terms.items()
            if c == 1:
                return self.vec_row(m)
        out = [{} for _ in range(self.n)]
        for m, c in terms.items():
            for o, prod in zip(out, self.vec_row(m)):
                _accumulate(o, c, prod)
        return out

    def mono_mul_terms(self, mask: int, terms: dict) -> dict:
        acc = terms
        m = mask
        while m:
            i = m.bit_length() - 1
            m &= ~(1 << i)
            acc = self.vec_mul_terms(i, acc)
            if not acc:
                break
        return acc


def _ctx(space: QuadraticSpace) -> _Context:
    if space._clifford is None:
        space._clifford = _Context(space)
    return space._clifford


class CliffordElement:
    """An exact element of Cl(V, q).  Its nonzero coefficients are made
    canonical (``exactalg.exact``) here, so every product, sum and scaling
    has ints where they are whole."""

    __slots__ = ("space", "terms")

    def __init__(self, space: QuadraticSpace, terms: dict):
        self.space = space
        self.terms = {m: c if c.__class__ is int else exact(c)
                      for m, c in terms.items() if c}

    @classmethod
    def from_terms(cls, space, terms: dict) -> "CliffordElement":
        """The element of ``terms``, taken as they are: nonzero canonical
        coefficients, as ``exactalg.rref_rows`` gives them."""
        x = cls.__new__(cls)
        x.space, x.terms = space, terms
        return x

    @classmethod
    def zero(cls, space) -> "CliffordElement":
        return cls(space, {})

    @classmethod
    def scalar(cls, space, c) -> "CliffordElement":
        return cls(space, {0: exact(c)})

    @classmethod
    def from_vector(cls, space, v) -> "CliffordElement":
        v = vec(v)
        if len(v) != space.n:
            raise PreconditionError("vector length mismatch")
        return cls(space, {1 << i: x for i, x in enumerate(v) if x})

    def _require_same_space(self, other):
        if self.space is not other.space and self.space != other.space:
            raise PreconditionError("elements live in different Clifford algebras")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._require_same_space(other)
        out = dict(self.terms)
        _accumulate(out, 1, other.terms)
        return CliffordElement(self.space, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.space, {m: -c for m, c in self.terms.items()})

    def scale(self, s) -> "CliffordElement":
        s = exact(s)
        if not s:
            return CliffordElement.zero(self.space)
        return CliffordElement(self.space, {m: s * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        ctx = _ctx(self.space)
        parts = []
        for m in sorted(self.terms, key=lambda mm: ctx.index[mm]):
            c = self.terms[m]
            mono = "*".join(f"e{i}" for i in range(ctx.n) if m >> i & 1) or "1"
            if c == 1 and m:
                body = mono
            elif c == -1 and m:
                body = f"-{mono}"
            elif m:
                body = f"{c}*{mono}"
            else:
                body = str(c)
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)


def multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """The Clifford product."""
    a._require_same_space(b)
    ctx = _ctx(a.space)
    out = {}
    for m, c in a.terms.items():
        _accumulate(out, c, ctx.mono_mul_terms(m, b.terms))
    return CliffordElement(a.space, out)


def vector_product(space: QuadraticSpace, vectors) -> CliffordElement:
    """The product v1 * v2 * ... * vr of the vectors in order; 1 for none."""
    acc = CliffordElement.scalar(space, 1)
    for v in vectors:
        acc = multiply(acc, CliffordElement.from_vector(space, v))
    return acc


def trace_form(a: CliffordElement, b: CliffordElement | None = None):
    """Coefficient of the top monomial e_0...e_{n-1}; with b, tr(a*b)."""
    if b is not None:
        a = multiply(a, b)
    ctx = _ctx(a.space)
    return a.terms.get(ctx.top, 0)


def trace_pairing_nondegenerate(space: QuadraticSpace) -> bool:
    """Whether (a, b) -> tr(a*b) is nondegenerate on Cl(V, q), certified
    from the multiplication table instead of the 2^n x 2^n Gram.

    (a) Each e_i * e_M has degree at most |M| + 1, and its part of that
    degree is e_i ^ e_M: the sign (-1)^(bits of M below i) times
    e_{M + i} when i is not in M, nothing when it is.  Products of
    monomials are built from these entries (``mono_mul_terms``), so the
    top-degree part of e_S * e_T is e_S ^ e_T, and tr(e_S * e_T) = 0 when
    |S| + |T| < n, or when |S| + |T| = n and T is not the complement S^c.
    (b) Each tr(e_S * e_{S^c}) is nonzero.  Given (a), the Gram graded by
    |S| is block anti-triangular and its anti-diagonal blocks hold only the
    entries tr(e_S * e_{S^c}), so it is invertible exactly when (b) holds.
    A correct table satisfies (a) for every form, since Cl(V, q) is a
    filtered deformation of the exterior algebra (Chevalley, 1954)."""
    ctx = _ctx(space)
    for mask in range(1 << ctx.n):
        top = mask.bit_count() + 1
        for i, prod in enumerate(ctx.vec_row(mask)):
            bit = 1 << i
            lead = {}
            for m, c in prod.items():
                d = m.bit_count()
                if d > top:
                    return False
                if d == top:
                    lead[m] = c
            if mask & bit:
                wedge = {}
            else:
                wedge = {mask | bit: -1 if (mask & (bit - 1)).bit_count() % 2 else 1}
            if lead != wedge:
                return False
    return all(trace_form(CliffordElement(space, {m: 1}),
                          CliffordElement(space, {ctx.top ^ m: 1}))
               for m in range(1 << ctx.n))


def reflect(space: QuadraticSpace, u, v) -> tuple:
    """v - (2 b(v,u)/q(u)) u; agrees with -u v u^{-1} in the algebra."""
    u = vec(u)
    v = vec(v)
    qu = space.q(u)
    if qu == 0:
        raise PreconditionError("reflection axis must be anisotropic")
    f = exact(2 * space.b(v, u), qu)
    return vec(x - f * y for x, y in zip(v, u))


class GroupElement:
    """A product of anisotropic vectors inside the unit group of Cl."""

    __slots__ = ("space", "factors", "_element", "_inverse")

    def __init__(self, space: QuadraticSpace, factors):
        factors = tuple(vec(f) for f in factors)
        for f in factors:
            if space.q(f) == 0:
                raise PreconditionError("group element factors must be anisotropic")
        self.space = space
        self.factors = factors
        self._element = None
        self._inverse = None

    @property
    def parity(self) -> int:
        return len(self.factors) % 2

    @property
    def as_element(self) -> CliffordElement:
        if self._element is None:
            self._element = vector_product(self.space, self.factors)
        return self._element

    @property
    def inverse_element(self) -> CliffordElement:
        if self._inverse is None:
            denom = 1
            for f in self.factors:
                denom *= self.space.q(f)
            self._inverse = vector_product(
                self.space, reversed(self.factors)).scale(exact(1, denom))
        return self._inverse

    def conjugate_vector(self, v) -> tuple:
        """g v g^{-1} as a vector: (-1)^r composite reflection."""
        out = vec(v)
        for f in reversed(self.factors):
            out = reflect(self.space, f, out)
        if len(self.factors) % 2:
            out = tuple(-x for x in out)
        return out


def conjugate_subspace(g: GroupElement, w: Subspace) -> Subspace:
    """The subspace g W g^{-1}."""
    return Subspace(g.space, [g.conjugate_vector(v) for v in w.basis])
