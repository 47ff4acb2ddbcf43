"""Ideal modules I = Cl . w1...wm and their matrix factorizations.

An ideal module carries canonical (reduced echelon) bases of its even and
odd parts; left multiplication by the coordinate vectors gives the pair
(phi, psi) of matrices of linear forms with phi psi = psi phi = q * Id.
Everything downstream (flags, duals, restriction, cones, equivariance) is
verified through exact linear algebra on those bases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .clifford import (
    CliffordElement,
    GroupElement,
    _ctx,
    conjugate_subspace,
    multiply,
)
from . import _kernels
from .errors import InvariantError, PreconditionError, SchemaError, SpanError
from .exactalg import (
    IncrementalSpan,
    LinMat,
    Mat,
    ONE,
    SpanSolver,
    _hom_system,
    _int_row,
    mat_invertible,
    mat_rank,
    mat_rank_kernel,
    mat_solve,
    rref_rows,
    vec,
)
from .quadform import (
    QuadraticSpace,
    QuotientSpace,
    Subspace,
    check_isotropic,
    detect_standard_profile,
    radical_basis,
    sub_intersection,
    sub_sum,
)


class IdealModule:
    """The graded left ideal generated by the product of a basis of an
    isotropic subspace, with canonical bases of both graded pieces."""

    __slots__ = (
        "space",
        "w",
        "generator",
        "ev_basis",
        "odd_basis",
        "shift",
        "_solver_ev",
        "_solver_odd",
        "_act_ev",
        "_act_odd",
    )

    def __init__(self, space, w, generator, ev_basis, odd_basis, shift=0):
        self.space = space
        self.w = w
        self.generator = generator
        self.ev_basis = tuple(ev_basis)
        self.odd_basis = tuple(odd_basis)
        self.shift = shift
        self._solver_ev = None
        self._solver_odd = None
        self._act_ev = None
        self._act_odd = None

    @property
    def ev_dim(self) -> int:
        return len(self.ev_basis)

    @property
    def odd_dim(self) -> int:
        return len(self.odd_basis)

    @property
    def codim(self) -> int:
        return self.space.n - self.w.dim

    def _solver(self, parity):
        """Span solver of one graded part; a canonical row's pivot is its first monomial."""
        attr = "_solver_ev" if parity == 0 else "_solver_odd"
        if getattr(self, attr) is None:
            basis = self.ev_basis if parity == 0 else self.odd_basis
            first = _ctx(self.space).index.__getitem__
            setattr(self, attr, SpanSolver([x.terms for x in basis],
                                           [min(x.terms, key=first) for x in basis]))
        return getattr(self, attr)

    def coords_in(self, parity, element):
        """Coordinates of element in the basis of the given graded part, or
        None when it lies outside."""
        return self._solver(parity).coords(element.terms)

    def part(self, parity):
        """Canonical basis of the even (0) or odd (1) graded part."""
        return self.ev_basis if parity == 0 else self.odd_basis

    def part_matrix(self, parity, images, what) -> Mat:
        """The matrix whose columns are the coordinates of ``images`` in the
        given graded part; an image outside it raises SpanError(what)."""
        solver = self._solver(parity)
        cols = []
        for image in images:
            coords = solver.coords(image.terms)
            if coords is None:
                raise SpanError(what, witness=image)
            cols.append(coords)
        dim = self.ev_dim if parity == 0 else self.odd_dim
        return Mat(dim, len(cols), chain.from_iterable(zip(*cols)))

    def _left_action(self, parity):
        """Matrices of left multiplication by each e_i on one graded part."""
        space = self.space
        out = []
        for i in range(space.n):
            velt = CliffordElement.from_vector(space, space.basis_vector(i))
            out.append(self.part_matrix(1 - parity,
                                        (multiply(velt, xi) for xi in self.part(parity)),
                                        "left action leaves the module"))
        return tuple(out)

    @property
    def act_ev(self):
        """Matrices of left multiplication by e_i: ev part -> odd part."""
        if self._act_ev is None:
            self._act_ev = self._left_action(0)
        return self._act_ev

    @property
    def act_odd(self):
        if self._act_odd is None:
            self._act_odd = self._left_action(1)
        return self._act_odd

    def same_module(self, other) -> bool:
        return (
            isinstance(other, IdealModule)
            and self.space == other.space
            and self.shift == other.shift
            and [x.terms for x in self.ev_basis] == [x.terms for x in other.ev_basis]
            and [x.terms for x in self.odd_basis] == [x.terms for x in other.odd_basis]
        )

    def __repr__(self):
        tag = "[1]" if self.shift else ""
        return f"IdealModule(dim W={self.w.dim}, N={self.ev_dim}){tag}"


def build_ideal(space: QuadraticSpace, w: Subspace) -> IdealModule:
    """The ideal module of an isotropic subspace, with canonical bases."""
    if w.dim == 0:
        raise PreconditionError("the isotropic subspace must be nonzero")
    if not check_isotropic(space, w):
        raise PreconditionError("the subspace is not isotropic")
    gen = CliffordElement.scalar(space, 1)
    for v in w.basis:
        gen = multiply(gen, CliffordElement.from_vector(space, v))
    ctx = _ctx(space)
    index, order = ctx.index, ctx.order
    m = w.dim
    ev_raw = []
    odd_raw = []
    for mask in range(1 << space.n):
        prod = ctx.mono_mul_terms(mask, gen.terms)
        if not prod:
            continue
        row = {index[mono]: c for mono, c in prod.items()}
        if (bin(mask).count("1") + m) % 2 == 0:
            ev_raw.append(row)
        else:
            odd_raw.append(row)
    dim = 1 << space.n
    ev_rows, _ = rref_rows(ev_raw, dim)
    odd_rows, _ = rref_rows(odd_raw, dim)
    ev_basis = [CliffordElement(space, {order[j]: c for j, c in r.items()}) for r in ev_rows]
    odd_basis = [CliffordElement(space, {order[j]: c for j, c in r.items()}) for r in odd_rows]
    expected = 1 << (space.n - m - 1)
    if not len(ev_basis) == len(odd_basis) == expected:
        raise InvariantError(
            f"dimension law violated: ev {len(ev_basis)}, odd {len(odd_basis)},"
            f" expected {expected}"
        )
    return IdealModule(space, w, gen, ev_basis, odd_basis, shift=0)


def shift(i: IdealModule) -> IdealModule:
    """Swap the graded pieces; an involution."""
    out = IdealModule(i.space, i.w, i.generator, i.odd_basis, i.ev_basis,
                      shift=1 - i.shift)
    out._solver_ev = i._solver_odd
    out._solver_odd = i._solver_ev
    out._act_ev = i._act_odd
    out._act_odd = i._act_ev
    return out


class DirectSumModule:
    """Formal direct sum; only the action matrices matter downstream."""

    __slots__ = ("space", "ev_dim", "odd_dim", "act_ev", "act_odd", "parts")

    def __init__(self, space, ev_dim, odd_dim, act_ev, act_odd, parts=()):
        self.space = space
        self.ev_dim = ev_dim
        self.odd_dim = odd_dim
        self.act_ev = tuple(act_ev)
        self.act_odd = tuple(act_odd)
        self.parts = tuple(parts)

    def __repr__(self):
        return f"DirectSumModule(ev={self.ev_dim}, odd={self.odd_dim})"


def zero_module(space: QuadraticSpace) -> DirectSumModule:
    zero = Mat.zeros(0, 0)
    return DirectSumModule(space, 0, 0,
                           [zero] * space.n, [zero] * space.n)


def direct_sum(a, b) -> DirectSumModule:
    """Block sum of two modules over the same space."""
    if a.space != b.space:
        raise PreconditionError("direct sum needs a common space")
    act_ev = []
    act_odd = []
    for i in range(a.space.n):
        act_ev.append(a.act_ev[i].block_diag(b.act_ev[i]))
        act_odd.append(a.act_odd[i].block_diag(b.act_odd[i]))
    return DirectSumModule(
        a.space,
        a.ev_dim + b.ev_dim,
        a.odd_dim + b.odd_dim,
        act_ev,
        act_odd,
        parts=(a, b),
    )


class FactorizationPair:
    """A pair (phi, psi) of square matrices of linear forms with
    phi(v) psi(v) = psi(v) phi(v) = q(v) Id."""

    __slots__ = ("space", "phi", "psi", "N")

    def __init__(self, space, phi: LinMat, psi: LinMat):
        self.space = space
        self.phi = phi
        self.psi = psi
        self.N = phi.rows

    def check_identity(self) -> bool:
        """phi_i psi_j + phi_j psi_i = 2 b(e_i, e_j) Id for i <= j, and the
        same with phi and psi swapped, on integer rows: scaling phi and psi
        by their denominators multiplies both sides by d_phi * d_psi."""
        g = self.space.gram
        n = self.space.n
        N = self.N
        d_phi, phi_rows = self.phi.int_rows()
        d_psi, psi_rows = self.psi.int_rows()
        scale = d_phi * d_psi
        for first, second in ((phi_rows, psi_rows), (psi_rows, phi_rows)):
            for i in range(n):
                for j in range(i, n):
                    target = (g[i, i] if i == j else 2 * g[i, j]) * scale
                    if target.denominator == 1:
                        target = target.numerator
                    for r in range(N):
                        acc = {}
                        for t, v in first[i][r]:
                            for c, w in second[j][t]:
                                acc[c] = acc.get(c, 0) + v * w
                        if i != j:
                            for t, v in first[j][r]:
                                for c, w in second[i][t]:
                                    acc[c] = acc.get(c, 0) + v * w
                        for c, v in acc.items():
                            if v != (target if c == r else 0):
                                return False
                        if target and acc.get(r, 0) != target:
                            return False
        return True


class MatrixFactorization(FactorizationPair):
    """The factorization attached to a module: phi is left multiplication
    ev -> odd, psi is odd -> ev."""

    __slots__ = ("module",)

    def __init__(self, module):
        n = module.space.n
        phi = LinMat(n, module.act_ev)
        psi = LinMat(n, module.act_odd)
        super().__init__(module.space, phi, psi)
        self.module = module


def build_factorization(i) -> MatrixFactorization:
    mf = MatrixFactorization(i)
    if not mf.check_identity():
        raise InvariantError("factorization identity failed: multiplication bug")
    return mf


def fiber_rank(mf: FactorizationPair, v):
    """(rank of phi(v), N - rank): the fiber dimension of coker phi at v."""
    v = vec(v)
    if all(x == 0 for x in v):
        raise PreconditionError("fiber point must be nonzero")
    if mf.space.q(v) != 0:
        raise PreconditionError("fiber points must lie on the quadric")
    r = mat_rank(mf.phi.evaluate(v))
    return r, mf.N - r


def dual_factorization(mf: FactorizationPair) -> FactorizationPair:
    """The transposed pair; its first map presents the twisted dual."""
    return FactorizationPair(mf.space, mf.phi.transpose(), mf.psi.transpose())


class FlagSequence:
    """Data of 0 -> I_W -> I_W' -> I_W[1] -> 0 for W' of codimension 1."""

    __slots__ = (
        "inner",
        "outer",
        "connecting_vector",
        "inclusion_ev",
        "inclusion_odd",
        "quotient_ev",
        "quotient_odd",
        "exact",
        "split_subspace",
        "split_module",
    )

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)

    @property
    def split_agree(self) -> bool:
        return self.split_subspace == self.split_module


def flag_sequence(inner: IdealModule, drop) -> FlagSequence:
    """Build and verify the codimension-1 flag sequence of the module
    ``inner`` of w, obtained by dropping the direction of ``drop`` from w."""
    if inner.shift:
        raise PreconditionError("flag_sequence expects an unshifted module")
    space, w = inner.space, inner.w
    drop = vec(drop)
    if w.dim < 2:
        raise PreconditionError("flags need an isotropic subspace of dimension >= 2")
    coords = mat_solve(Mat.from_cols(list(w.basis)), drop)
    if coords is None:
        raise PreconditionError("the dropped vector must lie in w")
    coeffs = coords[0]
    pivot = next((t for t, c in enumerate(coeffs) if c), None)
    if pivot is None:
        raise PreconditionError("the dropped vector must be nonzero")
    w_prime = Subspace(space, [v for t, v in enumerate(w.basis) if t != pivot])
    if w_prime.contains(drop):
        raise PreconditionError("the dropped vector lies in the smaller subspace")

    outer = build_ideal(space, w_prime)

    inc_ev, inc_odd = (
        outer.part_matrix(par, inner.part(par), "inner module does not embed")
        for par in (0, 1)
    )
    drop_elt = CliffordElement.from_vector(space, drop)
    # outer ev -> inner odd and outer odd -> inner ev
    q_ev, q_odd = (
        inner.part_matrix(1 - par, (multiply(xi, drop_elt) for xi in outer.part(par)),
                          "right multiplication leaves the flag")
        for par in (0, 1)
    )

    exact = True
    # injectivity, vanishing composite, surjectivity, middle exactness
    for inc, q, inner_dim, outer_dim in (
        (inc_ev, q_ev, inner.ev_dim, outer.ev_dim),
        (inc_odd, q_odd, inner.odd_dim, outer.odd_dim),
    ):
        rank_inc, rank_q = mat_rank(inc), mat_rank(q)
        if (rank_inc != inner_dim or not (q @ inc).is_zero()
                or rank_q != inner_dim or rank_inc + rank_q != outer_dim):
            exact = False

    rad = radical_basis(space)
    split_subspace = sub_intersection(w, rad).same_span(
        sub_intersection(w_prime, rad)
    )
    split_module = _splitting_exists(inner, outer, q_ev, q_odd)

    return FlagSequence(
        inner=inner,
        outer=outer,
        connecting_vector=drop,
        inclusion_ev=inc_ev,
        inclusion_odd=inc_odd,
        quotient_ev=q_ev,
        quotient_odd=q_odd,
        exact=exact,
        split_subspace=split_subspace,
        split_module=split_module,
    )


def _splitting_exists(inner, outer, q_ev, q_odd) -> bool:
    """Is there a graded Cl-linear section of the quotient map?

    A section is a graded module map inner[1] -> outer, so its unknowns
    and its Cl-linearity rows are those of the Hom system of
    (inner[1], outer): A = s_odd: inner_ev -> outer_odd, then
    B = s_ev: inner_odd -> outer_ev.  The rows of q_odd A = id and
    q_ev B = id carry their right-hand side in the extra column nvars, and
    the system is inconsistent exactly when that column is a pivot.
    """
    phi_rows, psi_rows, nvars = _hom_system(shift(inner), outer)
    rows = phi_rows + psi_rows
    for q, at in ((q_odd, 0), (q_ev, outer.odd_dim * inner.ev_dim)):
        k = q.rows
        for r in range(k):
            row = [(at + t * k, v) for t, v in enumerate(q.row(r)) if v]
            for c in range(k):
                pairs = [(j + c, v) for j, v in row]
                if r == c:
                    pairs.append((nvars, ONE))
                if pairs:
                    rows.append(_int_row(pairs))
    return nvars not in _kernels.sparse_echelon(rows)


def _is_intertwiner(a, b, A, B) -> bool:
    """Is (A, B) a graded module map a -> b: A on the odd parts, B on the
    even parts, A act_ev = act_ev' B and B act_odd = act_odd' A?"""
    return all(A @ a.act_ev[i] == b.act_ev[i] @ B and B @ a.act_odd[i] == b.act_odd[i] @ A
               for i in range(a.space.n))


def recover_intersection_with_radical(module) -> Subspace:
    """{v in V : v annihilates the module}, from the action matrices: the
    kernel of v -> sum_i v_i act[i] on both graded parts.  For an ideal
    module it equals the intersection of w with the radical."""
    space = module.space
    rows = [r for mats in (module.act_ev, module.act_odd)
            for r in zip(*(m.entries for m in mats)) if any(r)]
    if not rows:
        return Subspace(space, [space.basis_vector(t) for t in range(space.n)])
    return Subspace(space, mat_rank_kernel(Mat.from_rows(rows))[1])


def family_indicator(i: IdealModule) -> str:
    """Which graded half the standardized witness element annihilates.

    Requires the module to live on a standardized space (even-rank form,
    tails of w leading) with pi(w) maximal.  The witness is the product of
    the hyperbolic partners and the radical directions outside w.
    """
    profile = detect_standard_profile(i.space, i.w)
    if profile is None:
        raise PreconditionError("family_indicator needs a standardized basis")
    if profile.diag_index is not None:
        raise PreconditionError("family_indicator needs dim V/K even")
    if profile.pi_dim != profile.k:
        raise PreconditionError("family_indicator needs pi(w) maximal")
    witness_positions = list(profile.a_positions) + list(
        profile.radical_positions[profile.w_radical_count :]
    )
    xi = CliffordElement.monomial(i.space, sorted(witness_positions))
    killed_ev = all(multiply(xi, b).is_zero() for b in i.ev_basis)
    killed_odd = all(multiply(xi, b).is_zero() for b in i.odd_basis)
    if killed_ev and not killed_odd:
        return "EVEN"
    if killed_odd and not killed_ev:
        return "ODD"
    return "NONE"


class RestrictVerdict:
    __slots__ = ("kind", "codim_u", "parity", "restricted", "map_ev", "map_odd",
                 "bijective", "linear")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    @property
    def matches(self) -> str:
        return "S" if self.parity == 0 else "T"


def _embed_element(space, cols, element):
    """Push an element of Cl(U) into Cl(V) along the column list (an
    isometric embedding of quadratic spaces)."""
    out = CliffordElement.zero(space)
    for mask, c in element.terms.items():
        acc = CliffordElement.scalar(space, c)
        mm = mask
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            acc = multiply(acc, CliffordElement.from_vector(space, cols[j]))
        out = out + acc
    return out


def restrict_compare(i: IdealModule, u: Subspace) -> RestrictVerdict:
    """Compare the module with the one built on a transverse subspace.

    Builds I' over (U, q|_U, W cap U) and certifies that right
    multiplication by the complementary generators is a bijective
    Cl(U)-linear map I' -> I shifted by codim U.
    """
    space = i.space
    n = space.n
    w = i.w
    if i.shift:
        raise PreconditionError("restrict_compare expects an unshifted module")
    if sub_sum(u, w).dim != n:
        raise PreconditionError("restriction subspace is not transverse")
    cap = sub_intersection(w, u)
    l = cap.dim
    codim_u = n - u.dim
    if l == 0:
        return RestrictVerdict(kind="REDUCES_TO_FREE", codim_u=codim_u,
                               parity=codim_u % 2)
    ucols = list(u.basis)
    gram_u = Mat.from_rows(
        [[space.b(a, b) for b in ucols] for a in ucols]
    )
    try:
        space_u = QuadraticSpace(gram_u)
    except SchemaError as exc:
        raise PreconditionError(f"restricted form is degenerate: {exc}") from exc
    # W cap U in U coordinates
    ucol_mat = Mat.from_cols(ucols)
    cap_in_u = []
    for v in cap.basis:
        sol = mat_solve(ucol_mat, v)
        if sol is None:
            raise InvariantError("a vector of W cap U is not in the span of U")
        cap_in_u.append(sol[0])
    restricted = build_ideal(space_u, Subspace(space_u, cap_in_u))

    # adapted basis of w: cap part first, then a complement inside w
    span = IncrementalSpan(cap.basis)
    rest = [v for v in w.basis if span.add(v)]
    shift_amount = len(rest)
    if l + shift_amount != w.dim or shift_amount != codim_u:
        raise InvariantError(
            f"transversality bookkeeping failed: dim(W cap U) {l} + complement"
            f" {shift_amount} vs dim W {w.dim}, codim U {codim_u}"
        )
    tail = CliffordElement.scalar(space, 1)
    for v in rest:
        tail = multiply(tail, CliffordElement.from_vector(space, v))

    # the adapted module is the same ideal as i (basis change rescales the
    # generator), so coordinates may be taken in i's bases
    adapted = build_ideal(space, Subspace(space, list(cap.basis) + rest))
    if [x.terms for x in adapted.ev_basis] != [x.terms for x in i.ev_basis]:
        raise InvariantError("the adapted basis of W gives a different ideal")

    pairs = [(CliffordElement.from_vector(space_u, space_u.basis_vector(t)),
              CliffordElement.from_vector(space, ucols[t])) for t in range(space_u.n)]
    return RestrictVerdict(
        kind="ISOMORPHIC",
        codim_u=codim_u,
        parity=codim_u % 2,
        restricted=restricted,
        **_tail_comparison(restricted, i, ucols, tail, shift_amount, pairs,
                           "comparison map leaves the module"),
    )


def _tail_comparison(small, big, cols, tail, d, vector_pairs, what):
    """The map tau: x -> embed(x) * tail from the module ``small`` (on the
    space whose basis ``cols`` embeds) into ``big`` shifted by ``d``.
    Returns its two graded matrices (``map_ev``, ``map_odd``), whether both
    are invertible (``bijective``), and whether tau(s x) = b tau(x) for
    every pair (s, b) of ``vector_pairs`` (``linear``)."""
    space = big.space
    images = [[multiply(_embed_element(space, cols, xi), tail) for xi in small.part(par)]
              for par in (0, 1)]
    map_ev, map_odd = (big.part_matrix((par + d) % 2, images[par], what) for par in (0, 1))
    bijective = (
        mat_invertible(map_ev) is not None and mat_invertible(map_odd) is not None
    )
    linear = all(
        multiply(_embed_element(space, cols, multiply(s, xi)), tail) == multiply(b, image)
        for s, b in vector_pairs
        for par in (0, 1)
        for xi, image in zip(small.part(par), images[par])
    )
    return {"map_ev": map_ev, "map_odd": map_odd, "bijective": bijective, "linear": linear}


class ConeVerdict:
    __slots__ = ("dim_u", "parity", "total", "map_ev", "map_odd", "bijective", "linear")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    @property
    def matches(self) -> str:
        return "S" if self.parity == 0 else "T"


def cone_compare(i_quotient: IdealModule, qs: QuotientSpace) -> ConeVerdict:
    """Compare the module of W/U on V/U with the module of W on V.

    The section embeds Cl(V/U) into Cl(V); right multiplication by a basis
    of U gives the isomorphism I' -> I shifted by dim U, checked exactly,
    Cl(V)-linearly.
    """
    space = qs.source
    u = qs.modded
    if i_quotient.shift:
        raise PreconditionError("cone_compare expects an unshifted module")
    if i_quotient.space != qs.space:
        raise PreconditionError("quotient module does not live on the quotient space")
    rad = radical_basis(space)
    for v in u.basis:
        if not rad.contains(v):
            raise PreconditionError("cone vertex must lie inside the radical")
    section_cols = [qs.section.col(j) for j in range(qs.section.cols)]
    lifted = [qs.lift(wb) for wb in i_quotient.w.basis]
    w_total = Subspace(space, lifted + list(u.basis))
    if not check_isotropic(space, w_total):
        raise PreconditionError("lifted subspace is not isotropic")
    for v in u.basis:
        if not w_total.contains(v):
            raise PreconditionError("cone vertex must lie inside w")
    total = build_ideal(space, w_total)
    d = u.dim
    tail = CliffordElement.scalar(space, 1)
    for v in u.basis:
        tail = multiply(tail, CliffordElement.from_vector(space, v))
    pairs = [(CliffordElement.from_vector(qs.space, qs.project(space.basis_vector(t))),
              CliffordElement.from_vector(space, space.basis_vector(t)))
             for t in range(space.n)]
    return ConeVerdict(
        dim_u=d,
        parity=d % 2,
        total=total,
        **_tail_comparison(i_quotient, total, section_cols, tail, d, pairs,
                           "cone comparison leaves the module"),
    )


def sample_quadric_points(space: QuadraticSpace, seed: int = 20103, extra: int = 24):
    """Deterministic rational points on the quadric: coordinate vectors,
    pairwise sums/differences, and seeded points found by solving q = 0 on
    random small-integer lines."""
    import random as _random

    from .quadform import _rational_sqrt

    n = space.n
    points = []
    seen = set()

    def push(v):
        if all(x == 0 for x in v):
            return
        # projective dedup: normalize by the first nonzero coordinate
        lead = next(x for x in v if x)
        key = tuple(x / lead for x in v)
        if key not in seen:
            seen.add(key)
            points.append(tuple(v))

    basis = [space.basis_vector(i) for i in range(n)]
    for v in basis:
        if space.q(v) == 0:
            push(v)
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                v = tuple(x + s * y for x, y in zip(basis[i], basis[j]))
                if space.q(v) == 0:
                    push(v)
    rng = _random.Random(seed)
    attempts = 0
    found = 0
    while found < extra and attempts < 40 * extra:
        attempts += 1
        a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        qa = space.q(a)
        qb = space.q(b)
        bb = 2 * space.b(a, b)
        roots = []
        if qb == 0:
            if bb != 0:
                roots.append(Fraction(-qa, bb))
        else:
            disc = bb * bb - 4 * qb * qa
            root = _rational_sqrt(disc)
            if root is not None:
                roots.extend({Fraction(-bb - root, 2 * qb), Fraction(-bb + root, 2 * qb)})
        for t in sorted(roots):
            v = tuple(x + t * y for x, y in zip(a, b))
            if any(v) and space.q(v) == 0:
                push(v)
                found += 1
    return points


class EquivarianceVerdict:
    __slots__ = ("parity", "target_shifted", "bijective", "linear", "twisted",
                 "rho", "sigma")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    @property
    def ok(self) -> bool:
        return bool(self.bijective and self.linear and self.twisted)


def equivariance_check(g: GroupElement, i: IdealModule) -> EquivarianceVerdict:
    """Verify that right multiplication by g^{-1} (rho) is a Cl-linear
    bijection onto the module of gWg^{-1} (shifted for odd g) and that
    conjugation (sigma) satisfies the twisted commuting square with the
    reflected vectors."""
    space = i.space
    w_prime = conjugate_subspace(g, i.w)
    iprime = build_ideal(space, w_prime)
    par = g.parity
    target = shift(iprime) if par else iprime
    ginv = g.inverse_element
    gelt = g.as_element

    rho_ev, rho_odd = (
        target.part_matrix(p, (multiply(xi, ginv) for xi in i.part(p)),
                           "right multiplication misses the target")
        for p in (0, 1)
    )
    bijective = (
        mat_invertible(rho_ev) is not None and mat_invertible(rho_odd) is not None
    )
    linear = _is_intertwiner(i, target, rho_odd, rho_ev)

    # twisted square: conjugation sigma(xi) = g xi g^{-1} lands in the
    # unshifted module of gWg^{-1} and intertwines phi(v) with phi'(gvg^{-1})
    sig_ev, sig_odd = (
        iprime.part_matrix(p, (multiply(gelt, multiply(xi, ginv)) for xi in i.part(p)),
                           "conjugation misses the target")
        for p in (0, 1)
    )
    phi_prime = LinMat(space.n, iprime.act_ev)
    twisted = True
    for t in range(space.n):
        gv = g.conjugate_vector(space.basis_vector(t))
        if phi_prime.evaluate(gv) @ sig_ev != sig_odd @ i.act_ev[t]:
            twisted = False
    return EquivarianceVerdict(
        parity=par,
        target_shifted=bool(par),
        bijective=bijective,
        linear=linear,
        twisted=twisted,
        rho=(rho_ev, rho_odd),
        sigma=(sig_ev, sig_odd),
    )
