"""Ideal modules I = Cl . w1...wm and their matrix factorizations.

An ideal module carries canonical (reduced echelon) bases of its even and
odd parts; left multiplication by the coordinate vectors gives the pair
(phi, psi) of matrices of linear forms with phi psi = psi phi = q * Id.
Everything downstream (flags, duals, restriction, cones, equivariance) is
verified through exact linear algebra on those bases.

A module known only by its action is a ``FactorizationPair``: a graded
module and its pair (phi, psi) are the same data, so the factorization of
an ideal module is the plain pair of its action, duals and direct sums
are pairs, and Hom spaces take them as they take ideal modules.
Whether a graded map respects the action is decided in one place,
``intertwines``, for equivariance, restriction, cones and the shift
witness of the isomorphism test.
"""

from __future__ import annotations

from fractions import Fraction

from .clifford import (
    CliffordElement,
    GroupElement,
    _ctx,
    conjugate_subspace,
    multiply,
    vector_product,
)
from .errors import InvariantError, PreconditionError, SchemaError, SpanError
from .exactalg import (
    IncrementalSpan,
    LinMat,
    Mat,
    SpanSolver,
    _int_vec,
    exact,
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
    anisotropic_orthogonal,
    candidate_vectors,
    check_isotropic,
    intersection_with_radical,
    radical_basis,
    standardize,
    sub_intersection,
    sub_sum,
)


class IdealModule:
    """The graded left ideal generated by the product of a basis of an
    isotropic subspace, with canonical bases of both graded pieces
    (``parts``) and the span solvers of those bases (``solvers``), each a
    pair indexed by parity: the even part first."""

    __slots__ = ("space", "w", "generator", "parts", "solvers", "shift", "_act_ev", "_act_odd",
                 "_columns")

    def __init__(self, space, w, generator, parts, solvers, shift=0):
        self.space = space
        self.w = w
        self.generator = generator
        self.parts = tuple(map(tuple, parts))
        self.solvers = tuple(solvers)
        self.shift = shift
        self._act_ev = None
        self._act_odd = None
        self._columns = None

    @property
    def ev_basis(self):
        return self.parts[0]

    @property
    def odd_basis(self):
        return self.parts[1]

    @property
    def ev_dim(self) -> int:
        return len(self.parts[0])

    @property
    def odd_dim(self) -> int:
        return len(self.parts[1])

    @property
    def codim(self) -> int:
        return self.space.n - self.w.dim

    def coords_in(self, parity, element):
        """Coordinates of element in the basis of the given graded part, as
        a dense tuple, or None when it lies outside."""
        solver = self.solvers[parity]
        coords = solver.coords(element.terms)
        return None if coords is None else tuple(coords.get(k, 0)
                                                 for k in range(len(solver.pivots)))

    def _matrices(self, parity, images, count, what):
        """The ``count`` matrices on the given graded part whose column c
        holds the coordinates of ``images[c][i]``, given by its terms, in
        matrix i: one ``SpanSolver.columns`` sweep fills all their
        row-major nonzeros.  An image outside the part raises
        SpanError(what) with that image as witness."""
        solver = self.solvers[parity]
        nzs = [[[] for _ in solver.pivots] for _ in range(count)]
        bad = solver.columns(images, nzs)
        if bad is not None:
            raise SpanError(what, witness=CliffordElement(self.space, bad))
        return tuple(Mat.from_nonzeros(len(nz), len(images), nz) for nz in nzs)

    def graded_map(self, source, f, what):
        """The map x -> f(x) from each graded part of ``source`` to the same
        part of this module, as the pair (A, B) of ``intertwines``: A on the
        odd parts, B on the even parts.  A shift is the caller's: pass the
        shifted module as ``source`` or as this one."""
        return tuple(self._matrices(par, [[f(x).terms] for x in source.parts[par]], 1, what)[0]
                     for par in (1, 0))

    def _left_action(self, parity):
        """Matrices of left multiplication by each e_i on one graded part,
        all n from one sweep over its basis: the n images of each basis
        element come from one ``vec_images`` call, and every image is
        checked to lie in the other part."""
        images = list(map(_ctx(self.space).vec_images, (x.terms for x in self.parts[parity])))
        return self._matrices(1 - parity, images, self.space.n, "left action leaves the module")

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

    def __repr__(self):
        tag = "[1]" if self.shift else ""
        return f"IdealModule(dim W={self.w.dim}, N={self.ev_dim}){tag}"


def word_walk(w: Subspace, start, step) -> list:
    """The words e_M v, M a subset of S, the coordinates that are not
    pivots of W's reduced rows, in the order of the masks of S, each as
    (word, |M|): the word of M is ``step(i, word of M - i, |M| - 1)`` with
    i the least index of M, and the word of the empty set is ``start``."""
    free = [k for k in range(w.ambient.n) if k not in w._solver.pivots]
    walk = [(start, 0)]
    for mask in range(1, 1 << len(free)):
        low = mask & -mask
        word, size = walk[mask ^ low]
        walk.append((step(free[low.bit_length() - 1], word, size), size + 1))
    return walk


def build_ideal(space: QuadraticSpace, w: Subspace) -> IdealModule:
    """The ideal module of an isotropic subspace, with canonical bases.

    Let S be the coordinates off the pivots of W's reduced rows, so
    V = span(e_S) + W, a direct sum.  The ordered products e_M w_A (M in
    S, A in a basis of W) then span Cl, and w_a g = 0 for the generator
    g = w_1...w_m, since the vectors of an isotropic W anticommute and
    square to 0.  So Cl g is spanned by the 2^(n-m) products e_M g, M a
    subset of S, built by ``word_walk``:
    e_M g = e_i (e_{M - i} g) with i the least index of M.  They are
    2^(n-m) nonzero elements of the right graded degrees, and the
    dimension law checks that they are independent.  The canonical rows
    of each part give its basis and, with the pivots ``rref_rows``
    returns, its span solver."""
    if w.dim == 0:
        raise PreconditionError("the isotropic subspace must be nonzero")
    if not check_isotropic(space, w):
        raise PreconditionError("the subspace is not isotropic")
    gen = vector_product(space, w.basis)
    ctx = _ctx(space)
    index, order = ctx.index, ctx.order
    m = w.dim
    raw = ([], [])
    for terms, size in word_walk(w, gen.terms, lambda i, x, _: ctx.vec_mul_terms(i, x)):
        raw[(size + m) % 2].append({index[mono]: c for mono, c in terms.items()})
    bases, solvers = [], []
    for part in raw:
        rows, pivots = rref_rows(part)
        terms = [{order[j]: c for j, c in r.items()} for r in rows]
        bases.append([CliffordElement.from_terms(space, t) for t in terms])
        solvers.append(SpanSolver(terms, [order[c] for c in pivots]))
    ev, odd = map(len, bases)
    expected = 1 << (space.n - m - 1)
    if not ev == odd == expected:
        raise InvariantError(f"dimension law violated: ev {ev}, odd {odd}, expected {expected}")
    return IdealModule(space, w, gen, bases, solvers)


def shift(i: IdealModule) -> IdealModule:
    """Swap the graded pieces; an involution."""
    out = IdealModule(i.space, i.w, i.generator, i.parts[::-1], i.solvers[::-1], 1 - i.shift)
    out._act_ev = i._act_odd
    out._act_odd = i._act_ev
    out._columns = i._columns and i._columns[::-1]
    return out


class FactorizationPair:
    """A pair (phi, psi) of square matrices of linear forms with
    phi(v) psi(v) = psi(v) phi(v) = q(v) Id.  It is also the graded module
    on which v acts by phi(v): ev -> odd and psi(v): odd -> ev, which is
    all that Hom spaces, isomorphism tests and direct sums read.
    ``identity_checked`` is set once ``check_identity`` has passed on the
    pair, by ``build_factorization`` or by the first ``cohomology_dim``
    call on it."""

    __slots__ = ("space", "phi", "psi", "N", "identity_checked", "_columns")

    def __init__(self, space, phi: LinMat, psi: LinMat):
        self.space = space
        self.phi = phi
        self.psi = psi
        self.N = phi.rows
        self.identity_checked = False
        self._columns = None

    @property
    def ev_dim(self) -> int:
        return self.phi.cols

    @property
    def odd_dim(self) -> int:
        return self.phi.rows

    @property
    def act_ev(self):
        return self.phi.coeff

    @property
    def act_odd(self):
        return self.psi.coeff

    def check_identity(self) -> bool:
        """phi_i psi_j + phi_j psi_i = 2 b(e_i, e_j) Id for i <= j, that is
        phi(x) psi(x) = q(x) Id, on integer rows: scaling phi and psi by
        their denominators multiplies both sides by d_phi * d_psi.  The
        constants q(e_i) and 2 b(e_i, e_j) are read from the Clifford
        table.  A pair whose phi and psi are not both N x N fails.

        One order is enough.  Over the field k(x), phi psi = q Id with
        q != 0 (a ``QuadraticSpace`` has rank >= 2, so q is no zero form)
        makes the square phi invertible, psi = q phi^-1, and so psi phi =
        q Id too (Eisenbud 1980, section 5).

        One accumulator per row r: every product of row r of phi_i with a
        row t of psi_j is summed under the key (min(i, j), max(i, j), c),
        flattened to an int, with the nonzeros of psi indexed by their row
        t.  Each nonzero target, at c = r, is taken out of the accumulator
        and compared, and what is left must be zero."""
        n = self.space.n
        N = self.N
        phi, psi = self.phi, self.psi
        if not (phi.n == psi.n == n and phi.cols == psi.rows == psi.cols == N):
            return False
        consts = _ctx(self.space).consts
        d_phi, phi_rows = phi.int_rows()
        d_psi, psi_rows = psi.int_rows()
        scale = d_phi * d_psi
        # the key of (i, j, c) is base[i][j] + c, symmetric in i and j
        base = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                base[i][j] = base[j][i] = (i * n + j) * N
        targets = [(base[i][j], consts[i][j] * scale)
                   for i in range(n) for j in range(i, n) if consts[i][j]]
        by_t = [[(j, c, w) for j in range(n) for c, w in psi_rows[j][t]] for t in range(N)]
        for r in range(N):
            acc = {}
            for i in range(n):
                bi = base[i]
                for t, v in phi_rows[i][r]:
                    for j, c, w in by_t[t]:
                        k = bi[j] + c
                        acc[k] = acc.get(k, 0) + v * w
            for b, want in targets:
                if acc.pop(b + r, 0) != want:
                    return False
            if any(acc.values()):
                return False
        return True


def build_factorization(i) -> FactorizationPair:
    """The pair of the module's action, phi = left multiplication ev -> odd
    and psi = odd -> ev, checked against the factorization identity."""
    n = i.space.n
    mf = FactorizationPair(i.space, LinMat(n, i.act_ev), LinMat(n, i.act_odd))
    if not mf.check_identity():
        raise InvariantError("factorization identity failed: multiplication bug")
    mf.identity_checked = True
    return mf


def action_columns(module):
    """The nonzeros of each column of each action matrix of ``module``, an
    ideal module or a factorization pair, per part: its action transposed,
    computed once per module object and kept on it (``_columns``)."""
    if module._columns is None:
        module._columns = tuple([m.transpose().nz for m in mats]
                                for mats in (module.act_ev, module.act_odd))
    return module._columns


def fiber_rank(mf: FactorizationPair, v):
    """(rank of phi(v), N - rank): the fiber dimension of coker phi at v.
    The rank is projective, so phi is evaluated at v cleared of denominators."""
    v = vec(v)
    if all(x == 0 for x in v):
        raise PreconditionError("fiber point must be nonzero")
    if mf.space.q(v) != 0:
        raise PreconditionError("fiber points must lie on the quadric")
    r = mat_rank(mf.phi.evaluate(_int_vec(v)[0]))
    return r, mf.N - r


def fiber_rank_from_identity(mf: FactorizationPair, v):
    """(N/2, N/2): the rank of phi(v) and the fiber of coker phi at a point
    v of the quadric outside the radical K, read off the checked identity
    with no elimination.  The pair must have passed ``check_identity`` and
    the form must have rank >= 3 (else ``PreconditionError``).

    Polarizing phi(x) psi(x) = q(x) Id gives phi(u) psi(v) + phi(v) psi(u)
    = 2 b(u, v) Id for all u, v.
      q(v) = 0 gives phi(v) psi(v) = 0, so rank phi(v) + rank psi(v) <= N;
      a u with b(u, v) != 0 (v is not in K) writes 2 b(u, v) Id as a sum
      through psi(v) and phi(v), so the sum is N.
      An h with b(h, v) = 0 and q(h) != 0 gives phi(h) psi(v) = -phi(v)
      psi(h), with phi(h) and psi(h) invertible as phi(h) psi(h) = q(h) Id,
      so rank psi(v) = rank phi(v) = N/2.
    h is the one of ``anisotropic_orthogonal``, which finds one whenever
    the form has rank >= 3, and is checked with b and q before it is used;
    a search that finds none raises ``InvariantError``."""
    space = mf.space
    if not mf.identity_checked or space.rank < 3:
        raise PreconditionError("the rank is read off a checked identity on a form of rank >= 3")
    if space.q(v) != 0:
        raise PreconditionError("fiber points must lie on the quadric")
    h = anisotropic_orthogonal(space, v)
    if h is None or space.b(h, v) != 0 or space.q(h) == 0:
        raise InvariantError("no anisotropic vector orthogonal to a point off the radical")
    half = mf.N // 2
    return half, mf.N - half


def dual_factorization(mf: FactorizationPair) -> FactorizationPair:
    """The transposed pair; its first map presents the twisted dual."""
    return FactorizationPair(mf.space, mf.phi.transpose(), mf.psi.transpose())


class FlagSequence:
    """Data of 0 -> I_W -> I_W' -> I_W[1] -> 0 for W' of codimension 1;
    ``inclusion``, ``quotient`` and ``section`` are (A, B) pairs."""

    __slots__ = ("inner", "outer", "inclusion", "quotient", "exact", "split_subspace",
                 "split_module", "section")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)

    @property
    def split_agree(self) -> bool:
        return self.split_subspace == self.split_module


def flag_sequence(inner: IdealModule, drop) -> FlagSequence:
    """Build and verify the codimension-1 flag sequence of the module
    ``inner`` of w, obtained by dropping the direction d of ``drop`` from w.

    The quotient is q(x) = x d.  ``section`` is sigma(x) = x u for a u with
    b(u, W') = 0 and 2 b(u, d) = 1, which exists exactly when d is not in
    W' + K (K the radical), that is when W cap K = W' cap K; else None.
      sigma is Cl-linear: right and left multiplication commute.
      x u lies in I_W' = Cl g': x = c g' d, and d u commutes with W'.
      q sigma = id: x u d = x - x d u = x, as u d + d u = 1 and x d = 0.
    ``intertwines`` and q . sigma = id are checked on the matrices."""
    if inner.shift:
        raise PreconditionError("flag_sequence expects an unshifted module")
    space, w = inner.space, inner.w
    drop = vec(drop)
    if w.dim < 2:
        raise PreconditionError("flags need an isotropic subspace of dimension >= 2")
    coeffs = mat_solve(Mat.from_cols(list(w.basis)), drop)
    if coeffs is None:
        raise PreconditionError("the dropped vector must lie in w")
    pivot = next((t for t, c in enumerate(coeffs) if c), None)
    if pivot is None:
        raise PreconditionError("the dropped vector must be nonzero")
    # drop has a nonzero coefficient on the basis vector that w_prime omits
    w_prime = Subspace(space, [v for t, v in enumerate(w.basis) if t != pivot])

    outer = build_ideal(space, w_prime)

    inclusion = outer.graded_map(inner, lambda x: x, "inner module does not embed")
    drop_elt = CliffordElement.from_vector(space, drop)
    # outer ev -> inner odd and outer odd -> inner ev
    inner_shift = shift(inner)
    quotient = inner_shift.graded_map(outer, lambda x: multiply(x, drop_elt),
                                      "right multiplication leaves the flag")

    exact = True
    # injectivity, vanishing composite, surjectivity, middle exactness: inc
    # maps a part of inner (its columns) into that part of outer (its rows)
    for inc, q in zip(inclusion, quotient):
        rank_inc, rank_q = mat_rank(inc), mat_rank(q)
        if (rank_inc != inc.cols or not (q @ inc).is_zero()
                or rank_q != inc.cols or rank_inc + rank_q != inc.rows):
            exact = False

    split_subspace = intersection_with_radical(w).same_span(intersection_with_radical(w_prime))
    split_module = _splitting_exists(inner, outer, quotient)

    orth = Mat.from_rows([space.gram.mul_vec(v) for v in w_prime.basis + (drop,)])
    u = mat_solve(orth, (0,) * w_prime.dim + (Fraction(1, 2),))
    section = None
    if u is not None:
        u_elt = CliffordElement.from_vector(space, u)
        section = outer.graded_map(inner_shift, lambda x: multiply(x, u_elt),
                                   "the section leaves the flag")
        if not (intertwines(inner_shift, outer, *section)
                and tuple(q @ s for q, s in zip(quotient, section))
                == (Mat.identity(inner.ev_dim), Mat.identity(inner.odd_dim))):
            raise InvariantError("x -> x u is no module section of the flag quotient")

    return FlagSequence(
        inner=inner,
        outer=outer,
        inclusion=inclusion,
        quotient=quotient,
        exact=exact,
        split_subspace=split_subspace,
        split_module=split_module,
        section=section,
    )


def generator_image_system(i, target):
    """(p, M): the part p of the ideal module ``i`` that holds its
    generator g = w1...wm, and the matrix M of x -> (w.x for w in a basis
    of W) on part p of ``target``, a module given by its action.

    The left annihilator of g is Cl.W: in a basis of V that extends one of
    W, the ordered monomials v_S w_T form a basis of Cl, those with T
    nonempty span both Cl.W and Ann(g), and the v_S g are independent.  So
    a graded module map f: i -> target is fixed by x = f(g), which lies in
    part p, and an x there is the image of one exactly when M x = 0."""
    if not isinstance(i, IdealModule):
        raise PreconditionError("a map is read off the generator of an ideal module")
    p = (i.w.dim + i.shift) % 2
    act, dim = (target.act_odd, target.odd_dim) if p else (target.act_ev, target.ev_dim)
    rows = [row for w in i.w.basis for row in _action(act, w).nz]
    return p, Mat.from_nonzeros(len(rows), dim, rows)


def _splitting_exists(inner, outer, quotient) -> bool:
    """Is there a graded Cl-linear section s: inner[1] -> outer of the
    quotient map, the pair (A, B)?

    s is fixed by x = s(g) with w.x = 0 for each w in W
    (``generator_image_system``), and q.s = id exactly when q_p x is the
    coordinate vector of g, p the part that holds it.  That is one solve on
    the coordinates of x."""
    source = shift(inner)
    p, system = generator_image_system(source, outer)
    g = source.coords_in(p, source.generator)
    if g is None:
        raise InvariantError("the generator has no coordinates in its graded part")
    q = quotient[1 - p]
    system = Mat.from_nonzeros(system.rows + q.rows, q.cols, system.nz + q.nz)
    return mat_solve(system, (0,) * (system.rows - len(g)) + g) is not None


def intertwines(a, b, A, B, pairs=None) -> bool:
    """Does the graded map (A, B): a -> b, A on the odd parts and B on the
    even parts, carry the action of s on a to that of v on b for each pair
    (s, v) of vectors: A phi_a(s) = phi_b(v) B and B psi_a(s) = psi_b(v) A?
    The default pairs (e_i, e_i) ask for a module map.  This is the one
    check of a map against the action.

    No product and no action at a vector is built: each side is summed row
    by row from the nonzeros of the action matrices (``_rows_agree``) and
    the first row that differs returns False.  As with the products, a map
    whose inner dimension does not fit the action raises ``ValueError``,
    and one whose outer shape differs does not intertwine."""
    if pairs is None:
        basis = [a.space.basis_vector(i) for i in range(a.space.n)]
        pairs = zip(basis, basis)
    return all(_rows_agree(A, a.act_ev, s, b.act_ev, v, B)
               and _rows_agree(B, a.act_odd, s, b.act_odd, v, A)
               for s, v in pairs)


def _rows_agree(X, P, s, Q, v, Y) -> bool:
    """X P(s) = Q(v) Y, P(s) = sum_k s_k P[k], one row at a time: row r of
    X P(s) minus row r of Q(v) Y is summed into one ``{col: value}``
    accumulator straight from the nonzeros of the P[k] and Q[k] at the
    nonzero s_k and v_k, and it must be zero."""
    if len(s) != len(P) or len(v) != len(Q):
        raise ValueError("vector length mismatch")
    if X.cols != P[0].rows or Q[0].cols != Y.rows:
        raise ValueError("shape mismatch in product")
    if X.rows != Q[0].rows or P[0].cols != Y.cols:
        return False
    ps = [(m.nz, c) for m, c in zip(P, s) if c]
    qs = [(m.nz, c) for m, c in zip(Q, v) if c]
    ynz = Y.nz
    for r, xrow in enumerate(X.nz):
        acc = {}
        for t, x in xrow:
            for pnz, c in ps:
                xc = x * c
                for j, p in pnz[t]:
                    acc[j] = acc.get(j, 0) + xc * p
        for qnz, c in qs:
            for t, q in qnz[r]:
                qc = q * c
                for j, y in ynz[t]:
                    acc[j] = acc.get(j, 0) - qc * y
        if any(acc.values()):
            return False
    return True


def _action(mats, v) -> Mat:
    """sum_k v_k mats[k] as a matrix, for the Hom systems and their
    certificate; for a basis vector, one of ``mats`` as it is."""
    support = [k for k, x in enumerate(v) if x]
    if len(support) == 1 and v[support[0]] == 1:
        return mats[support[0]]
    return LinMat(len(mats), mats).evaluate(v)


def _bijective(A, B) -> bool:
    """Both parts of a graded map square and of full rank; no inverse."""
    return all(m.rows == m.cols == mat_rank(m) for m in (A, B))


def recover_intersection_with_radical(module) -> Subspace:
    """{v in V : v annihilates the module}, from the action matrices: the
    kernel of v -> sum_i v_i act[i] on both graded parts: one equation
    per nonzero entry position.  For an ideal module it equals the
    intersection of w with the radical."""
    space = module.space
    rows = {}
    for part, mats in enumerate((module.act_ev, module.act_odd)):
        for i, m in enumerate(mats):
            for r, row in enumerate(m.nz):
                for c, x in row:
                    rows.setdefault((part, r, c), []).append((i, x))
    system = Mat.from_nonzeros(len(rows), space.n, list(rows.values()))
    return Subspace(space, mat_rank_kernel(system)[1])


def family_indicator(i: IdealModule) -> str:
    """Which graded half of the module the family witness xi annihilates:
    "EVEN", "ODD", or "NONE" when it kills both halves or neither.

    Requires dim V/K even, checked here, and pi(w) maximal, checked by
    ``standardize``.  ``standardize`` gives a basis of V adapted to w:
    hyperbolic pairs (a_t, b_t) of partners and tails, then the radical,
    which starts with a basis of w cap K; w is spanned by the tails and
    that basis.  xi is the product of the partners a_t and then of the
    radical vectors outside w, in that order.  The map taking the standard
    basis of V_std to that basis is an isometry V_std -> V, so it extends
    to an isomorphism Cl(V_std) -> Cl(V) that keeps the grading and
    carries the ideal of the standardized w onto this one.  xi is the
    image of a monomial, and it kills a half of the module exactly when
    that monomial kills the same half of the standardized module.
    """
    if i.space.rank % 2:
        raise PreconditionError("family_indicator needs dim V/K even")
    std = standardize(i.space, i.w)
    xi = vector_product(i.space, std.partners + std.radical[std.l:])
    killed_ev = all(multiply(xi, b).is_zero() for b in i.ev_basis)
    killed_odd = all(multiply(xi, b).is_zero() for b in i.odd_basis)
    if killed_ev and not killed_odd:
        return "EVEN"
    if killed_odd and not killed_ev:
        return "ODD"
    return "NONE"


class TailVerdict:
    """A restriction or cone comparison: ``kind`` is "ISOMORPHIC", with the
    map tau of ``_tail_comparison`` (``map``, an (A, B) pair) from the
    module ``small`` to the module shifted by ``d``, or "REDUCES_TO_FREE"
    (a section missing W), with only ``d`` and ``parity`` set."""

    __slots__ = ("kind", "d", "parity", "small", "map", "bijective", "linear")

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
        bits = (j for j in range(mask.bit_length()) if mask >> j & 1)
        out = out + vector_product(space, (cols[j] for j in bits)).scale(c)
    return out


def restrict_compare(i: IdealModule, u: Subspace) -> TailVerdict:
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
    codim_u = n - u.dim
    if cap.dim == 0:
        return TailVerdict(kind="REDUCES_TO_FREE", d=codim_u, parity=codim_u % 2)
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
    cap_in_u = Subspace(space_u, [mat_solve(ucol_mat, v) for v in cap.basis])
    restricted = build_ideal(space_u, cap_in_u)

    # adapted basis of w: cap part first, then a complement inside w, of
    # dim W - dim(W cap U) = codim U vectors as U + W = V.  The vectors of
    # an isotropic W anticommute, so the product of the adapted basis is a
    # nonzero multiple of i's generator: the same ideal, and coordinates
    # may be taken in i's bases
    span = IncrementalSpan(cap.basis)
    tail = vector_product(space, [v for v in w.basis if span.add(v)])
    pairs = [(space_u.basis_vector(t), ucols[t]) for t in range(space_u.n)]
    return _tail_comparison(restricted, i, ucols, tail, codim_u, pairs,
                            "comparison map leaves the module")


def _tail_comparison(small, big, cols, tail, d, vector_pairs, what):
    """The map tau: x -> embed(x) * tail from the module ``small`` (on the
    space whose basis ``cols`` embeds) into ``big`` shifted by ``d``, as an
    ISOMORPHIC verdict: its (A, B) pair of graded matrices (``map``),
    whether both are square of full rank (``bijective``), and whether
    tau(s x) = v tau(x) for every pair (s, v) of ``vector_pairs``
    (``linear``)."""
    space = big.space
    target = shift(big) if d % 2 else big
    tau = target.graded_map(
        small, lambda xi: multiply(_embed_element(space, cols, xi), tail), what)
    return TailVerdict(kind="ISOMORPHIC", d=d, parity=d % 2, small=small, map=tau,
                       bijective=_bijective(*tau),
                       linear=intertwines(small, target, *tau, vector_pairs))


def cone_compare(i: IdealModule, qs: QuotientSpace) -> TailVerdict:
    """Compare the module ``i`` of W on V with the module of W/U on V/U,
    where U, the modded subspace of ``qs``, must be a proper subspace of W
    (``quotient_space`` has put it in the radical).

    The section embeds Cl(V/U) into Cl(V); right multiplication by a basis
    of U gives the isomorphism I' -> I shifted by dim U, checked exactly,
    Cl(V)-linearly.
    """
    space, u = i.space, qs.modded
    if i.shift:
        raise PreconditionError("cone_compare expects an unshifted module")
    if space != qs.source:
        raise PreconditionError("the module does not live on the cone's space")
    if not all(i.w.contains(v) for v in u.basis):
        raise PreconditionError("cone vertex must lie inside w")
    w_bar = Subspace.span(qs.space, [qs.project(v) for v in i.w.basis])
    if not w_bar.dim:
        raise PreconditionError("the cone vertex U must be a proper subspace of w")
    quotient = build_ideal(qs.space, w_bar)
    section_cols = [qs.section.col(j) for j in range(qs.section.cols)]
    tail = vector_product(space, u.basis)
    pairs = [(qs.project(space.basis_vector(t)), space.basis_vector(t))
             for t in range(space.n)]
    return _tail_comparison(quotient, i, section_cols, tail, u.dim, pairs,
                            "cone comparison leaves the module")


def quadric_points(space: QuadraticSpace, w: Subspace):
    """Rational points on the quadric, each once up to scaling, for a
    nonzero isotropic w and K the radical: the isotropic
    ``candidate_vectors``; a point of each nonempty stratum, from the basis
    of W cap K, the first vector k of K's basis outside W, the first u of
    W's basis outside K, and u + k; then, for the ramps y = (k, k+1, ...,
    k+n-1), k = 1..8, the second point q(y) p - 2 b(p, y) y where the line
    through y and the first point p outside K meets the quadric (a line
    through a point of K meets it there twice)."""
    points = []
    seen = set()

    def push(v):
        if all(x == 0 for x in v):
            return
        # projective dedup: normalize by the first nonzero coordinate
        lead = next(x for x in v if x)
        key = tuple(exact(x, lead) for x in v)
        if key not in seen:
            seen.add(key)
            points.append(tuple(v))

    for v in candidate_vectors(space):
        if space.q(v) == 0:
            push(v)
    rad = radical_basis(space)
    k_out = [v for v in rad.basis if not w.contains(v)][:1]
    u_out = [v for v in w.basis if not rad.contains(v)][:1]
    sums = [vec(a + b for a, b in zip(k, u)) for k in k_out for u in u_out]
    for v in [*intersection_with_radical(w).basis, *k_out, *u_out, *sums]:
        push(v)
    p = next((v for v in points if not rad.contains(v)), None)
    if p is not None:
        for k in range(1, 9):
            y = tuple(range(k, k + space.n))
            qy, by = space.q(y), 2 * space.b(p, y)
            push(vec(qy * a - by * c for a, c in zip(p, y)))
    return points


class EquivarianceVerdict:
    """The verdict of ``equivariance_check``; ``rho`` and ``sigma`` are
    (A, B) pairs."""

    __slots__ = ("parity", "bijective", "linear", "twisted", "rho", "sigma")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    @property
    def ok(self) -> bool:
        return bool(self.bijective and self.linear and self.twisted)


def equivariance_check(g: GroupElement, i: IdealModule) -> EquivarianceVerdict:
    """Verify that right multiplication by g^{-1} (rho) is a Cl-linear
    bijection, by rank, onto the module of gWg^{-1} (shifted for odd g) and
    that conjugation (sigma) satisfies the twisted commuting square with the
    reflected vectors.  When g fixes W, the target has i's canonical bases,
    so the unshifted ``i`` is taken as it is, with its solvers and action."""
    space = i.space
    par = g.parity
    w_conj = conjugate_subspace(g, i.w)
    target = i if not i.shift and w_conj.same_span(i.w) else build_ideal(space, w_conj)
    if par:
        target = shift(target)
    ginv = g.inverse_element
    gelt = g.as_element

    # x g^{-1} for each basis element x of i, computed once for rho and sigma
    right = {id(xi): multiply(xi, ginv) for xi in i.ev_basis + i.odd_basis}
    rho = target.graded_map(i, lambda xi: right[id(xi)], "right multiplication misses the target")
    linear = intertwines(i, target, *rho)
    # twisted square: conjugation sigma(xi) = g xi g^{-1} lands in the
    # unshifted module of gWg^{-1} and carries the action of v to that of
    # gvg^{-1}; shifting back shares the solvers and action of the target
    iprime = shift(target) if par else target
    sigma = iprime.graded_map(i, lambda xi: multiply(gelt, right[id(xi)]),
                              "conjugation misses the target")
    basis = [space.basis_vector(t) for t in range(space.n)]
    return EquivarianceVerdict(
        parity=par,
        bijective=_bijective(*rho),
        linear=linear,
        twisted=intertwines(i, iprime, *sigma, [(v, g.conjugate_vector(v)) for v in basis]),
        rho=rho,
        sigma=sigma,
    )
