"""Hom spaces, isomorphism and simplicity tests, irreducibility by
submodule closures (spans grown with ``exactalg.IncrementalSpan``),
Hilbert polynomials, slope, and cohomology tables read off the checked
factorization identity.

A Hom space runs from an ideal module I = Cl.g to a module given by its
action (``space``, ``ev_dim``, ``odd_dim``, ``act_ev``, ``act_odd``): an
ideal module or a factorization pair.  A map is fixed by x = f(g), any
target vector with w.x = 0 for w in W (``spinor.generator_image_system``),
so the dimension is a kernel on N unknowns; a map is built only when read.
The cross-check is a certificate of that kernel read apart from the
elimination: w.x = 0 by products with the target's action, full rank from
the kernel's reduced form, and one combination map through ``intertwines``
(``GradedHom.crosscheck_dimension``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import factorial
from operator import add

from .clifford import CliffordElement, multiply
from .errors import InvariantError, PreconditionError
from .exactalg import (
    IncrementalSpan,
    Mat,
    binomial_upoly,
    exact,
    mat_invertible,
    mat_rank_kernel,
    monomial_count,
    mult_map_rank,
    transposed_mult_map_rank,
    _sparse,
)
from .quadform import candidate_vectors, isotropic_type, standardize
from .spinor import (
    FactorizationPair,
    IdealModule,
    _action,
    _bijective,
    family_indicator,
    generator_image_system,
    intertwines,
    recover_intersection_with_radical,
    word_walk,
)

# The suites check cohomology and Euler sums at the twists -WINDOW..WINDOW.
# Every h^i(S(t)) is a closed form in N, n and t, so this bounds no cost;
# it is the span the reports record.
WINDOW = 6


class GradedHom:
    """Graded module maps from the ideal module ``source`` to ``target``,
    kept as a basis of the generator images x (``hom_space``); the
    dimension is its length.  The map of an x is built when it is read:
    the words e_M g that ``build_ideal`` spans the source with are walked
    from g in the source and from x in the target, e_M g -> e_M x, and the
    target walk is carried back through the inverse of the source walk,
    computed once per Hom."""

    __slots__ = ("source", "target", "dimension", "_part", "_kernel", "_walk", "_crosscheck")

    def __init__(self, source, target, part, kernel):
        self.source, self.target, self._part, self._kernel = source, target, part, kernel
        self.dimension = len(kernel)
        self._walk = self._crosscheck = None

    def _words(self, module, columns, v):
        """The source's ``word_walk`` (as in ``build_ideal``) from v in part
        ``_part`` of ``module``, a word of |M| letters in part _part + |M|:
        the columns of a matrix per part, read only by a product or an
        inverse, which make them canonical."""
        part = self._part
        walk = word_walk(self.source.w, _sparse(v),
                         lambda i, x, k: _image(columns[(part + k) % 2][i], x))
        cols = [[sorted(x.items()) for x, k in walk if (part + k) % 2 == par] for par in (0, 1)]
        return [Mat.from_nonzeros(len(c), dim, c).transpose()
                for c, dim in zip(cols, (module.ev_dim, module.odd_dim))]

    def _map(self, x):
        """The pair (A, B) of the map that takes g to x."""
        if self._walk is None:
            src = self.source
            g = src.coords_in(self._part, src.generator)
            inverse = list(map(mat_invertible, self._words(src, _action_columns(src), g)))
            if None in inverse:
                raise InvariantError("the words e_M g are no basis of the source")
            self._walk = _action_columns(self.target), inverse
        columns, inverse = self._walk
        B, A = (m @ inv for m, inv in zip(self._words(self.target, columns, x), inverse))
        return A, B

    def pair(self, k):
        """Basis pair k, the map of the k-th generator image."""
        return self._map(self._kernel[k])

    def at(self, coeffs):
        """The pair sum_k coeffs[k] * basis[k]: the map of that
        combination of the generator images."""
        return self._map([sum(c * a for c, a in zip(coeffs, col) if c)
                          for col in zip(*self._kernel)])

    @property
    def crosscheck_dimension(self):
        """The dimension when the kernel passes its certificate, read apart
        from the elimination, else 0; computed on first read.

        The certificate: each kernel vector x has w.x = 0 for each w in W's
        basis, by a product with the target's action (``_action``), not by
        a row of the eliminated system; the kernel has full rank, as the
        last nonzeros of its vectors, the 1s that ``mat_rank_kernel`` leaves
        at the free columns, lie in distinct columns; and the map of one
        combination, every coefficient 1, passes ``intertwines``.

        That is enough: the map c.g -> c.x is well defined exactly when
        Ann(g) x = 0, and Ann(g) = Cl.W.  Cl.W lies in Ann(g), and both have
        dimension 2^n - 2^(n-m): dim Cl.g = 2^(n-m) is the ``dimension_law``
        record, and the monomials v_S w_T with T nonempty span Cl.W in a
        basis of Cl (``generator_image_system``).  So on a module target the
        first part makes each f_x a module map, and the combination map
        checks the target's action and the word walk of ``_map`` on one map
        in place of one per basis vector."""
        if self._crosscheck is None:
            self._crosscheck = self.dimension if self._certified() else 0
        return self._crosscheck

    def _certified(self):
        """Whether the kernel passes the certificate of
        ``crosscheck_dimension``."""
        kernel = self._kernel
        if not kernel:
            return True
        act = self.target.act_odd if self._part else self.target.act_ev
        for w in self.source.w.basis:
            m = _action(act, w)
            if any(any(m.mul_vec(x)) for x in kernel):
                return False
        last = [next((j for j in range(len(x) - 1, -1, -1) if x[j]), None) for x in kernel]
        if None in last or len(set(last)) < len(last) or any(x[j] != 1 for x, j in zip(kernel, last)):
            return False
        return intertwines(self.source, self.target, *self.at((1,) * len(kernel)))


def _action_columns(module):
    """The nonzeros of each column of each action matrix, per part."""
    return tuple([m.transpose().nz for m in mats] for mats in (module.act_ev, module.act_odd))


def _image(cols, v):
    """The sparse image of v: the columns ``cols`` at its nonzeros, summed."""
    acc = {}
    for c, a in v.items():
        for r, x in cols[c]:
            acc[r] = acc.get(r, 0) + a * x
    return {r: x for r, x in acc.items() if x}


def hom_space(a, b) -> GradedHom:
    """All graded Cl-module maps from the ideal module ``a`` (else
    ``PreconditionError``) to ``b``, a module given by its action: the
    images x of g with w.x = 0 for w in W, a kernel on N unknowns."""
    if a.space != b.space:
        raise PreconditionError("hom requires modules over one space")
    part, system = generator_image_system(a, b)
    return GradedHom(a, b, part, mat_rank_kernel(system)[1])


class IsoVerdict:
    __slots__ = ("kind", "reason", "certificate")

    def __init__(self, kind, reason=None, certificate=None):
        self.kind = kind
        self.reason = reason
        self.certificate = certificate

    def __repr__(self):
        return f"IsoVerdict({self.kind}, {self.reason})"


def _candidates(d, grid, ramps=0):
    """Coefficient vectors of length d, lazily: every vector over ``grid``
    in ``product`` order when d <= 6, then the ramps (k, k+1, ..., k+d-1)
    for k = 1..``ramps``; the zero vector is skipped."""
    sweep = product(grid, repeat=d) if d <= 6 else ()
    line = (tuple(range(k, k + d)) for k in range(1, ramps + 1))
    return (cs for cs in chain(sweep, line) if any(cs))


def _search_invertible(hom):
    """(A, B, A^-1, B^-1) for an invertible pair in the hom space, or None:
    the basis pairs from the last to the first, then the {1, -1, 0} sweep,
    then the ramps; B is inverted only once A is.  On every dual seen so far
    the last basis map is the only invertible one, so the dual certificate
    comes first; that order is checked, not proved, and moves no verdict.

    The ramps lie on one affine line k -> k(1, ..., 1) + (0, 1, ..., d-1),
    so A and B there are affine in k and det A * det B is a polynomial in
    k of degree at most ev_dim + odd_dim.  Unless it vanishes on the whole
    line it has at most that many roots, so the search stops after the
    first ev_dim + odd_dim + 1 ramps.  The pair it returns is checked with
    ``intertwines``."""
    target = hom.target
    cands = _candidates(hom.dimension, (1, -1, 0), target.ev_dim + target.odd_dim + 1)
    for A, B in chain(map(hom.pair, reversed(range(hom.dimension))), map(hom.at, cands)):
        ai = mat_invertible(A)
        bi = None if ai is None else mat_invertible(B)
        if bi is not None:
            if not intertwines(hom.source, target, A, B):
                raise InvariantError("an invertible Hom pair does not intertwine the actions")
            return A, B, ai, bi
    return None


def _family_certificate(i):
    """NOT_ISO certificate for the unshifted ideal module i against i[1],
    from ``family_indicator``; None when it does not apply or is NONE.  The
    witness xi kills one graded half of i and not the other.  Shifting
    swaps the halves, so in i[1] it kills the other one, and a graded
    isomorphism i -> i[1], which commutes with xi, cannot exist."""
    try:
        ind = family_indicator(i)
    except PreconditionError:
        return None
    if ind == "NONE":
        return None
    return {"indicator": ind, "shifted_indicator": "ODD" if ind == "EVEN" else "EVEN"}


def _orthogonal_shift_witness(a, b):
    """For a module and its shift: right multiplication by u^-1, for the
    first anisotropic u orthogonal to w in ``candidate_vectors`` order, as
    (A, B, u); None when there is no such u.  u anticommutes with W, so
    g u^-1 = +-u^-1 g lies in the ideal, and x -> x u undoes the map on Cl:
    a map that fails ``intertwines`` or ``_bijective``, by rank, is a bug."""
    space = a.space
    u = next((u for u in candidate_vectors(space)
              if space.q(u) != 0 and all(space.b(u, wv) == 0 for wv in a.w.basis)), None)
    if u is None:
        return None
    uinv = CliffordElement.from_vector(space, u).scale(exact(1, space.q(u)))
    A, B = b.graded_map(a, lambda xi: multiply(xi, uinv),
                        "right multiplication leaves the shift")
    if not (intertwines(a, b, A, B) and _bijective(A, B)):
        raise InvariantError("x -> x u^-1 is no module isomorphism onto the shift")
    return (A, B, u)


def is_isomorphic(a, b) -> IsoVerdict:
    """ISO with an invertible certificate, NOT_ISO with a reason, or
    UNDECIDED.  Deterministic: the search order is fixed.  The Hom searches
    run from each side that is an ideal module (``PreconditionError`` when
    neither is), and the End dimensions are compared when both are and the
    forward search finds no invertible map."""
    if a.space != b.space:
        raise PreconditionError("modules live over different spaces")
    if (a.ev_dim, a.odd_dim) != (b.ev_dim, b.odd_dim):
        return IsoVerdict("NOT_ISO", reason="graded dimensions differ")
    if a.ev_dim == 0:
        return IsoVerdict("ISO", reason="both modules are zero",
                          certificate={"A": Mat.zeros(0, 0), "B": Mat.zeros(0, 0)})
    ann_a = recover_intersection_with_radical(a)
    ann_b = recover_intersection_with_radical(b)
    if not ann_a.same_span(ann_b):
        return IsoVerdict(
            "NOT_ISO",
            reason="recovered radical intersections differ",
            certificate={
                "ann_a": [list(v) for v in ann_a.basis],
                "ann_b": [list(v) for v in ann_b.basis],
            },
        )
    both = isinstance(a, IdealModule) and isinstance(b, IdealModule)
    if both and a.w.same_span(b.w) and a.shift != b.shift:
        # a module and its shift
        fam = _family_certificate(b if a.shift else a)
        if fam is not None:
            return IsoVerdict("NOT_ISO", reason="family indicator", certificate=fam)
        witness = _orthogonal_shift_witness(a, b)
        if witness is not None:
            A, B, u = witness
            return IsoVerdict("ISO", reason="orthogonal reflection witness",
                              certificate={"A": A, "B": B, "vector": u})
    # Hom(a, b), then Hom(b, a), each from an ideal module; the certificate
    # always maps a -> b, so the reverse one is the inverse of the found pair
    directions = [(tag, src, dst) for tag, src, dst in (("", a, b), (" (reverse)", b, a))
                  if isinstance(src, IdealModule)]
    if not directions:
        raise PreconditionError("the Hom search needs an ideal module on one side")
    for tag, src, dst in directions:
        hom = hom_space(src, dst)
        if hom.dimension == 0:
            return IsoVerdict("NOT_ISO", reason="hom space vanishes" + tag)
        found = _search_invertible(hom)
        if found:
            A, B, ai, bi = found
            return IsoVerdict("ISO", reason="invertible intertwiner" + tag,
                              certificate={"A": ai, "B": bi} if tag else {"A": A, "B": B})
        if both and not tag:
            # an isomorphism a -> b conjugates End(a) onto End(b), so the
            # comparison is needed only when the search found none
            end_a = hom_space(a, a)
            end_b = hom_space(b, b)
            if end_a.dimension != end_b.dimension:
                return IsoVerdict(
                    "NOT_ISO",
                    reason="endomorphism dimensions differ",
                    certificate={"end_a": end_a.dimension, "end_b": end_b.dimension},
                )
    return IsoVerdict("UNDECIDED", reason="no invertible combination found")


def factorization_equivalent(i, pair):
    """(A, B, A^-1, B^-1) for an invertible graded map (A, B) from the
    ideal module ``i`` to ``pair``, so A phi_i = phi_pair B; or None when
    the search finds none.  It certifies that ``pair`` presents the
    cokernel of i's factorization, and its inverse maps ``pair`` to ``i``."""
    if (i.ev_dim, i.odd_dim) != (pair.ev_dim, pair.odd_dim):
        return None
    return _search_invertible(hom_space(i, pair))


class SimplicityVerdict:
    __slots__ = ("end_dim", "computed_simple", "predicted_simple", "case")

    def __init__(self, end_dim, computed_simple, predicted_simple, case):
        self.end_dim = end_dim
        self.computed_simple = computed_simple
        self.predicted_simple = predicted_simple
        self.case = case

    @property
    def agree(self) -> bool:
        return self.computed_simple == self.predicted_simple


def predict_simplicity(space, w) -> tuple:
    """The trichotomy: (predicted_simple, case_name)."""
    j, k, l = isotropic_type(space, w)
    rad_dim = space.n - space.rank
    if j == k and l == rad_dim:
        return True, "maximal"
    if space.rank % 2 == 0 and j == k and l == rad_dim - 1:
        return True, "corank-one-in-radical"
    return False, "otherwise"


def simplicity_verdict(i: IdealModule, end: GradedHom | None = None) -> SimplicityVerdict:
    """End(i) decides simplicity; ``end`` is that space when already computed."""
    if end is None:
        end = hom_space(i, i)
    computed = end.dimension == 1
    predicted, case = predict_simplicity(i.space, i.w)
    return SimplicityVerdict(end.dimension, computed, predicted, case)


def _closure_from_coords(columns, ev_seeds, odd_seeds):
    """(ev_dim, odd_dim) of the smallest graded subspace pair containing
    the seed coordinate vectors (an empty one adds nothing) and closed
    under left multiplication by every coordinate vector, given the
    module's ``_action_columns``.  The closure grows on sparse
    ``{col: value}`` vectors."""
    spans = (IncrementalSpan(), IncrementalSpan())
    queue = [(par, v) for par, seeds in ((0, ev_seeds), (1, odd_seeds))
             for v in map(_sparse, seeds) if spans[par].add(v)]
    while queue:
        par, v = queue.pop()
        for cols in columns[par]:
            img = _image(cols, v)
            if spans[1 - par].add(img):
                queue.append((1 - par, img))
    return spans[0].dim, spans[1].dim


class IrredVerdict:
    __slots__ = ("kind", "witness", "certificate")

    def __init__(self, kind, witness=None, certificate=None):
        self.kind = kind
        self.witness = witness
        self.certificate = certificate


def irreducibility_check(i: IdealModule) -> IrredVerdict:
    """REDUCIBLE with a closure witness, IRREDUCIBLE, or UNDECIDED.

    IRREDUCIBLE rests on the closure sweep finding no proper submodule,
    together with ``predict_simplicity`` returning "maximal".  The
    standardized generator identities in its certificate are a consistency
    record: they hold on REDUCIBLE modules too, F-QS and F-QSb among them."""
    n_ev, n_odd = i.ev_dim, i.odd_dim
    ev_rows = list(map(Mat.identity(n_ev).row, range(n_ev)))
    odd_rows = list(map(Mat.identity(n_odd).row, range(n_odd)))
    singles = [(v, ()) for v in ev_rows] + [((), v) for v in odd_rows]
    # pairs are tried once every single seed closes to the whole module; a
    # pair with one seed in each part closes to the sum of two such
    # closures, so only sums within one part can be proper
    pairs = chain(((tuple(map(add, x, y)), ()) for x, y in combinations(ev_rows, 2)),
                  (((), tuple(map(add, x, y))) for x, y in combinations(odd_rows, 2)))
    columns = _action_columns(i)
    for ev, od in chain(singles, pairs):
        ev_dim, odd_dim = _closure_from_coords(columns, [ev], [od])
        if 0 < ev_dim + odd_dim < n_ev + n_odd:
            return IrredVerdict(
                "REDUCIBLE",
                witness={"ev_dim": ev_dim, "odd_dim": odd_dim,
                         "seed": {"ev": ev, "odd": od}},
            )
    if predict_simplicity(i.space, i.w)[1] != "maximal":
        return IrredVerdict("UNDECIDED")
    return IrredVerdict("IRREDUCIBLE", certificate=_irreducibility_certificate(i))


def _irreducibility_certificate(i: IdealModule):
    """Verify the generator identities of the standardized basis; returns
    the checklist.  They are a consistency record, not a proof of
    irreducibility: they hold on REDUCIBLE modules too (F-QS, F-QSb).
    Requires pi(w) maximal; ``standardize`` raises ``PreconditionError``
    otherwise.  Once ``standardize`` has passed its exact normal-form
    check, a failing identity is a bug: it raises ``InvariantError``.

    The identities are those of the standardized basis, read on i itself.
    ``standardize`` gives a basis of V adapted to w: in odd rank an
    anisotropic vector, then hyperbolic pairs (a_t, b_t) of partners and
    tails, then the radical, which starts with a basis of w cap K; w is
    spanned by the tails and that basis.  The map taking the standard basis
    of V_std to it is an isometry V_std -> V, so it extends to an
    isomorphism Cl(V_std) -> Cl(V) of graded algebras, which carries each
    standard basis vector to the basis vector in its place.  It carries the
    standardized generator to the product of a basis of w, a nonzero
    multiple of ``i.generator``, and each identity below is linear in the
    generator.  So each holds here exactly when it holds on the
    standardized module."""
    std = standardize(i.space, i.w)

    def vecel(v):
        return CliffordElement.from_vector(i.space, v)

    partners = [vecel(v) for v in std.partners]
    tails = [vecel(v) for v in std.tails]
    gen = i.generator
    checks = []

    def check(holds, identity):
        if not holds:
            raise InvariantError(f"standardized generator identity fails: {identity}")
        checks.append(identity)

    killers = tails + [vecel(v) for v in std.radical[:std.l]]
    check(all(multiply(v, gen).is_zero() for v in killers), "w kills the generator")
    check(all(multiply(b, multiply(a, gen)) == gen for a, b in zip(partners, tails)),
          "partner pair restores the generator")
    check(all(multiply(a, b) == multiply(b, a).scale(-1)
              for s, a in enumerate(partners) for t, b in enumerate(tails) if s != t),
          "partners anticommute across pairs")
    diag = None
    if std.diag is not None:
        v0 = vecel(std.diag)
        diag = i.space.q(std.diag)
        check(multiply(v0, multiply(v0, gen)) == gen.scale(diag),
              "anisotropic direction squares to a nonzero scalar")
    return {"identities": checks, "k": len(tails), "diag": diag}


class SheafNumerics:
    __slots__ = ("hilbert", "rank", "degree", "slope", "torsion_flag")

    def __init__(self, hilbert, rank, degree, slope, torsion_flag):
        self.hilbert = hilbert
        self.rank = rank
        self.degree = degree
        self.slope = slope
        self.torsion_flag = torsion_flag


@lru_cache(maxsize=None)
def _quadric_polys(n: int):
    """(C(t+n-2, n-2), C(t+n-1, n-1) - C(t+n-3, n-1)): the Hilbert
    polynomials of coker(O(-1) -> O) on P^{n-1}, which is C(t+n-1, n-1) -
    C(t+n-2, n-1) by Pascal's rule, and of the quadric O_Q.  They depend on
    n only."""
    return (binomial_upoly(n - 2, n - 2),
            binomial_upoly(n - 1, n - 1) - binomial_upoly(n - 3, n - 1))


def sheaf_numerics(mf: FactorizationPair) -> SheafNumerics:
    """Hilbert polynomial from the two-term resolution; rank, degree and
    slope read off against the quadric's own Hilbert polynomial.  Only n
    and N are read, so any pair will do; N = 1 is the torsion case, which
    for an ideal module is codim W = 1 by the dimension law."""
    n = mf.space.n
    N = mf.N
    line, chi_oq = _quadric_polys(n)
    hilbert = line.scale(N)
    if N == 1:
        return SheafNumerics(hilbert, None, None, None, True)
    d = n - 2
    if hilbert.degree() != d:
        raise InvariantError(
            f"Hilbert polynomial has degree {hilbert.degree()}, expected {d}"
        )
    deg_q = chi_oq.coeff(d) * factorial(d)
    rank = exact(hilbert.coeff(d) * factorial(d), deg_q)
    if d >= 1:
        c_oq = chi_oq.coeff(d - 1) * factorial(d - 1)
        degree = exact(hilbert.coeff(d - 1) * factorial(d - 1) - c_oq * rank)
    else:
        degree = 0
    slope = exact(degree, rank)
    return SheafNumerics(hilbert, rank, degree, slope, False)


def cohomology_dim(mf, idx: int, t: int) -> int:
    """Dimension of H^idx(S(t)), S = coker phi, from the resolution
    0 -> O(-1)^N -> O^N -> S -> 0 on P^{n-1}.

    psi phi = q Id, q != 0 in a domain, makes phi and phi^T injective, of
    rank N * df(t-1) in degree t (df(d) counts degree-d monomials); so h^0
    = N * (df(t) - df(t-1)), the top index is that at s = -t-n+1, and line
    bundles on P^{n-1} have no middle cohomology.  Any twist t is read off
    these closed forms.

    The argument needs the identity: a pair whose ``identity_checked`` is
    unset (hand-built, swapped, dual) is checked here once, and one that
    fails raises ``PreconditionError`` at every index.  ``check_identity``
    reads phi psi = q Id alone: for N x N phi and psi over k(x), q != 0
    makes phi invertible and psi = q phi^-1, so psi phi = q Id as well; a
    pair of any other shape fails it.  The one cross-check:
    (idx 0, t = 2) also eliminates phi and phi^T in degree 2, phi^T read
    off the rows of phi (``transposed_mult_map_rank``), and a rank other
    than N * n raises ``InvariantError``.
    """
    n = mf.space.n
    N = mf.N
    top = n - 2
    if idx < 0 or idx > top:
        raise PreconditionError("cohomology index out of range")
    if not mf.identity_checked:
        if not mf.check_identity():
            raise PreconditionError("phi psi = q Id fails: the pair resolves no sheaf")
        mf.identity_checked = True
    if idx == 0 and t == 2:
        for rank in (mult_map_rank, transposed_mult_map_rank):
            r = rank(mf.phi, 2)
            if r != N * n:
                raise InvariantError(
                    f"multiplication map of rank {r} in degree 2, expected {N * n}"
                    " from phi psi = q Id"
                )

    def coker(d):
        return N * (monomial_count(n, d) - monomial_count(n, d - 1))

    if n == 2:
        return coker(t) + coker(-t - n + 1)
    if idx == 0:
        return coker(t)
    if idx == top:
        return coker(-t - n + 1)
    return 0


def euler_characteristic_matches(mf, numerics: SheafNumerics, t: int) -> bool:
    """Whether sum_i (-1)^i h^i(S(t)) is the Hilbert polynomial at t."""
    total = sum((-1) ** i * cohomology_dim(mf, i, t) for i in range(max(mf.space.n - 1, 1)))
    return total == numerics.hilbert(t)


def idempotent_probe(end: GradedHom):
    """Search the endomorphism space, when its dimension is at most 6, for a
    nontrivial idempotent pair on the half-integer grid; a hit certifies
    decomposability, a miss is only a record."""
    ident_a = Mat.identity(end.target.odd_dim)
    ident_b = Mat.identity(end.target.ev_dim)

    def is_nontrivial_idem(A, B):
        if (A @ A, B @ B) != (A, B):
            return False
        if A.is_zero() and B.is_zero():
            return False
        if A == ident_a and B == ident_b:
            return False
        return True

    halves = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2))
    for cs in _candidates(end.dimension, halves):
        A, B = end.at(cs)
        if is_nontrivial_idem(A, B):
            return {"A": A, "B": B, "coeffs": cs}
    return None
