"""Hom spaces, isomorphism and simplicity tests, irreducibility by
submodule closures (spans grown with ``exactalg.IncrementalSpan``),
Hilbert polynomials, slope, and cohomology tables.

Hom spaces are computed two ways and compared: the intertwining system
A phi = phi' B in the matrix pair (A, B), and the direct graded-module
equations that also impose B psi = psi' A.  The first determines the
second (multiplying by psi on both sides), and the computation checks it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial

from .clifford import CliffordElement, multiply
from .errors import (
    InvariantError,
    PreconditionError,
    SchemaError,
    SpanError,
    SpinorError,
    StandardizationUnavailable,
)
from .exactalg import (
    IncrementalSpan,
    Mat,
    ZERO,
    binomial_upoly,
    mat_invertible,
    monomial_count,
    mult_map_rank,
    _hom_system,
    _kernel_from_sparse_echelon,
)
from . import _kernels
from .quadform import radical_basis, standardize, sub_intersection
from .spinor import (
    IdealModule,
    MatrixFactorization,
    _is_intertwiner,
    build_ideal,
    recover_intersection_with_radical,
    shift,
)

DEFAULT_SEED = 20103

# Cohomology runs over the twists -window..window, and the multiplication
# map in degree t has N * C(t + n - 1, n - 1) rows: F-H6a's
# ``verify --suite all`` takes 0.14 s at window 6, 0.88 s at 12 and 3.9 s
# at 16 (Python 3.11, 2-vCPU Xeon), and F-H6 at window 40 had not ended
# after 25 s.
MAX_WINDOW = 12


class GradedHom:
    """Basis of graded module maps source -> target as pairs (A, B):
    A on the odd parts, B on the even parts."""

    __slots__ = ("source", "target", "basis", "dimension", "crosscheck_dimension",
                 "companion_identity_holds")

    def __init__(self, source, target, basis, crosscheck_dimension, companion):
        self.source = source
        self.target = target
        self.basis = tuple(basis)
        self.dimension = len(self.basis)
        self.crosscheck_dimension = crosscheck_dimension
        self.companion_identity_holds = companion


def hom_space(a, b) -> GradedHom:
    """All graded Cl-module maps a -> b, with the two-route cross-check.

    One sparse elimination of the A phi = phi' B rows gives the basis; the
    B psi = psi' A rows are then reduced against the same pivots, and the
    rank they add must be zero."""
    if a.space != b.space:
        raise PreconditionError("hom requires modules over one space")
    phi_rows, psi_rows, nvars = _hom_system(a, b)
    pivots = _kernels.sparse_echelon(phi_rows)
    dim = nvars - len(pivots)
    kernel = _kernel_from_sparse_echelon(pivots, nvars)
    _kernels.sparse_echelon(psi_rows, pivots)
    dim2 = nvars - len(pivots)
    if dim != dim2:
        raise InvariantError(
            f"hom-space routes disagree: {dim} from A phi = phi' B, "
            f"{dim2} with B psi = psi' A as well"
        )
    na = b.odd_dim * a.odd_dim
    basis = []
    companion = True
    for v in kernel:
        A = Mat(b.odd_dim, a.odd_dim, v[:na]) if na else Mat.zeros(b.odd_dim, a.odd_dim)
        B = Mat(b.ev_dim, a.ev_dim, v[na:]) if nvars - na else Mat.zeros(b.ev_dim, a.ev_dim)
        basis.append((A, B))
        for i in range(a.space.n):
            if B @ a.act_odd[i] != b.act_odd[i] @ A:
                companion = False
    return GradedHom(a, b, basis, dim2, companion)


class IsoVerdict:
    __slots__ = ("kind", "reason", "certificate")

    def __init__(self, kind, reason=None, certificate=None):
        self.kind = kind
        self.reason = reason
        self.certificate = certificate

    def __repr__(self):
        return f"IsoVerdict({self.kind}, {self.reason})"


def _invertible_pair(A, B):
    """(A, B, A^-1, B^-1) when both are invertible, else None."""
    ai = mat_invertible(A)
    if ai is None:
        return None
    bi = mat_invertible(B)
    if bi is None:
        return None
    return (A, B, ai, bi)


def _combine(hom, coeffs):
    """The pair sum_k coeffs[k] * hom.basis[k]."""
    A = Mat.zeros(*_shape(hom, 0))
    B = Mat.zeros(*_shape(hom, 1))
    for c, (HA, HB) in zip(coeffs, hom.basis):
        if c:
            A = A + HA.scale(c)
            B = B + HB.scale(c)
    return A, B


def _search_invertible(hom, rng, tries=200):
    """Look for an invertible pair in the hom space: basis elements, then
    small integer sweeps, then seeded random combinations."""
    d = hom.dimension
    if d == 0:
        return None
    for A, B in hom.basis:
        got = _invertible_pair(A, B)
        if got:
            return got
    sweep = product((1, -1, 0), repeat=d) if d <= 6 else ()
    randoms = ([rng.randint(-9, 9) for _ in range(d)] for _ in range(tries))
    for cs in chain(sweep, randoms):
        if any(cs):
            got = _invertible_pair(*_combine(hom, cs))
            if got:
                return got
    return None


def _shape(hom, which):
    if which == 0:
        return (hom.target.odd_dim, hom.source.odd_dim)
    return (hom.target.ev_dim, hom.source.ev_dim)


def _family_certificate(a, b):
    """NOT_ISO certificate for a module against its own shift via the
    standardized annihilation indicator; None when not applicable."""
    from .spinor import family_indicator

    if not (isinstance(a, IdealModule) and isinstance(b, IdealModule)):
        return None
    if not a.w.same_span(b.w) or a.shift == b.shift:
        return None
    try:
        std = standardize(a.space, a.w)
    except SpinorError:
        return None
    try:
        module = build_ideal(std.space_std, std.w_std)
        ind = family_indicator(module)
    except PreconditionError:
        return None
    if ind == "NONE":
        return None
    # the shifted module flips the indicator, so the two disagree
    other = family_indicator(shift(module))
    if other != ind:
        return {"indicator": ind, "shifted_indicator": other}
    return None


def _orthogonal_shift_witness(a, b, rng):
    """For a module and its shift: right multiplication by an anisotropic
    vector orthogonal to w is an explicit degree-1 automorphism."""
    if not (isinstance(a, IdealModule) and isinstance(b, IdealModule)):
        return None
    if not a.w.same_span(b.w) or a.shift == b.shift:
        return None
    space = a.space
    n = space.n
    candidates = [space.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = space.basis_vector(i), space.basis_vector(j)
            candidates.append(tuple(x + y for x, y in zip(ei, ej)))
            candidates.append(tuple(x - y for x, y in zip(ei, ej)))
    for u in candidates:
        if space.q(u) == 0:
            continue
        if any(space.b(u, wv) != 0 for wv in a.w.basis):
            continue
        uelt = CliffordElement.from_vector(space, u)
        uinv = uelt.scale(Fraction(1) / space.q(u))
        try:
            A, B = (b.part_matrix(par, (multiply(xi, uinv) for xi in a.part(par)),
                                  "right multiplication leaves the shift")
                    for par in (1, 0))
        except SpanError:
            continue
        if not _is_intertwiner(a, b, A, B):
            continue
        if mat_invertible(A) is None or mat_invertible(B) is None:
            continue
        return (A, B, u)
    return None


def is_isomorphic(a, b, seed: int = DEFAULT_SEED) -> IsoVerdict:
    """ISO with an invertible certificate, NOT_ISO with a reason, or
    UNDECIDED.  Deterministic for a fixed seed."""
    if a.space != b.space:
        raise PreconditionError("modules live over different spaces")
    rng = random.Random(seed)
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
    fam = _family_certificate(a, b)
    if fam is not None:
        return IsoVerdict("NOT_ISO", reason="family indicator", certificate=fam)
    witness = _orthogonal_shift_witness(a, b, rng)
    if witness is not None:
        A, B, u = witness
        return IsoVerdict("ISO", reason="orthogonal reflection witness",
                          certificate={"A": A, "B": B, "vector": u})
    hom_ab = hom_space(a, b)
    if hom_ab.dimension == 0:
        return IsoVerdict("NOT_ISO", reason="hom space vanishes")
    end_a = hom_space(a, a)
    end_b = hom_space(b, b)
    if end_a.dimension != end_b.dimension:
        return IsoVerdict(
            "NOT_ISO",
            reason="endomorphism dimensions differ",
            certificate={"end_a": end_a.dimension, "end_b": end_b.dimension},
        )
    found = _search_invertible(hom_ab, rng)
    if found:
        A, B, _, _ = found
        return IsoVerdict("ISO", reason="invertible intertwiner",
                          certificate={"A": A, "B": B})
    hom_ba = hom_space(b, a)
    if hom_ba.dimension == 0:
        return IsoVerdict("NOT_ISO", reason="hom space vanishes (reverse)")
    found = _search_invertible(hom_ba, rng)
    if found:
        A, B, ai, bi = found
        return IsoVerdict("ISO", reason="invertible intertwiner (reverse)",
                          certificate={"A": ai, "B": bi})
    return IsoVerdict("UNDECIDED", reason="no invertible combination found")


def pair_view(pair):
    """Module-like view of a raw factorization pair, so hom machinery can
    compare pairs that do not come from an ideal module."""
    from .spinor import DirectSumModule

    return DirectSumModule(
        pair.space,
        pair.phi.cols,
        pair.phi.rows,
        pair.phi.coeff,
        pair.psi.coeff,
    )


def factorization_equivalent(p1, p2, seed: int = DEFAULT_SEED):
    """Invertible (A, B) with A phi1 = phi2 B, or None.  Certifies that two
    factorization pairs present isomorphic cokernels."""
    if (p1.phi.rows, p1.phi.cols) != (p2.phi.rows, p2.phi.cols):
        return None
    hom = hom_space(pair_view(p1), pair_view(p2))
    found = _search_invertible(hom, random.Random(seed))
    if found is None:
        return None
    A, B, _, _ = found
    return {"A": A, "B": B}


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
    rad = radical_basis(space)
    cap = sub_intersection(w, rad)
    k = space.rank // 2
    j = w.dim - cap.dim
    pi_maximal = j == k
    w_maximal = pi_maximal and cap.dim == rad.dim
    if w_maximal:
        return True, "maximal"
    if space.rank % 2 == 0 and pi_maximal and cap.dim == rad.dim - 1:
        return True, "corank-one-in-radical"
    return False, "otherwise"


def simplicity_verdict(i: IdealModule, end: GradedHom | None = None) -> SimplicityVerdict:
    """End(i) decides simplicity; ``end`` is that space when already computed."""
    if end is None:
        end = hom_space(i, i)
    computed = end.dimension == 1
    predicted, case = predict_simplicity(i.space, i.w)
    return SimplicityVerdict(end.dimension, computed, predicted, case)


def _closure_from_coords(module, ev_seeds, odd_seeds):
    """(ev_dim, odd_dim) of the smallest graded subspace pair containing
    the seed coordinate vectors (an empty one adds nothing) and closed
    under left multiplication by every coordinate vector."""
    n = module.space.n
    spans = (IncrementalSpan(), IncrementalSpan())
    queue = [(par, v) for par, seeds in ((0, ev_seeds), (1, odd_seeds))
             for v in seeds if spans[par].add(v)]
    while queue:
        par, v = queue.pop()
        mats = module.act_ev if par == 0 else module.act_odd
        for t in range(n):
            img = mats[t].mul_vec(v)
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
    """REDUCIBLE with a closure witness, IRREDUCIBLE with the standardized
    generator identities, or UNDECIDED."""
    n_ev, n_odd = i.ev_dim, i.odd_dim
    eye_ev, eye_odd = Mat.identity(n_ev), Mat.identity(n_odd)
    singles = ([(eye_ev.row(t), ()) for t in range(n_ev)]
               + [((), eye_odd.row(t)) for t in range(n_odd)])
    pairs = ((_seed_sum(x[0], y[0]), _seed_sum(x[1], y[1]))
             for x, y in combinations(singles, 2))
    for ev, od in chain(singles, pairs):
        ev_dim, odd_dim = _closure_from_coords(i, [ev], [od])
        if 0 < ev_dim + odd_dim < n_ev + n_odd:
            return IrredVerdict(
                "REDUCIBLE",
                witness={"ev_dim": ev_dim, "odd_dim": odd_dim,
                         "seed": {"ev": ev, "odd": od}},
            )
    if predict_simplicity(i.space, i.w)[1] != "maximal":
        return IrredVerdict("UNDECIDED")
    cert = _irreducibility_certificate(i)
    if cert is not None:
        return IrredVerdict("IRREDUCIBLE", certificate=cert)
    return IrredVerdict("UNDECIDED")


def _seed_sum(a, b):
    """Sum of two seed parts, where () stands for no seed."""
    return tuple(x + y for x, y in zip(a, b)) if a and b else a or b


def _irreducibility_certificate(i: IdealModule):
    """Verify the standardized generator identities that drive the
    reduction argument for maximal w; returns the checklist or None."""
    try:
        std = standardize(i.space, i.w)
    except (PreconditionError, StandardizationUnavailable):
        return None
    space = std.space_std
    module = build_ideal(space, std.w_std)
    prof = std.profile
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


class SheafNumerics:
    __slots__ = ("hilbert", "rank", "degree", "slope", "torsion_flag")

    def __init__(self, hilbert, rank, degree, slope, torsion_flag):
        self.hilbert = hilbert
        self.rank = rank
        self.degree = degree
        self.slope = slope
        self.torsion_flag = torsion_flag


def sheaf_numerics(mf: MatrixFactorization) -> SheafNumerics:
    """Hilbert polynomial from the two-term resolution; rank, degree and
    slope read off against the quadric's own Hilbert polynomial."""
    module = mf.module
    n = module.space.n
    N = mf.N
    hilbert = (binomial_upoly(n - 1, n - 1) - binomial_upoly(n - 2, n - 1)).scale(N)
    codim = module.codim
    if codim == 1:
        return SheafNumerics(hilbert, None, None, None, True)
    d = n - 2
    if hilbert.degree() != d:
        raise InvariantError(
            f"Hilbert polynomial has degree {hilbert.degree()}, expected {d}"
        )
    chi_oq = binomial_upoly(n - 1, n - 1) - binomial_upoly(n - 3, n - 1)
    deg_q = chi_oq.coeff(d) * factorial(d)
    rank = hilbert.coeff(d) * factorial(d) / deg_q
    if d >= 1:
        c_oq = chi_oq.coeff(d - 1) * factorial(d - 1)
        degree = hilbert.coeff(d - 1) * factorial(d - 1) - c_oq * rank
    else:
        degree = ZERO
    slope = degree / rank
    return SheafNumerics(hilbert, rank, degree, slope, False)


def check_window(window) -> None:
    """Reject a twist window outside 0..MAX_WINDOW (a negative one has no twists)."""
    if type(window) is not int or not 0 <= window <= MAX_WINDOW:
        raise SchemaError(f"window must be an integer in 0..{MAX_WINDOW}, got {window!r}")


def cohomology_dim(mf, idx: int, t: int, window: int = 6) -> int:
    """Dimension of H^idx(S(t)) computed from the resolution.

    h^0 comes from the rank of the multiplication matrix of phi in degree
    t; intermediate indices vanish because line bundles on projective
    space have no middle cohomology; the top index is the kernel on top
    cohomology, computed through the transposed multiplication map.
    """
    check_window(window)
    n = mf.space.n
    N = mf.N
    top = n - 2
    if idx < 0 or idx > top:
        raise PreconditionError("cohomology index out of range")
    if abs(t) > window:
        raise PreconditionError("twist outside the configured window")

    def df(d):
        return monomial_count(n, d) if d >= 0 else 0

    def h0():
        return N * df(t) - mult_map_rank(mf.phi, t)

    def htop():
        # kernel of phi on H^{n-1}(O(t-1))^N -> H^{n-1}(O(t))^N; the domain
        # has dimension N*df(-t-n+1) and the rank equals that of the
        # transposed multiplication map into degree -t-n+1
        s = -t - n + 1
        return N * df(s) - mult_map_rank(mf.phi.transpose(), s)

    if n == 2:
        return h0() + htop()
    if idx == 0:
        return h0()
    if idx == top:
        return htop()
    return 0


def cohomology_table(mf, t: int, window: int = 6):
    n = mf.space.n
    return [cohomology_dim(mf, i, t, window) for i in range(max(n - 1, 1))]


def euler_characteristic_matches(mf, numerics: SheafNumerics, t: int,
                                 window: int = 6) -> bool:
    table = cohomology_table(mf, t, window)
    total = sum((-1) ** i * h for i, h in enumerate(table))
    return total == numerics.hilbert(t)


def idempotent_probe(end: GradedHom, seed: int = DEFAULT_SEED, tries: int = 100):
    """Search the endomorphism space for a nontrivial idempotent pair; a
    hit certifies decomposability, a miss is only a record."""
    d = end.dimension
    if d == 0:
        return None
    ident_a = Mat.identity(_shape(end, 0)[0])
    ident_b = Mat.identity(_shape(end, 1)[0])

    def is_nontrivial_idem(A, B):
        if (A @ A, B @ B) != (A, B):
            return False
        if A.is_zero() and B.is_zero():
            return False
        if A == ident_a and B == ident_b:
            return False
        return True

    candidates = []
    if d <= 6:
        halves = (ZERO, Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
        candidates = list(product(halves, repeat=d))
    rng = random.Random(seed)
    for _ in range(tries):
        candidates.append(tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(d)
        ))
    for cs in candidates:
        if all(c == 0 for c in cs):
            continue
        A, B = _combine(end, cs)
        if is_nontrivial_idem(A, B):
            return {"A": A, "B": B, "coeffs": cs}
    return None
