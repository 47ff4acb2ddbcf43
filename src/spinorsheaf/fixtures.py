"""Built-in fixture registry and the JSON fixture schema.

Fixture files look like::

    {"label": "...", "dimension": 4,
     "gram": [[0, "1/2", 0, 0], ...],
     "isotropic": [[0, 1, 0, 0], ...],
     "flag_drop": [0, 0, 1, 0],          # optional
     "section_subspace": [[...], ...],   # optional
     "cone_mod": [[...], ...]}           # optional

Rationals are bare integers or "a/b" strings.  ``dimension`` is at most
``MAX_DIMENSION``: Clifford elements have 2^dimension coordinates.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError
from .exactalg import Mat, exact, rat_from_json, rat_to_json, vec
from .quadform import QuadraticSpace, Subspace, check_isotropic

# The report bounds n: its dense dual certificate is 35.7 MB at n = 12 and
# grows about 4x per n, though verify --suite all runs at n = 13 in
# seconds.  The ideal of a 20-dimensional fixture alone would take 2^20
# Clifford products to build.
MAX_DIMENSION = 12


class Fixture:
    __slots__ = ("label", "space", "w", "flag_drop", "section_subspace", "cone_mod")

    def __init__(self, label, space, w, flag_drop=None, section_subspace=None, cone_mod=None):
        self.label = label
        self.space = space
        self.w = w
        self.flag_drop = flag_drop
        self.section_subspace = section_subspace
        self.cone_mod = cone_mod

    def __repr__(self):
        return f"Fixture({self.label})"


def _hyperbolic_gram(n, pairs, diag=()):
    half = Fraction(1, 2)
    g = [[0] * n for _ in range(n)]
    for i, j in pairs:
        g[i][j] = half
        g[j][i] = half
    for i, c in diag:
        g[i][i] = exact(c)
    return Mat.from_rows(g)


def _e(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _build_fh2():
    space = QuadraticSpace(_hyperbolic_gram(2, [(0, 1)]))
    return Fixture("F-H2", space, Subspace(space, [_e(2, 1)]))


def _build_fh6():
    space = QuadraticSpace(_hyperbolic_gram(6, [(0, 3), (1, 4), (2, 5)]))
    w = Subspace(space, [_e(6, 3), _e(6, 4), _e(6, 5)])
    return Fixture(
        "F-H6",
        space,
        w,
        flag_drop=_e(6, 5),
        section_subspace=[_e(6, i) for i in range(5)],
    )


def _build_fh6a():
    space = QuadraticSpace(_hyperbolic_gram(6, [(0, 3), (1, 4), (2, 5)]))
    return Fixture("F-H6a", space, Subspace(space, [_e(6, 3)]))


def _build_fqs():
    space = QuadraticSpace(_hyperbolic_gram(4, [(0, 1)]))
    w = Subspace(space, [_e(4, 1), _e(4, 2)])
    return Fixture("F-QS", space, w, flag_drop=_e(4, 2))


def _build_fqsb():
    space = QuadraticSpace(_hyperbolic_gram(4, [(0, 1)]))
    return Fixture("F-QSb", space, Subspace(space, [_e(4, 1), _e(4, 3)]))


def _build_fc5():
    space = QuadraticSpace(_hyperbolic_gram(5, [(0, 2), (1, 3)]))
    w = Subspace(space, [_e(5, 2), _e(5, 4)])
    return Fixture("F-C5", space, w, cone_mod=[_e(5, 4)])


_REGISTRY = {
    "F-H2": _build_fh2,
    "F-H6": _build_fh6,
    "F-H6a": _build_fh6a,
    "F-QS": _build_fqs,
    "F-QSb": _build_fqsb,
    "F-C5": _build_fc5,
}

FIXTURE_LABELS = tuple(sorted(_REGISTRY))


def get_fixture(label: str) -> Fixture:
    if label not in _REGISTRY:
        raise SchemaError(f"unknown fixture label {label!r}; known: {', '.join(FIXTURE_LABELS)}")
    return _REGISTRY[label]()


def _parse_row(row, what):
    try:
        return vec(rat_from_json(x) for x in row)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational in {what}: {exc}") from exc


def _parse_matrix(data, what):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError(f"{what} must be a non-empty list of rows")
    return [_parse_row(row, what) for row in data]


def fixture_from_dict(data) -> Fixture:
    if not isinstance(data, dict):
        raise SchemaError("fixture must be a JSON object")
    for key in ("label", "dimension", "gram", "isotropic"):
        if key not in data:
            raise SchemaError(f"fixture is missing required key {key!r}")
    label = data["label"]
    n = data["dimension"]
    if not isinstance(label, str) or type(n) is not int or n <= 0:
        raise SchemaError("label must be a string and dimension a positive integer")
    if n > MAX_DIMENSION:
        raise SchemaError(f"dimension {n} is above the supported maximum {MAX_DIMENSION}")
    gram_rows = _parse_matrix(data["gram"], "gram")
    if len(gram_rows) != n or any(len(r) != n for r in gram_rows):
        raise SchemaError("gram must be an n x n matrix")
    space = QuadraticSpace(Mat.from_rows(gram_rows))
    iso_rows = _parse_matrix(data["isotropic"], "isotropic")
    if any(len(r) != n for r in iso_rows):
        raise SchemaError("isotropic vectors must have length n")
    w = Subspace(space, iso_rows)
    if not check_isotropic(space, w):
        raise SchemaError("the given subspace is not isotropic")
    flag_drop = None
    if "flag_drop" in data:
        row = data["flag_drop"]
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError("flag_drop must be a length-n vector")
        flag_drop = _parse_row(row, "flag_drop")
    section_subspace = None
    if "section_subspace" in data:
        section_subspace = _parse_matrix(data["section_subspace"], "section_subspace")
        if any(len(r) != n for r in section_subspace):
            raise SchemaError("section_subspace vectors must have length n")
    cone_mod = None
    if "cone_mod" in data:
        cone_mod = _parse_matrix(data["cone_mod"], "cone_mod")
        if any(len(r) != n for r in cone_mod):
            raise SchemaError("cone_mod vectors must have length n")
    return Fixture(label, space, w, flag_drop, section_subspace, cone_mod)


def load_fixture(path: str) -> Fixture:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read fixture file {path}: {exc}") from exc
    return fixture_from_dict(data)


def fixture_to_dict(fx: Fixture) -> dict:
    """The JSON object of a fixture, as ``fixture_from_dict`` reads it."""
    out = {
        "label": fx.label,
        "dimension": fx.space.n,
        "gram": [[rat_to_json(x) for x in fx.space.gram.row(i)] for i in range(fx.space.n)],
        "isotropic": [[rat_to_json(x) for x in v] for v in fx.w.basis],
    }
    if fx.flag_drop is not None:
        out["flag_drop"] = [rat_to_json(x) for x in fx.flag_drop]
    if fx.section_subspace is not None:
        out["section_subspace"] = [[rat_to_json(x) for x in v] for v in fx.section_subspace]
    if fx.cone_mod is not None:
        out["cone_mod"] = [[rat_to_json(x) for x in v] for v in fx.cone_mod]
    return out


def grid_spaces(max_n: int = 8):
    """Deterministic family of (space, w) pairs: for each dimension n and
    each form rank 2..n a standard form, with every isotropic type (j tail
    vectors, l radical vectors).  Used by the verification grids."""
    out = []
    for n in range(2, max_n + 1):
        for rank in range(2, n + 1):
            k = rank // 2
            pairs = [(i, k + i) for i in range(k)]
            diag = [(2 * k, 1)] if rank % 2 else []
            gram = _hyperbolic_gram(n, pairs, diag)
            space = QuadraticSpace(gram)
            rad_start = rank
            rad_dim = n - rank
            for j in range(0, k + 1):
                for l in range(0, rad_dim + 1):
                    if j + l == 0:
                        continue
                    basis = [_e(n, k + i) for i in range(j)]
                    basis += [_e(n, rad_start + i) for i in range(l)]
                    out.append((space, Subspace(space, basis)))
    return out
