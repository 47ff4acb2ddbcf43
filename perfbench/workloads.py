"""The benchmark's workloads, each a list of ops over spinorsheaf's public API.

``make(name, seed)`` gives a workload whose ``inputs()`` builds a fresh set
of op inputs; that is the set-up the benchmark times.  The same seed gives
the same sequence of inputs.  ``run(item)`` runs one op, checks its output
and returns ``(ok, digest)``; ``ok`` false counts the op as failed.

On the grid workloads the seed sets the op order, and each ``inputs()``
call draws the next order from the seed's random stream.  Grid ops share
their quadratic spaces, so the op that first touches a space pays for
filling its Clifford cache; a run of several passes thus averages per-op
times over several orders.

Each op also belongs to one tier (large, medium or small).  The tiers split
a workload's ops into three fixed groups by the size of the module they
build, so that a change confined to small or large modules shows on its
own: on verify-fixtures they are F-H6a, F-H6, and F-H2 + F-QS + F-QSb +
F-C5 (each of those four alone is too short to time steadily); on the grid
workloads they are set by the module rank N = 2^(codim W - 1).
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import spinorsheaf
from spinorsheaf import homalg

TWISTS = range(-6, 7)

_EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "expected_verdicts.json")


class VerifyFixtures:
    """``spinor verify --suite all`` on each built-in fixture; the seed
    feeds the sampled quadric points and the randomized searches."""

    name = "verify-fixtures"
    _TIER = {"F-H6a": "large", "F-H6": "medium"}

    def __init__(self, seed):
        self.seed = seed
        with open(_EXPECTED_PATH, encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def inputs(self):
        return [spinorsheaf.get_fixture(label) for label in spinorsheaf.FIXTURE_LABELS]

    def label(self, fx):
        return fx.label

    def tier(self, fx):
        return self._TIER.get(fx.label, "small")

    def run(self, fx):
        report = spinorsheaf.run_suite(fx, "all", self.seed)
        text = report.to_json()
        got = [[r["op"], r["verdict"]] for r in report.records]
        ok = got == self.expected[fx.label]
        return ok, hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Grid:
    """Ops over the grid_spaces(max_n) pairs with n in ``dims``; an item
    is (label, space, w), the label carrying the grid index."""

    max_n = dims = None
    large = medium = None  # least module rank of the large and medium tiers

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def inputs(self):
        items = [(f"grid{self.max_n}[{i}]:n{s.n}-r{s.rank}-w{w.dim}", s, w)
                 for i, (s, w) in enumerate(spinorsheaf.grid_spaces(self.max_n))
                 if s.n in self.dims]
        self.rng.shuffle(items)
        return items

    def label(self, item):
        return item[0]

    def tier(self, item):
        _, space, w = item
        rank = 1 << (space.n - w.dim - 1)
        if rank >= self.large:
            return "large"
        return "medium" if rank >= self.medium else "small"


class ConstructGrid(_Grid):
    """Ideal module, factorization, identity and dimension law for the
    120 grid pairs with n in {7, 8}."""

    name = "construct-grid"
    max_n, dims = 8, (7, 8)
    large, medium = 64, 16

    def run(self, item):
        _, space, w = item
        module = spinorsheaf.build_ideal(space, w)
        mf = spinorsheaf.build_factorization(module)
        # build_factorization checks the identity with an assert, which
        # python -O strips, so the benchmark checks it itself.
        ok = mf.check_identity()
        ok = ok and module.ev_dim == module.odd_dim == 1 << (module.codim - 1)
        return ok, None


class CohomologyGrid(_Grid):
    """Factorization, sheaf numerics and the Euler characteristic at every
    twist in -6..6 for the 51 grid modules with n in {5, 6}."""

    name = "cohomology-grid"
    max_n, dims = 6, (5, 6)
    large, medium = 16, 8

    def run(self, item):
        _, space, w = item
        mf = spinorsheaf.build_factorization(spinorsheaf.build_ideal(space, w))
        num = spinorsheaf.sheaf_numerics(mf)
        euler = [homalg.euler_characteristic_matches(mf, num, t) for t in TWISTS]
        ok = all(euler) and (num.torsion_flag or num.slope == 1)
        return ok, None


WORKLOADS = {w.name: w for w in (VerifyFixtures, ConstructGrid, CohomologyGrid)}


def make(name, seed):
    return WORKLOADS[name](seed)
