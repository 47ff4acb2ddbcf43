"""Spinor sheaves on singular quadrics via Clifford ideal modules and
exact matrix factorizations."""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .clifford import CliffordElement, GroupElement
from .exactalg import LinMat, Mat, Rat, UniPoly
from .fixtures import FIXTURE_LABELS, fixture_to_dict, get_fixture, grid_spaces, load_fixture
from .homalg import (
    hom_space,
    irreducibility_check,
    is_isomorphic,
    sheaf_numerics,
    simplicity_verdict,
)
from .quadform import QuadraticSpace, Subspace, quotient_space, standardize
from .spinor import (
    IdealModule,
    build_factorization,
    build_ideal,
    shift,
)
from .verify import run_suite

__all__ = [
    "KERNEL_BACKEND",
    "CliffordElement",
    "GroupElement",
    "LinMat",
    "Mat",
    "Rat",
    "UniPoly",
    "FIXTURE_LABELS",
    "fixture_to_dict",
    "get_fixture",
    "grid_spaces",
    "load_fixture",
    "hom_space",
    "irreducibility_check",
    "is_isomorphic",
    "sheaf_numerics",
    "simplicity_verdict",
    "QuadraticSpace",
    "Subspace",
    "quotient_space",
    "standardize",
    "IdealModule",
    "build_factorization",
    "build_ideal",
    "shift",
    "run_suite",
    "__version__",
]
