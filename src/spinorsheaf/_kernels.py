"""The integer row-reduction kernels the package calls, re-exported from
their one implementation in ``_rowreduce_py``."""

from ._rowreduce_py import BACKEND, echelon, sparse_echelon, sparse_rank

__all__ = ["BACKEND", "echelon", "sparse_echelon", "sparse_rank"]
