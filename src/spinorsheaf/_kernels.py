"""The integer row-reduction kernels, re-exported from their one
implementation in ``_rowreduce_py``.  The package calls ``sparse_rank``
and ``sparse_echelon``; ``echelon`` stays for the tests' dense reference
and the benchmark tracer, which bind it by this name."""

from ._rowreduce_py import BACKEND, echelon, sparse_echelon, sparse_rank

__all__ = ["BACKEND", "echelon", "sparse_echelon", "sparse_rank"]
