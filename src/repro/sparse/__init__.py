"""Sparse-matrix substrate.

From-scratch COO/CSR/CSC containers backed by NumPy arrays, plus structural
operations (permutation, transpose), structural statistics and
MatrixMarket I/O.  These containers are the currency of the whole library:
the reordering pipeline consumes and produces :class:`CSRMatrix`, the ASpT
tiler splits one into a :class:`repro.aspt.TiledMatrix`, and the kernels and
the GPU performance model read their arrays directly.

``scipy.sparse`` is intentionally **not** used anywhere in the library path;
it appears only in the test suite as an independent oracle.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.conversions import (
    coo_to_csr,
    csr_to_coo,
    csr_to_csc,
    csc_to_csr,
)
from repro.sparse.ops import (
    permute_csr_columns,
    permute_csr_rows,
    transpose_csr,
)
from repro.sparse.properties import (
    bandwidth,
    column_counts,
    density,
    nnz_per_row,
    structural_summary,
)
from repro.sparse.io import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "permute_csr_columns",
    "permute_csr_rows",
    "transpose_csr",
    "bandwidth",
    "column_counts",
    "density",
    "nnz_per_row",
    "structural_summary",
    "read_matrix_market",
    "write_matrix_market",
]
