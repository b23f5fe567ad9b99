"""Warp-level memory-transaction accounting.

GPU DRAM traffic is quantised in cache-line-sized transactions (128 B on
Pascal).  The kernels modelled here access the dense operand one *row* at a
time with consecutive threads reading consecutive elements — perfectly
coalesced — so a row load of ``K`` elements costs
``ceil(K * dtype / line)`` transactions.  The sparse matrix's own arrays
(``rowptr``/``colidx``/``values``) are streamed sequentially, also
coalesced.
"""

from __future__ import annotations

from repro.util.validation import check_positive

__all__ = ["row_load_transactions", "row_load_bytes"]


def row_load_transactions(k: int, dtype_bytes: int = 4, line_bytes: int = 128) -> int:
    """Transactions for one coalesced dense-row load of ``k`` elements."""
    k = check_positive("k", k)
    dtype_bytes = check_positive("dtype_bytes", dtype_bytes)
    line_bytes = check_positive("line_bytes", line_bytes)
    return -(-(k * dtype_bytes) // line_bytes)


def row_load_bytes(k: int, dtype_bytes: int = 4, line_bytes: int = 128) -> int:
    """DRAM bytes actually moved for one dense-row load (transaction-padded).

    For ``K`` that is a multiple of the line size this equals
    ``k * dtype_bytes``; ragged rows pay the padding of the final line.
    """
    return row_load_transactions(k, dtype_bytes, line_bytes) * line_bytes

