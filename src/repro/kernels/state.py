"""Pinned per-matrix CSR state for the row-major, length-grouped multiply.

:class:`CsrState` hoists everything about a CSR matrix that the
steady-state SpMM would otherwise recompute per call.  It is shared by
:class:`repro.kernels.KernelSession` and by the compiled kernel backends
(:mod:`repro.kernels.backends`), whose generated kernels take a
``CsrState`` so one artifact serves both the one-shot and the session
path.

At construction the non-empty rows are grouped by length; each group
keeps its row ids and, in group order, the column indices and values of
its non-zeros.  The reference algorithm lives in
:meth:`CsrState.multiply`: walk each group in row blocks sized to a fixed
byte budget (:data:`_BLOCK_BYTES`, so a block stays resident in a per-core
L2), and per block

* gather the block's operand rows from the row-major ``X`` (each
  non-zero reads one contiguous row — no transposed copy of ``X``);
* scale them by the values;
* reduce the ``(rows, L, K)`` block over ``L`` with whole-slab adds;
* scatter the block's result rows into ``out``.

The result is **bitwise identical** to :func:`repro.kernels.spmm`: the
products are the same float64 multiplies (float32 operands are gathered
as float32 and widened exactly by the multiply, as ``spmm`` does), and
the slab adds follow ``np.add.reduceat``'s own summation order, which is
*not* left to right.  For a segment ``p0 ... p(L-1)`` reduceat computes
``p0 + pairwise(p1 ... p(L-1))``, where ``pairwise`` is numpy's
``pairwise_sum``:

* below 8 terms it adds sequentially;
* from 8 to 128 terms it keeps eight interleaved accumulators, combines
  them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then adds the tail
  one term at a time;
* above 128 terms it splits at ``n/2`` rounded down to a multiple of 8
  and recurses.

So ``[1.0, 1e-16, 1e-16]`` reduces to ``1.0000000000000002`` where a left
to right sum gives ``1.0``.  :func:`_pairwise_slabs` replays that order
on whole ``(rows, K)`` slabs; ``tests/unit/test_session.py`` holds it to
``spmm`` by bit pattern across every branch.  The compiled ``numba``
backend adds left to right instead and is held to 1 ULP by the
cross-backend differential tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix
from repro.util.workspace import Workspace

__all__ = ["DEFAULT_CHUNK_K", "CsrState"]

#: Default K-chunk width: the ``numba`` backend's specialization key and
#: the serve layer's chunk width.  The numpy executor does not read it.
DEFAULT_CHUNK_K = 64

#: Float64 product bytes per row block: small enough that the gathered
#: block stays in a per-core L2 while it is scaled, reduced and scattered.
_BLOCK_BYTES = 512 * 1024


def _pairwise_slabs(Q: np.ndarray) -> np.ndarray:
    """numpy's ``pairwise_sum`` over axis 1 of ``Q`` (``(rows, n, K)``, n >= 1).

    Adds whole ``(rows, K)`` slabs in place inside ``Q`` and returns the
    slab holding the sums.
    """
    n = Q.shape[1]
    if n < 8:
        acc = Q[:, 0]
        for j in range(1, n):
            np.add(acc, Q[:, j], out=acc)
        return acc
    if n <= 128:
        # Eight interleaved accumulators r[j] += q[i + j] ...
        m = n - n % 8
        r = Q[:, :8]
        for i in range(8, m, 8):
            np.add(r, Q[:, i : i + 8], out=r)
        # ... combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) ...
        np.add(r[:, 0::2], r[:, 1::2], out=r[:, 0::2])
        np.add(r[:, 0::4], r[:, 2::4], out=r[:, 0::4])
        acc = r[:, 0]
        np.add(acc, r[:, 4], out=acc)
        # ... then the tail one term at a time.
        for j in range(m, n):
            np.add(acc, Q[:, j], out=acc)
        return acc
    half = n // 2
    half -= half % 8
    acc = _pairwise_slabs(Q[:, :half])
    np.add(acc, _pairwise_slabs(Q[:, half:]), out=acc)
    return acc


class CsrState:
    """Pinned per-matrix state for the row-major, length-grouped multiply."""

    __slots__ = ("csr", "colidx", "values", "empty", "any_empty", "groups")

    def __init__(self, csr: CSRMatrix) -> None:
        self.csr = csr
        self.colidx = np.ascontiguousarray(csr.colidx)
        #: 1-D contiguous values (what row-wise compiled kernels index).
        self.values = np.ascontiguousarray(csr.values)
        lengths = csr.row_lengths()
        self.empty = lengths == 0
        self.any_empty = bool(self.empty.any())
        # Non-empty rows sorted by length (stable: ascending ids within a
        # length), then their non-zeros gathered into that order at once.
        order = np.argsort(lengths, kind="stable")
        order = order[lengths[order] > 0]
        grouped_lengths = lengths[order]
        offsets = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(grouped_lengths, out=offsets[1:])
        shift = np.repeat(csr.rowptr[:-1][order] - offsets[:-1], grouped_lengths)
        positions = np.arange(offsets[-1], dtype=np.int64) + shift
        colidx = self.colidx[positions]
        values = self.values[positions][:, None]
        firsts = np.flatnonzero(np.diff(grouped_lengths, prepend=0)).tolist()
        #: ``(L, rows, colidx, values)`` per row length ``L``: the group's
        #: row ids, and its non-zeros' column indices and values (an
        #: ``(n, 1)`` column) in group order.
        self.groups = tuple(
            (
                int(grouped_lengths[a]),
                order[a:b],
                colidx[offsets[a] : offsets[b]],
                values[offsets[a] : offsets[b]],
            )
            for a, b in zip(firsts, firsts[1:] + [order.size])
        )

    def multiply(self, X: np.ndarray, out: np.ndarray, ws: Workspace, chunk_k: int) -> None:
        """``out = csr @ X``, bitwise identical to :func:`repro.kernels.spmm`.

        ``chunk_k`` is accepted for the compiled-kernel calling convention
        and not read: the numpy executor blocks rows, not columns.
        """
        if X.shape[0] != self.csr.n_cols:
            # The clipped gather below would read a wrong row, not raise.
            raise ShapeError(f"X must have {self.csr.n_cols} rows, got {X.shape[0]}")
        K = X.shape[1]
        if self.csr.nnz == 0 or K == 0:
            out[:] = 0.0
            return
        row_bytes = 8 * K  # one float64 product row
        steps = [max(1, _BLOCK_BYTES // (L * row_bytes)) for L, *_ in self.groups]
        cap = max(
            min(step, rows.size) * L
            for step, (L, rows, _, _) in zip(steps, self.groups)
        )
        # One lease per call, sliced per block: a block leased per
        # iteration would stay held until the lease ends.
        products = ws.scratch((cap, K))
        gathered = products if X.dtype == np.float64 else ws.scratch((cap, K), dtype=X.dtype)
        for step, (L, rows, colidx, values) in zip(steps, self.groups):
            for r0 in range(0, rows.size, step):
                r1 = min(r0 + step, rows.size)
                lo, hi = r0 * L, r1 * L
                g = gathered[: hi - lo]
                # CSR column indices are in range; the default "raise"
                # mode would stage out= through a temporary copy.
                np.take(X, colidx[lo:hi], axis=0, out=g, mode="clip")
                p = products[: hi - lo]
                # Float32 operands widen exactly inside the multiply.
                np.multiply(values[lo:hi], g, out=p)
                block = p.reshape(r1 - r0, L, K)
                if L > 1:
                    np.add(block[:, 0], _pairwise_slabs(block[:, 1:]), out=block[:, 0])
                out[rows[r0:r1]] = block[:, 0]
        if self.any_empty:
            out[self.empty] = 0.0
