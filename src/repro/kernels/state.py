"""Pinned per-matrix CSR state and the numpy reference multiply.

:class:`CsrState` checks a CSR matrix once and holds what a steady-state
SpMM reads: ``int64`` contiguous ``rowptr``/``colidx``, ``float64``
values and, for a plan, the ``row_order`` that sends each computed row to
its place in the result.  It is shared by
:class:`repro.kernels.KernelSession` and the compiled ``cc`` backend
(:mod:`repro.kernels.backends`), whose C loop reads those arrays by
pointer: the structure check at pin time (``rowptr`` non-decreasing and
ending at ``nnz``, every column index in range, ``row_order`` a
permutation) is what keeps that loop inside its buffers.

:meth:`CsrState.multiply` is the numpy executor, the reference the
compiled loop replaces and what every backend degrades to.  On first use
it groups the non-empty rows by length; each group keeps its output row
ids and, in group order, the column indices and values of its non-zeros.
It walks each group in row blocks sized to a fixed byte budget
(:data:`_BLOCK_BYTES`, so a block stays resident in a per-core L2), and
per block

* gathers the block's operand rows from the row-major ``X`` (each
  non-zero reads one contiguous row — no transposed copy of ``X``);
* scales them by the values;
* reduces the ``(rows, L, K)`` block over ``L`` with whole-slab adds;
* scatters the block's result rows into ``out``.

Both executors are **bitwise identical** to :func:`repro.kernels.spmm`:
the products are the same float64 multiplies (float32 operands widen
exactly, as in ``spmm``), and the adds follow ``np.add.reduceat``'s own
summation order, which is *not* left to right.  For a segment
``p0 ... p(L-1)`` reduceat computes ``p0 + pairwise(p1 ... p(L-1))``,
where ``pairwise`` is numpy's ``pairwise_sum``:

* below 8 terms it adds sequentially;
* from 8 to 128 terms it keeps eight interleaved accumulators, combines
  them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then adds the tail
  one term at a time;
* above 128 terms it splits at ``n/2`` rounded down to a multiple of 8
  and recurses.

So ``[1.0, 1e-16, 1e-16]`` reduces to ``1.0000000000000002`` where a left
to right sum gives ``1.0``.  :func:`_pairwise_slabs` replays that order
on whole ``(rows, K)`` slabs and the C loop on K-wide accumulators;
``tests/unit/test_session.py`` holds both to ``spmm`` by bit pattern
across every branch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import gather_ranges
from repro.util.validation import check_permutation
from repro.util.workspace import Workspace

__all__ = ["DEFAULT_CHUNK_K", "CsrState"]

#: Default K-chunk width: the serve layer's deadline-poll grain.  Neither
#: executor reads it.
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
    """Pinned, checked CSR arrays plus the numpy executor's length groups.

    Parameters
    ----------
    csr:
        The matrix.  Its structure is checked here
        (:class:`~repro.errors.FormatError` on a decreasing ``rowptr`` or
        an out-of-range column index), because the compiled loop trusts
        it.
    row_order:
        Optional permutation of ``range(csr.n_rows)``: row ``r`` of the
        product is written to ``out[row_order[r]]`` (a plan's rows go back
        to original coordinates).  ``None`` writes row ``r`` to
        ``out[r]``.
    """

    __slots__ = ("csr", "rowptr", "colidx", "values", "row_order", "_grouping")

    def __init__(self, csr: CSRMatrix, row_order=None) -> None:
        rowptr = np.ascontiguousarray(csr.rowptr, dtype=np.int64)
        colidx = np.ascontiguousarray(csr.colidx, dtype=np.int64)
        values = np.ascontiguousarray(csr.values, dtype=np.float64)
        if rowptr is not csr.rowptr or colidx is not csr.colidx or values is not csr.values:
            csr = CSRMatrix(csr.shape, rowptr, colidx, values)
        csr._check_structure()
        if row_order is not None:
            row_order = np.ascontiguousarray(
                check_permutation("row_order", row_order, csr.n_rows), dtype=np.int64
            )
        self.csr = csr
        self.rowptr = rowptr
        self.colidx = colidx
        self.values = values
        self.row_order = row_order
        # (groups, empty output rows), built by the first numpy multiply:
        # the compiled loop never reads it.  One attribute, so a racing
        # first use publishes both halves at once.
        self._grouping = None

    def _grouped(self) -> tuple:
        """``(groups, empty)``, built on first use.

        ``groups`` holds ``(L, rows, colidx, values)`` per non-empty row
        length ``L``: ``rows`` are the group's output row ids (through
        ``row_order``); ``colidx`` and ``values`` (an ``(n, 1)`` column)
        are its non-zeros in group order.  ``empty`` lists the output
        rows with no non-zeros.
        """
        grouping = self._grouping
        if grouping is None:
            grouping = self._grouping = self._group_rows()
        return grouping

    def _group_rows(self) -> tuple:
        lengths = np.diff(self.rowptr)
        # Rows sorted by length (stable: ascending ids within a length),
        # then the non-empty rows' non-zeros gathered into that order.
        order = np.argsort(lengths, kind="stable")
        n_empty = int(np.searchsorted(lengths[order], 0, side="right"))
        empty, order = order[:n_empty], order[n_empty:]
        grouped_lengths = lengths[order]
        offsets = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(grouped_lengths, out=offsets[1:])
        positions = gather_ranges(self.rowptr[:-1][order], grouped_lengths)
        colidx = self.colidx[positions]
        values = self.values[positions][:, None]
        if self.row_order is not None:
            order = self.row_order[order]
            empty = self.row_order[empty]
        firsts = np.flatnonzero(np.diff(grouped_lengths, prepend=0)).tolist()
        groups = tuple(
            (
                int(grouped_lengths[a]),
                order[a:b],
                colidx[offsets[a] : offsets[b]],
                values[offsets[a] : offsets[b]],
            )
            for a, b in zip(firsts, firsts[1:] + [order.size])
        )
        return groups, empty

    def multiply(self, X: np.ndarray, out: np.ndarray, ws: Workspace, chunk_k: int) -> None:
        """Fully overwrite ``out`` with ``csr @ X``, bit-equal to :func:`repro.kernels.spmm`.

        With a ``row_order``, row ``r`` lands in ``out[row_order[r]]``.
        ``chunk_k`` is not read: the numpy executor blocks rows, not
        columns.  It stays only because :class:`~repro.kernels.KernelSession`
        and perfbench pass it; the compiled convention is
        ``fn(state, X, out, ws)``.
        """
        if X.shape[0] != self.csr.n_cols:
            # The clipped gather below would read a wrong row, not raise.
            raise ShapeError(f"X must have {self.csr.n_cols} rows, got {X.shape[0]}")
        K = X.shape[1]
        if self.csr.nnz == 0 or K == 0:
            out[:] = 0.0
            return
        groups, empty = self._grouped()
        row_bytes = 8 * K  # one float64 product row
        steps = [max(1, _BLOCK_BYTES // (L * row_bytes)) for L, *_ in groups]
        cap = max(min(step, rows.size) * L for step, (L, rows, _, _) in zip(steps, groups))
        # One lease per call, sliced per block: a block leased per
        # iteration would stay held until the lease ends.
        products = ws.scratch((cap, K))
        gathered = products if X.dtype == np.float64 else ws.scratch((cap, K), dtype=X.dtype)
        for step, (L, rows, colidx, values) in zip(steps, groups):
            for r0 in range(0, rows.size, step):
                r1 = min(r0 + step, rows.size)
                lo, hi = r0 * L, r1 * L
                g = gathered[: hi - lo]
                # Column indices were range-checked at pin time; the
                # default "raise" mode would stage out= through a copy.
                np.take(X, colidx[lo:hi], axis=0, out=g, mode="clip")
                p = products[: hi - lo]
                # Float32 operands widen exactly inside the multiply.
                np.multiply(values[lo:hi], g, out=p)
                block = p.reshape(r1 - r0, L, K)
                if L > 1:
                    np.add(block[:, 0], _pairwise_slabs(block[:, 1:]), out=block[:, 0])
                out[rows[r0:r1]] = block[:, 0]
        if empty.size:
            out[empty] = 0.0
