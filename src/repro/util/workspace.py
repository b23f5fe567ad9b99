"""Size-class scratch-buffer pool behind :class:`~repro.kernels.KernelSession`.

The paper's whole argument is data-movement reduction, and the serving
story (ROADMAP north star) multiplies the *same* matrix thousands of times.
Allocating the products scratch on every call churns the allocator and
the page cache for no benefit: the buffer shapes repeat call after call.
:class:`WorkspacePool` keeps freed blocks in per ``(dtype, size-class)``
freelists so steady-state session multiplies allocate nothing, and
:class:`Workspace` scopes a set of leased blocks to one session call.
The pool is the session's: only the two executors a session runs
(:meth:`~repro.kernels.state.CsrState.multiply` and the compiled ``cc``
loop) lease from it.  The one-shot reference kernels allocate.

Design notes
------------
* Size classes are next-power-of-two element counts: a request for
  ``n`` elements is served by a block of ``2**ceil(log2(n))`` elements,
  so buffers whose sizes wobble slightly (per-block nnz, per-panel
  column counts) still hit the same freelist.  Worst-case internal
  fragmentation is 2x, bounded and predictable.
* The pool is thread-safe (one lock around the freelists) and bounded:
  blocks returned past ``max_bytes`` of held memory are dropped
  (counted as evictions) instead of retained.
* ``hits`` / ``misses`` / ``evictions`` counters make reuse observable —
  the perf-regression gate asserts steady-state calls stop allocating.

Correctness contract: a session's executor runs the same operations on
leased and on directly allocated (:class:`DirectWorkspace`) buffers, so
results are bitwise identical to the one-shot :func:`~repro.kernels.spmm`
reference (asserted by the oracle tests).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.observability.metrics import METRICS
from repro.resilience.faults import fault_point

__all__ = ["DirectWorkspace", "Workspace", "WorkspacePool"]


def _size_class(n_elements: int) -> int:
    """Smallest power of two >= ``n_elements`` (class 1 for empty buffers)."""
    if n_elements <= 1:
        return 1
    return 1 << (int(n_elements) - 1).bit_length()


class WorkspacePool:
    """Thread-safe, bounded pool of reusable scratch blocks.

    Parameters
    ----------
    max_bytes:
        Upper bound on the total bytes of *idle* blocks retained in the
        freelists.  Blocks released beyond the bound are dropped (an
        *eviction*).  Leased blocks are not counted — the bound caps the
        pool's parked memory, not the caller's working set.

    Examples
    --------
    >>> pool = WorkspacePool()
    >>> with pool.lease() as ws:
    ...     scratch = ws.scratch((4, 8))
    >>> pool.stats()["misses"]
    1
    >>> with pool.lease() as ws:          # same size class: no allocation
    ...     scratch = ws.scratch((4, 8))
    >>> pool.stats()["hits"]
    1
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._free: dict[tuple[str, int], list[np.ndarray]] = {}
        self._held_bytes = 0
        # Per-pool counters that also roll up into the process-global
        # workspace.* instruments (see repro.observability.metrics).
        self._hits = METRICS.counter("workspace.hit", "scratch leases served from a freelist").child()
        self._misses = METRICS.counter("workspace.miss", "scratch leases that had to allocate").child()
        self._evictions = METRICS.counter("workspace.evict", "returned blocks dropped over max_bytes").child()

    # ------------------------------------------------------------------
    def lease(self) -> "Workspace":
        """A fresh :class:`Workspace` scoped to this pool.

        Use as a context manager so every leased block returns to the
        freelists when the kernel call finishes.
        """
        return Workspace(self)

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """Lease one C-contiguous array of ``shape``/``dtype``.

        The returned array is a view of a pooled block; hand it back with
        :meth:`give` (or lease through a :class:`Workspace`, which tracks
        and returns blocks for you).  Contents are uninitialised.

        Raises :class:`repro.errors.WorkspaceExhausted` when the
        ``workspace.take`` fault site injects exhaustion, which
        :class:`repro.kernels.KernelSession` absorbs by allocating
        directly.
        """
        fault_point("workspace.take")
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        n = 1
        for s in shape:
            if s < 0:
                raise ValueError(f"negative dimension in shape {shape}")
            n *= s
        cls = _size_class(n)
        key = (dtype.str, cls)
        with self._lock:
            freelist = self._free.get(key)
            if freelist:
                block = freelist.pop()
                self._held_bytes -= block.nbytes
                self._hits.inc()
            else:
                block = None
                self._misses.inc()
        if block is None:
            block = np.empty(cls, dtype=dtype)
        return block[:n].reshape(shape)

    def give(self, array: np.ndarray) -> None:
        """Return a block leased with :meth:`take` to the freelists."""
        block = array
        while block.base is not None:
            block = block.base
        if not isinstance(block, np.ndarray) or block.ndim != 1:
            raise ValueError("give() expects an array leased from this pool")
        key = (block.dtype.str, block.size)
        with self._lock:
            if self._held_bytes + block.nbytes > self.max_bytes:
                self._evictions.inc()
                return
            self._free.setdefault(key, []).append(block)
            self._held_bytes += block.nbytes

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every idle block (leased blocks are unaffected)."""
        with self._lock:
            self._free.clear()
            self._held_bytes = 0

    @property
    def held_bytes(self) -> int:
        """Bytes currently parked in the freelists."""
        with self._lock:
            return self._held_bytes

    @property
    def hits(self) -> int:
        """Leases served from a freelist (per-pool view of ``workspace.hit``)."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Leases that had to allocate (per-pool view of ``workspace.miss``)."""
        return self._misses.value

    @property
    def evictions(self) -> int:
        """Returned blocks dropped over ``max_bytes`` (per-pool view)."""
        return self._evictions.value

    def stats(self) -> dict:
        """Counter snapshot: hits, misses, evictions, held_bytes."""
        with self._lock:
            return {
                "hits": self._hits.value,
                "misses": self._misses.value,
                "evictions": self._evictions.value,
                "held_bytes": self._held_bytes,
            }


class Workspace:
    """A scoped set of scratch arrays leased from a :class:`WorkspacePool`.

    An executor calls :meth:`scratch` for every temporary; on
    :meth:`release` (or context-manager exit) all blocks go back to the
    pool.  A :class:`~repro.kernels.KernelSession` holds one per call so
    repeated multiplies recycle the same blocks.

    Scratch arrays are only valid until release; they must never escape
    into a returned value (kernel outputs are caller-owned arrays).
    """

    __slots__ = ("pool", "_leased")

    def __init__(self, pool: WorkspacePool) -> None:
        self.pool = pool
        self._leased: list[np.ndarray] = []

    def scratch(self, shape, dtype=np.float64) -> np.ndarray:
        """Lease one uninitialised C-contiguous scratch array."""
        array = self.pool.take(shape, dtype)
        self._leased.append(array)
        return array

    def release(self) -> None:
        """Return every leased block to the pool."""
        leased, self._leased = self._leased, []
        for array in leased:
            self.pool.give(array)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class DirectWorkspace:
    """Workspace-shaped allocator with no pooling (plain ``np.empty``).

    Stands in for a :class:`Workspace` wherever code is written against
    the ``scratch``/``release`` surface but no pool is in play: the
    :class:`~repro.kernels.KernelSession` exhaustion fallback, and the
    compiled SpMM that one-shot ``spmm(backend=...)`` runs.  Results are
    bitwise identical either way — pooled and direct paths run the same
    operations on same-shaped buffers.
    """

    __slots__ = ()

    def scratch(self, shape, dtype=np.float64) -> np.ndarray:
        """Allocate one uninitialised C-contiguous array."""
        return np.empty(shape, dtype=dtype)

    def release(self) -> None:
        """No-op (nothing is pooled)."""
        return None

    def __enter__(self) -> "DirectWorkspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

