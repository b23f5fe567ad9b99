"""Steady-state SpMM sessions: pin one matrix, multiply many times.

The serving scenario behind the paper (and the ROADMAP north star) is a
*fixed* sparse matrix multiplied against a stream of dense operands.  The
one-shot kernels re-derive everything per call — segment starts, scratch
buffers, the output array.  A :class:`KernelSession` hoists all of it:

* the matrix is checked and pinned once, in one
  :class:`~repro.kernels.state.CsrState` (``int64`` index arrays, the
  plan's row order);
* scratch comes from a private :class:`~repro.util.workspace.WorkspacePool`,
  so after the first call the steady state allocates nothing;
* the multiply is the default ``cc`` backend's compiled loop
  (:mod:`repro.kernels.backends`): one pass per row that forms each
  product and adds it straight into K-wide accumulators, the CPU
  analogue of the GPU kernel keeping a row's partial sums in fast
  memory.  At construction the session loads its backend (its own
  ``backend=`` argument, or the plan's ``backend`` field for plan
  targets) through :func:`~repro.kernels.backends.load_backend`; the one
  compiled SpMM every matrix shares is cached process-wide and the built
  library on disk, so a warm session compiles nothing;
* the ``numpy`` backend runs :meth:`~repro.kernels.state.CsrState.multiply`
  instead, the length-grouped, row-blocked reference executor.

Every target runs the same executor, one pass over one pinned state: a
:class:`~repro.sparse.CSRMatrix` itself, a :class:`~repro.aspt.TiledMatrix`'s
``original``, or an :class:`~repro.reorder.ExecutionPlan`'s
``tiled.original`` (the round-1-reordered matrix), whose rows are written
straight to their original positions.  The ASpT split stays a plan
decision and :func:`repro.kernels.spmm_tiled` the paper's two-phase
reference, but no session reads the split: on CPU two phases are slower
than one pass (``perfbench/run.py --workload warm-kernel --trace 1``
reports ``kernels.plan_vs_csr``).

On either backend, results are **bitwise identical** to the one-shot
:func:`repro.kernels.spmm` of the original matrix: per output element the
same float64 products are summed in ``np.add.reduceat``'s order (the
first product plus numpy's pairwise sum of the rest — not left to right;
see :mod:`repro.kernels.state`), and float32 operands are widened by an
exact cast.  A reordered plan's rows are the original rows with unchanged
contents, so this holds on every degradation-ladder rung and for
streamed plans.  The equivalence is asserted in the oracle tests, the
cross-backend differential matrix and, for plans, by
:meth:`repro.reorder.ExecutionPlan.validate`.

Degradation is never fatal: if the requested backend is unavailable or
its compile fails (including the injected ``backend.compile`` chaos
fault), the loader falls back to the numpy reference —
``kernels.backend_fallback`` counts it, one
:class:`~repro.errors.DegradedExecution` warning fires, and
:attr:`KernelSession.backend_provenance` records the step.

Sessions are thread-safe: the pool is locked, per-call scratch is leased
per call, the compiled loop keeps its accumulators on its own stack, and
the default output buffer is thread-local.  ``run`` returns that
thread-local buffer (valid until the same thread's next ``run``); pass
``out=`` or copy the result to keep it.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.kernels.state import DEFAULT_CHUNK_K, CsrState
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense, check_out, check_positive
from repro.util.workspace import WorkspacePool

__all__ = ["KernelSession"]


class KernelSession:
    """Amortised repeated SpMM against one pinned target.

    Parameters
    ----------
    target:
        A :class:`~repro.sparse.CSRMatrix`, an ASpT
        :class:`~repro.aspt.TiledMatrix` or a
        :class:`~repro.reorder.ExecutionPlan`.
    chunk_k:
        K-chunk width (default 64), kept for callers that slice operands
        by it (the serve layer polls deadlines per chunk).  Neither
        executor reads it.
    pool:
        Workspace pool to lease scratch from; by default the session owns
        a private pool sized to its own working set.
    backend:
        Kernel backend name (``"cc"`` or ``"numpy"``).  ``None`` means
        "no preference": plan targets use the plan's ``backend`` field,
        everything else the default ``cc``.  Unknown names raise
        :class:`~repro.errors.ConfigError`; known-but-unavailable
        backends (and compile failures) degrade to numpy with a
        :class:`~repro.errors.DegradedExecution` warning.

    Examples
    --------
    >>> from repro.datasets import hidden_clusters
    >>> from repro.kernels import KernelSession, spmm
    >>> import numpy as np
    >>> m = hidden_clusters(10, 4, 64, 6, seed=0)
    >>> session = KernelSession(m)
    >>> X = np.random.default_rng(0).normal(size=(m.n_cols, 8))
    >>> bool(np.array_equal(session.run(X), spmm(m, X)))
    True
    """

    def __init__(
        self,
        target,
        *,
        chunk_k: int = DEFAULT_CHUNK_K,
        pool: WorkspacePool | None = None,
        backend: str | None = None,
    ) -> None:
        self.chunk_k = check_positive("chunk_k", chunk_k)
        self.pool = pool if pool is not None else WorkspacePool()
        self._local = threading.local()
        self._requested_backend = backend
        self._bind(target)

    def _bind(self, target) -> None:
        """Pin ``target``: derive per-matrix state and load its backend.

        Shared by construction and :meth:`refresh`; every target-derived
        attribute is (re)assigned here so a refresh leaves no stale state
        behind.
        """
        from repro.kernels.backends import DEFAULT_BACKEND, load_backend

        # Plans write reordered row r to original row row_order[r].
        row_order = None
        backend = self._requested_backend
        if isinstance(target, CSRMatrix):
            self._kind = "csr"
            csr = target
        elif isinstance(target, TiledMatrix):
            self._kind = "tiled"
            csr = target.original
        elif hasattr(target, "tiled") and hasattr(target, "row_order"):
            # ExecutionPlan (duck-typed: repro.reorder imports this module's
            # package, so a class check would be a circular import).
            self._kind = "plan"
            csr = target.tiled.original
            row_order = target.row_order
            if backend is None:
                backend = getattr(target, "backend", DEFAULT_BACKEND)
        else:
            raise TypeError(
                "KernelSession target must be a CSRMatrix, TiledMatrix or "
                f"ExecutionPlan, got {type(target).__name__}"
            )
        self.target = target
        self._n_rows = csr.n_rows
        self._n_cols = csr.n_cols
        self._state = CsrState(csr, row_order)
        # A missing compiler or a failed compile degrades inside the
        # loader, so a session never fails to construct over its backend.
        loaded = load_backend(DEFAULT_BACKEND if backend is None else backend)
        self._backend = loaded.backend
        self._fn = loaded.spmm
        self.backend_provenance = loaded.provenance

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Rows of the pinned target (rows of every result)."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Columns of the pinned target (required rows of operands)."""
        return self._n_cols

    @property
    def backend(self) -> str:
        """Name of the backend actually executing (after any degradation)."""
        return self._backend

    def stats(self) -> dict:
        """Workspace-pool counters (steady state: hits, no misses)."""
        return self.pool.stats()

    def close(self) -> None:
        """Drop the pooled scratch blocks (the session stays usable)."""
        self.pool.clear()

    def refresh(self, target) -> "KernelSession":
        """Re-pin the session onto a successor ``target`` in place.

        The streaming path: after :func:`repro.streaming.apply_delta`
        produces the successor plan, ``refresh`` re-derives every
        target-bound attribute (pinned state with its row order, backend —
        a warm load hits the process-wide cache) while keeping the
        session identity and its workspace pool.  Accepts the same target
        types as the constructor, plus a
        :class:`repro.streaming.PlanUpdate` (its ``plan`` is unwrapped).  The per-thread pinned output buffers are
        dropped because the matrix height may have changed.

        Not safe to interleave with concurrent :meth:`run` calls on the
        same session — callers that share a session across threads (the
        serving pool does) must serialise refresh against runs.
        """
        plan = getattr(target, "plan", None)
        if plan is not None and hasattr(plan, "row_order"):
            target = plan  # a PlanUpdate: pin the patched plan inside
        self._local = threading.local()
        self._bind(target)
        METRICS.counter(
            "streaming.sessions_refreshed",
            "kernel sessions re-pinned onto a streamed successor target",
        ).inc()
        return self

    # ------------------------------------------------------------------
    def _output(self, K: int, out: np.ndarray | None) -> np.ndarray:
        if out is not None:
            # Strict: an out= buffer the kernel cannot write in place
            # (wrong dtype, non-contiguous) is an error, never a silent
            # copy the caller would read zeros from.
            return check_out("out", out, rows=self._n_rows, cols=K)
        pinned = getattr(self._local, "out", None)
        if pinned is None or pinned.shape[1] != K:
            pinned = np.empty((self._n_rows, K), dtype=np.float64)
            self._local.out = pinned
        return pinned

    def run(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``target @ X`` (for plans: in original coordinates).

        Without ``out=`` the result lands in a per-thread pinned buffer
        that the *next* ``run`` on the same thread overwrites — the
        steady state allocates nothing.  Pass ``out=`` (or copy) to keep
        a result across calls.

        A failed scratch allocation (``MemoryError``) propagates; the
        lease hands back every block it took, so the next call runs on
        the same pool.
        """
        X = check_dense("X", X, rows=self._n_cols, dtype=None)
        K = X.shape[1]
        out = self._output(K, out)
        with span("kernel.run", kind=self._kind, k=K), self.pool.lease() as ws:
            # One pass over the pinned state, rows written to their places.
            if self._fn is not None:
                self._fn(self._state, X, out, ws)
            else:
                self._state.multiply(X, out, ws, self.chunk_k)
        return out
