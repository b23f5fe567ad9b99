"""Backend abstraction: specialization specs, compiled artifacts, base class.

A *backend* turns a :class:`SpecializationSpec` — the structural facts
about one matrix that are worth baking into code (kernel, operand dtype,
K-chunk width, whether any row is empty, expected operand width) — into a
:class:`CompiledKernel` whose ``fn`` executes one kernel.  The ``numpy``
reference compiles nothing: its kernels *are* the reference paths
(:meth:`repro.kernels.state.CsrState.multiply` and the one-shot
kernels).  The contract every compiled backend is held to (by the
cross-backend differential test matrix,
``tests/unit/test_backend_differential.py``) is the paper's "same bits,
faster" claim: a machine-code backend (``numba``) must match the
reference within **1 ULP** per element — its sequential row-wise
accumulation performs the same adds in the same order as
``np.add.reduceat`` (an accumulator initialised to ``0.0`` is exact:
``0.0 + x == x``), but the compiler may contract multiply-adds
differently.

Compiled-fn calling conventions (what ``CompiledKernel.fn`` receives):

=========  ==================================================================
kernel      signature and contract
=========  ==================================================================
``spmm``    ``fn(state, X, out, ws)`` — *fully overwrites* ``out`` with
            ``state.csr @ X`` (including zeroing empty rows);
            ``state`` is a :class:`repro.kernels.state.CsrState`.
``spmv``    ``fn(csr, x, ws) -> y`` — returns a fresh ``(n_rows,)`` float64.
``sddmm``   ``fn(csr, X, Y, ws) -> values`` — returns the new ``(nnz,)``
            values array (``(Y[i] . X[c]) * csr.value`` per entry).
=========  ==================================================================

``ws`` is always workspace-shaped (a leased
:class:`~repro.util.workspace.Workspace` or a
:class:`~repro.util.workspace.DirectWorkspace`); compiled kernels never
allocate scratch directly, so pooled and direct invocations stay
bitwise identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.kernels.state import DEFAULT_CHUNK_K, CsrState
from repro.sparse.csr import CSRMatrix
from repro.util.hashing import stable_digest
from repro.util.validation import check_dense, check_out
from repro.util.workspace import DirectWorkspace, as_workspace

__all__ = [
    "SpecializationSpec",
    "CompiledKernel",
    "KernelBackend",
    "specialize",
]


def _dtype_token(dtype) -> str:
    """Canonical dtype name for specialization keys (``float64``, ...)."""
    return np.dtype(dtype).name


@dataclass(frozen=True)
class SpecializationSpec:
    """The structural facts one compiled kernel is specialized to.

    Every field participates in :meth:`fingerprint`, which keys the
    process-global artifact cache and — via the descriptor stored next to
    the plan in the plan store — the content-addressed plan key, so a
    warm session never recompiles an artifact it already holds.

    Parameters
    ----------
    kernel:
        ``"spmm"`` / ``"spmv"`` / ``"sddmm"``.
    dtype:
        Operand dtype token (``"float64"``, ``"float32"``) or ``"any"``
        when the generated code is dtype-generic.  SDDMM kernels are
        dtype-specific: the dot-product accumulator must stay in the
        operands' common dtype for bitwise identity with ``einsum``.
    chunk_k:
        K-chunk width baked into the SpMM inner loop.
    nonempty_rows:
        When true, the matrix has no empty rows and the generated SpMM
        elides the empty-row zeroing epilogue.
    k_hint:
        Expected operand width (``0`` = unknown).  Advisory — kernels
        must stay correct for any K — but part of the cache key so a
        plan built for a known serving width gets its own artifact.
    """

    kernel: str = "spmm"
    dtype: str = "any"
    chunk_k: int = DEFAULT_CHUNK_K
    nonempty_rows: bool = False
    k_hint: int = 0

    def fingerprint(self) -> str:
        """Stable hex digest over every field (sorted ``name=repr``)."""
        fields = dataclasses.asdict(self)
        parts = [f"{k}={fields[k]!r}".encode("utf-8") for k in sorted(fields)]
        return stable_digest(*parts)

    def to_descriptor(self) -> tuple[str, ...]:
        """Serialise as ``("kernel=spmm", "dtype=any", ...)`` strings.

        The flat string form survives the plan store's ``.npz`` round
        trip and stays human-readable in ``repro doctor`` output.
        """
        fields = dataclasses.asdict(self)
        return tuple(f"{k}={fields[k]}" for k in sorted(fields))

    @classmethod
    def from_descriptor(cls, parts) -> "SpecializationSpec":
        """Parse :meth:`to_descriptor` output (unknown keys are ignored)."""
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs: dict = {}
        for part in parts:
            key, sep, value = str(part).partition("=")
            if not sep or key not in known:
                continue
            if key in ("kernel", "dtype"):
                kwargs[key] = value
            elif key == "nonempty_rows":
                kwargs[key] = value == "True"
            else:
                kwargs[key] = int(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class CompiledKernel:
    """One backend-compiled kernel plus its provenance.

    ``fn`` follows the calling convention for ``spec.kernel`` documented
    in the module docstring.  ``source`` is the generated source text for
    backends that generate code (``numba``) — kept for debuggability and
    asserted on in the test suite — and ``None`` for backends that wrap
    existing code.  ``compile_seconds`` is the measured wall clock of the
    ``backend.compile`` span that produced this artifact.
    """

    backend: str
    spec: SpecializationSpec
    fn: object
    source: str | None = None
    compile_seconds: float = 0.0

    def descriptor(self) -> tuple[str, ...]:
        """Flat string form: backend + spec fields + spec fingerprint."""
        return (
            f"backend={self.backend}",
            *self.spec.to_descriptor(),
            f"fingerprint={self.spec.fingerprint()}",
        )


def specialize(
    target,
    *,
    kernel: str = "spmm",
    dtype: str = "any",
    chunk_k: int = DEFAULT_CHUNK_K,
    k_hint: int = 0,
) -> SpecializationSpec:
    """Derive the :class:`SpecializationSpec` for a kernel on ``target``.

    ``target`` is a :class:`~repro.sparse.CSRMatrix` or a
    :class:`~repro.kernels.state.CsrState` (whose precomputed empty-row
    set is reused); anything else raises :class:`TypeError`.  Sessions and
    :func:`repro.reorder.attach_backend` specialize the one state they
    pin, so a tiled matrix or a plan is specialized through its
    ``CsrState``.
    """
    if isinstance(target, CsrState):
        nonempty = not target.any_empty and target.csr.nnz > 0
    elif isinstance(target, CSRMatrix):
        nonempty = bool(target.nnz > 0 and (target.row_lengths() > 0).all())
    else:
        raise TypeError(
            "specialize() target must be a CSRMatrix or CsrState, got "
            f"{type(target).__name__}"
        )
    return SpecializationSpec(
        kernel=kernel,
        dtype=dtype,
        chunk_k=int(chunk_k),
        nonempty_rows=nonempty,
        k_hint=int(k_hint),
    )


class KernelBackend:
    """Base class for compiled kernel backends.

    Subclasses set :attr:`name`, implement :meth:`compile` and (for
    optional dependencies) override :meth:`available` /
    :meth:`unavailable_reason`; the ``numpy`` reference sets only its
    name, because it is never compiled.  The one-shot kernel methods
    here are shared: they validate operands exactly like the reference
    kernels, fetch the matching compiled artifact through the
    process-global cache (:func:`repro.kernels.backends.compiled_artifact`)
    and invoke it through a workspace, so every backend automatically
    supports ``workspace=`` pooling and the strict ``out=`` contract.
    """

    #: Registry name; subclasses must override.
    name = "abstract"

    # -- availability ---------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        """Whether this backend can compile in the current environment."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str:
        """Human-readable reason when :meth:`available` is false."""
        return ""

    # -- compilation ----------------------------------------------------
    def compile(self, spec: SpecializationSpec) -> CompiledKernel:
        """Build the :class:`CompiledKernel` for ``spec``.

        Raises :class:`repro.errors.BackendUnavailable` when the backend
        cannot compile here (missing dependency, injected fault).  Called
        through :func:`repro.kernels.backends.compiled_artifact`, which
        adds caching, the ``backend.compile`` tracing span, the fault
        point and the ``kernels.backend_compile`` counter — never call it
        directly from kernel paths.
        """
        raise NotImplementedError

    def artifact(self, spec: SpecializationSpec) -> CompiledKernel:
        """The cached compiled artifact for ``spec`` (compiling on miss)."""
        from repro.kernels.backends.registry import compiled_artifact

        return compiled_artifact(self, spec)

    # -- one-shot kernel surface ----------------------------------------
    def spmm(
        self,
        csr: CSRMatrix,
        X: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """``csr @ X`` through this backend's compiled SpMM.

        Held to :func:`repro.kernels.spmm` within 1 ULP per element.
        """
        X = check_dense("X", X, rows=csr.n_cols, dtype=None)
        K = X.shape[1]
        if out is None:
            out = np.empty((csr.n_rows, K), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else), so both branches agree
        else:
            out = check_out("out", out, rows=csr.n_rows, cols=K)
        state = CsrState(csr)
        spec = specialize(state, kernel="spmm", dtype=_dtype_token(X.dtype))
        fn = self.artifact(spec).fn
        ws, owned = as_workspace(workspace)
        try:
            fn(state, X, out, ws if ws is not None else DirectWorkspace())
        finally:
            if owned:
                ws.release()
        return out

    def spmv(self, csr: CSRMatrix, x: np.ndarray, *, workspace=None) -> np.ndarray:
        """``csr @ x`` through this backend (matches :func:`repro.kernels.spmv`)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size != csr.n_cols:
            raise ValueError(
                f"x must be 1-D of length {csr.n_cols}, got shape {x.shape}"
            )
        if csr.nnz == 0:
            return np.zeros(csr.n_rows, dtype=np.float64)
        spec = specialize(csr, kernel="spmv", dtype="float64")
        fn = self.artifact(spec).fn
        ws, owned = as_workspace(workspace)
        try:
            return fn(csr, x, ws if ws is not None else DirectWorkspace())
        finally:
            if owned:
                ws.release()

    def sddmm(
        self, csr: CSRMatrix, X: np.ndarray, Y: np.ndarray, *, workspace=None
    ) -> CSRMatrix:
        """Sampled dense–dense multiply (matches :func:`repro.kernels.sddmm`)."""
        X = check_dense("X", X, rows=csr.n_cols, dtype=None)
        Y = check_dense("Y", Y, rows=csr.n_rows, cols=X.shape[1], dtype=None)
        if csr.nnz == 0:
            return csr.copy()
        # The dot-product accumulator must live in the operands' common
        # dtype (einsum semantics), so the artifact is dtype-specific.
        common = _dtype_token(np.result_type(X.dtype, Y.dtype))
        spec = specialize(csr, kernel="sddmm", dtype=common)
        fn = self.artifact(spec).fn
        ws, owned = as_workspace(workspace)
        try:
            values = fn(csr, X, Y, ws if ws is not None else DirectWorkspace())
        finally:
            if owned:
                ws.release()
        return csr.with_values(values)
