"""Backend abstraction: specialization specs, compiled artifacts, base class.

A *backend* turns a :class:`SpecializationSpec` — the kernel and operand
dtype one artifact serves — into a :class:`CompiledKernel` whose ``fn``
executes that kernel.  The ``numpy`` reference compiles nothing: its
kernels *are* the reference paths (:meth:`repro.kernels.state.CsrState.multiply`
and the one-shot kernels).  The contract every compiled backend is held
to, by the cross-backend differential test matrix
(``tests/unit/test_backend_differential.py``) and every bitwise oracle,
is the paper's "same bits, faster" claim taken literally: the ``cc``
backend's SpMM is bit-equal to :func:`repro.kernels.spmm`, because it
sums each row in ``np.add.reduceat``'s order (see
:mod:`repro.kernels.state`).

Only SpMM is compiled.  The compiled-fn calling convention
(``CompiledKernel.fn`` for ``spec.kernel == "spmm"``) is
``fn(state, X, out, ws)``: it *fully overwrites* ``out`` with
``state.csr @ X`` (zeroing empty rows, and writing row ``r`` to
``out[state.row_order[r]]`` when the state has a row order); ``state`` is
a :class:`repro.kernels.state.CsrState`.  ``ws`` is always
workspace-shaped (a leased :class:`~repro.util.workspace.Workspace` or a
:class:`~repro.util.workspace.DirectWorkspace`); compiled kernels never
allocate scratch directly, so pooled and direct invocations stay
bitwise identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.kernels.state import CsrState
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


@dataclass(frozen=True)
class SpecializationSpec:
    """What one compiled kernel is built for.

    Every field participates in :meth:`fingerprint`, which keys the
    process-global artifact cache and — via the descriptor stored next to
    the plan in the plan store — the content-addressed plan key, so a
    warm session never recompiles an artifact it already holds.  No field
    depends on the matrix, so every matrix shares one artifact.

    Parameters
    ----------
    kernel:
        ``"spmm"`` (the only kernel a backend compiles).
    dtype:
        Operand dtype token (``"float64"``, ``"float32"``) or ``"any"``
        when the artifact is dtype-generic.
    """

    kernel: str = "spmm"
    dtype: str = "any"

    def fingerprint(self) -> str:
        """Stable hex digest over every field (sorted ``name=repr``)."""
        fields = dataclasses.asdict(self)
        parts = [f"{k}={fields[k]!r}".encode("utf-8") for k in sorted(fields)]
        return stable_digest(*parts)

    def to_descriptor(self) -> tuple[str, ...]:
        """Serialise as ``("dtype=any", "kernel=spmm")`` strings.

        The flat string form survives the plan store's ``.npz`` round
        trip and stays human-readable in ``repro doctor`` output.
        """
        fields = dataclasses.asdict(self)
        return tuple(f"{k}={fields[k]}" for k in sorted(fields))

    @classmethod
    def from_descriptor(cls, parts) -> "SpecializationSpec":
        """Parse :meth:`to_descriptor` output (unknown keys are ignored)."""
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: dict = {}
        for part in parts:
            key, sep, value = str(part).partition("=")
            if sep and key in known:
                kwargs[key] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class CompiledKernel:
    """One backend-compiled kernel plus its provenance.

    ``fn`` follows the calling convention documented in the module
    docstring.  ``compile_seconds`` is the measured wall clock of the
    ``backend.compile`` span that produced this artifact.
    """

    backend: str
    spec: SpecializationSpec
    fn: object
    compile_seconds: float = 0.0

    def descriptor(self) -> tuple[str, ...]:
        """Flat string form: backend + spec fields + spec fingerprint."""
        return (
            f"backend={self.backend}",
            *self.spec.to_descriptor(),
            f"fingerprint={self.spec.fingerprint()}",
        )


def specialize(*, kernel: str = "spmm", dtype: str = "any") -> SpecializationSpec:
    """The :class:`SpecializationSpec` for ``kernel`` on ``dtype`` operands.

    It needs no matrix: the compiled kernel takes K and the CSR arrays as
    arguments, so sessions, plan builds and one-shot calls on any matrix
    share one artifact, and no matrix can make a timed call compile.
    """
    return SpecializationSpec(kernel=kernel, dtype=dtype)


class KernelBackend:
    """Base class for compiled kernel backends.

    Subclasses set :attr:`name`, implement :meth:`compile` and (when they
    depend on the environment) override :meth:`available` /
    :meth:`unavailable_reason`; the ``numpy`` reference sets only its
    name, because it is never compiled.  The one-shot :meth:`spmm` here
    is shared: it validates operands exactly like the reference kernel,
    fetches the compiled artifact through the process-global cache
    (:func:`repro.kernels.backends.compiled_artifact`) and invokes it
    through a workspace, so every backend supports ``workspace=`` pooling
    and the strict ``out=`` contract.
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
        cannot compile here (no compiler, failed build, injected fault).
        Called through :func:`repro.kernels.backends.compiled_artifact`,
        which adds caching, the ``backend.compile`` tracing span, the fault
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

        Bit-equal to :func:`repro.kernels.spmm`.
        """
        X = check_dense("X", X, rows=csr.n_cols, dtype=None)
        K = X.shape[1]
        if out is None:
            out = np.empty((csr.n_rows, K), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else), so both branches agree
        else:
            out = check_out("out", out, rows=csr.n_rows, cols=K)
        fn = self.artifact(specialize(kernel="spmm")).fn
        ws, owned = as_workspace(workspace)
        try:
            fn(CsrState(csr), X, out, ws if ws is not None else DirectWorkspace())
        finally:
            if owned:
                ws.release()
        return out
