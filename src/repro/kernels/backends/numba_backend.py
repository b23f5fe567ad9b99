"""The ``numba`` backend: true machine-code JIT, never a hard dependency.

When :mod:`numba` is importable, ``compile`` renders a row-wise kernel
specialized to the :class:`~repro.kernels.backends.SpecializationSpec`
(K-chunk blocking baked in as literals; SDDMM accumulator dtype chosen
per spec) and wraps it in ``numba.njit`` with ``fastmath=False`` and
row-parallel ``prange``.  When numba is absent — the default environment
and the default CI lane — the backend stays *registered* but reports
itself unavailable; :func:`~repro.kernels.backends.resolve_backend`
degrades such requests to the ``numpy`` reference, which is exactly what
the chaos and degradation tests lock down.  The dedicated ``backends``
CI lane installs numba and runs the full differential matrix against it.

Numerical contract — why 1 ULP and not bitwise
----------------------------------------------
The generated loops perform, per output element, the same multiplies as
the numpy reference but add them left to right from ``0.0``, and
``fastmath=False`` forbids LLVM from reassociating that loop.  The
reference sums in ``np.add.reduceat``'s order instead — the first
product plus numpy's pairwise sum of the rest — so for rows with three
or more non-zeros the two differ in association; LLVM may also contract
a ``multiply + add`` into a fused multiply-add, which rounds once
instead of twice.  The differential matrix holds numba output to within
1 ULP of the numpy reference per element.  Parallelising over rows is
safe: each output row is written by exactly one iteration.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BackendUnavailable
from repro.kernels.backends.base import CompiledKernel, KernelBackend, SpecializationSpec

__all__ = ["NumbaBackend"]

_IMPORT_ERROR: str | None = None


def _import_numba():
    """The :mod:`numba` module, or ``None`` (reason in ``_IMPORT_ERROR``)."""
    global _IMPORT_ERROR
    try:
        import numba
    except Exception as exc:  # reprolint: disable=RD106 -- import probe: any failure (ImportError, broken install, llvmlite ABI mismatch) just means the backend is unavailable here
        _IMPORT_ERROR = f"{type(exc).__name__}: {exc}"
        return None
    return numba


# Row-parallel CSR SpMM with the K-chunk width baked in.  Per (i, k) the
# j-loop adds left to right, which is not the reduceat order (first
# product plus a pairwise sum of the rest): rows of three or more
# non-zeros may differ from the reference in association and by FMA.
_SPMM_TEMPLATE = """\
def kernel(rowptr, colidx, values, X, out):
    n_rows = rowptr.shape[0] - 1
    K = X.shape[1]
    for i in prange(n_rows):
        lo = rowptr[i]
        hi = rowptr[i + 1]
        for k0 in range(0, K, {chunk_k}):
            k1 = min(k0 + {chunk_k}, K)
            for k in range(k0, k1):
                out[i, k] = 0.0
            for j in range(lo, hi):
                v = values[j]
                c = colidx[j]
                for k in range(k0, k1):
                    out[i, k] += v * X[c, k]
"""

_SPMV_TEMPLATE = """\
def kernel(rowptr, colidx, values, x, y):
    n_rows = rowptr.shape[0] - 1
    for i in prange(n_rows):
        acc = 0.0
        for j in range(rowptr[i], rowptr[i + 1]):
            acc += values[j] * x[colidx[j]]
        y[i] = acc
"""

# The accumulator literal pins the einsum accumulation dtype: float32
# operands accumulate in float32, everything else in float64.
_SDDMM_TEMPLATE = """\
def kernel(rowptr, colidx, values, X, Y, out):
    n_rows = rowptr.shape[0] - 1
    K = X.shape[1]
    for i in prange(n_rows):
        for j in range(rowptr[i], rowptr[i + 1]):
            c = colidx[j]
            acc = {acc_init}
            for k in range(K):
                acc += Y[i, k] * X[c, k]
            out[j] = acc * values[j]
"""


def render_source(spec: SpecializationSpec) -> str:
    """The specialized (pre-``njit``) kernel source for ``spec``."""
    if spec.kernel == "spmm":
        return _SPMM_TEMPLATE.format(chunk_k=max(1, spec.chunk_k))
    if spec.kernel == "spmv":
        return _SPMV_TEMPLATE
    if spec.kernel == "sddmm":
        acc_init = "np.float32(0.0)" if spec.dtype == "float32" else "0.0"
        return _SDDMM_TEMPLATE.format(acc_init=acc_init)
    raise ValueError(f"unknown kernel {spec.kernel!r}")


class NumbaBackend(KernelBackend):
    """JIT backend compiling specialized row-wise kernels via numba."""

    name = "numba"

    @classmethod
    def available(cls) -> bool:
        """True when ``import numba`` succeeds in this environment."""
        return _import_numba() is not None

    @classmethod
    def unavailable_reason(cls) -> str:
        """Why numba cannot be used here, or ``""`` when it can."""
        if _import_numba() is not None:
            return ""
        return f"numba is not importable ({_IMPORT_ERROR})"

    def compile(self, spec: SpecializationSpec) -> CompiledKernel:
        """``numba.njit``-compile the rendered kernel (``BackendUnavailable`` without numba)."""
        numba = _import_numba()
        if numba is None:
            raise BackendUnavailable(
                f"cannot compile {spec.kernel!r}: numba is not importable "
                f"({_IMPORT_ERROR})"
            )
        source = render_source(spec)
        filename = f"<repro-numba-{spec.fingerprint()[:12]}>"
        namespace: dict = {"np": np, "prange": numba.prange}
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        raw = numba.njit(namespace["kernel"], fastmath=False, parallel=True)
        fn = _wrap(spec.kernel, raw)
        return CompiledKernel(backend=self.name, spec=spec, fn=fn, source=source)


def _wrap(kernel: str, raw):
    """Adapt a raw array-level numba kernel to the compiled-fn convention."""
    if kernel == "spmm":

        def spmm_fn(state, X, out, ws):
            raw(state.csr.rowptr, state.colidx, state.values, X, out)

        return spmm_fn
    if kernel == "spmv":

        def spmv_fn(csr, x, ws):
            y = np.empty(csr.n_rows, dtype=np.float64)
            raw(csr.rowptr, csr.colidx, csr.values, x, y)
            return y

        return spmv_fn

    def sddmm_fn(csr, X, Y, ws):
        out = np.empty(csr.nnz, dtype=np.float64)  # reprolint: disable=RD105 -- the values array escapes into the returned matrix; it must be caller-owned, never pooled scratch
        raw(csr.rowptr, csr.colidx, csr.values, X, Y, out)
        return out

    return sddmm_fn
