"""The ``codegen`` backend: per-matrix Python/NumPy source specialization.

Always available (it depends only on the interpreter), this backend is
the repo's stand-in for the paper's JIT story on machines without a real
JIT: at compile time it renders kernel *source text* specialized to the
:class:`~repro.kernels.backends.SpecializationSpec` — the K-chunk width
is baked in as a literal, the empty-row epilogue is elided entirely when
the matrix has no empty rows — and ``exec``-compiles it into a closure.

Correctness is by construction: the rendered source performs the exact
ufunc sequence of the ``numpy`` reference in the same operand order, so
the output is **bitwise identical** (asserted with
``np.testing.assert_array_equal`` in the differential matrix, not a
tolerance).  What changes is the *strategy*: the specialized SpMM runs
the transposed K-chunked schedule, which on the bench-gate workload is
severalfold faster than the one-shot gather of the plain
:func:`repro.kernels.spmm` at serving widths — that measured cell is
what ``BENCH_kernels.json`` commits.

The generated source is kept on :attr:`CompiledKernel.source` so tests
can assert the specialization really happened (chunk literal present,
epilogue present/absent) and ``repro doctor`` can show it.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backends.base import CompiledKernel, KernelBackend, SpecializationSpec
from repro.kernels.state import stage_transposed

__all__ = ["CodegenBackend"]

_SPMM_TEMPLATE = """\
def kernel(state, X, out, ws):
    csr = state.csr
    K = X.shape[1]
    if csr.nnz == 0 or K == 0:
        out[:] = 0.0
        return
    XT = stage_transposed(X, ws)
    chunk = min({chunk_k}, K)
    gathered = ws.scratch((chunk, csr.nnz))
    sums = ws.scratch((chunk, state.nonempty.size))
    for k0 in range(0, K, chunk):
        k1 = min(k0 + chunk, K)
        g = gathered[: k1 - k0]
        s = sums[: k1 - k0]
        np.take(XT[k0:k1], state.colidx, axis=1, out=g)
        np.multiply(state.values_row, g, out=g)
        np.add.reduceat(g, state.starts, axis=1, out=s)
        out[state.nonempty, k0:k1] = s.T
{empty_epilogue}"""

_EMPTY_EPILOGUE = """\
    if state.any_empty:
        out[state.empty] = 0.0
"""

# nonempty_rows=True: the epilogue is elided — the specialization the
# differential tests assert by inspecting CompiledKernel.source.
_NONEMPTY_EPILOGUE = ""

_SPMV_TEMPLATE = """\
def kernel(csr, x, ws):
    products = ws.scratch(csr.nnz)
    np.take(x, csr.colidx, out=products)
    np.multiply(csr.values, products, out=products)
    return segment_sum(products, csr.rowptr)
"""

_SDDMM_TEMPLATE = """\
def kernel(csr, X, Y, ws):
    K = X.shape[1]
    rows = csr.row_ids()
    y_gathered = ws.scratch((csr.nnz, K), dtype=Y.dtype)
    np.take(Y, rows, axis=0, out=y_gathered)
    x_gathered = ws.scratch((csr.nnz, K), dtype=X.dtype)
    np.take(X, csr.colidx, axis=0, out=x_gathered)
    dots = np.einsum("pk,pk->p", y_gathered, x_gathered)
    return dots * csr.values
"""


def render_source(spec: SpecializationSpec) -> str:
    """The specialized kernel source for ``spec`` (public for the tests)."""
    if spec.kernel == "spmm":
        epilogue = _NONEMPTY_EPILOGUE if spec.nonempty_rows else _EMPTY_EPILOGUE
        return _SPMM_TEMPLATE.format(chunk_k=spec.chunk_k, empty_epilogue=epilogue)
    if spec.kernel == "spmv":
        return _SPMV_TEMPLATE
    if spec.kernel == "sddmm":
        return _SDDMM_TEMPLATE
    raise ValueError(f"unknown kernel {spec.kernel!r}")


class CodegenBackend(KernelBackend):
    """Specialized-source backend: render, ``exec``-compile, close over."""

    name = "codegen"

    def compile(self, spec: SpecializationSpec) -> CompiledKernel:
        """Render Python source specialized to ``spec`` and ``exec``-compile it."""
        from repro.util.arrayops import segment_sum

        source = render_source(spec)
        filename = f"<repro-codegen-{spec.fingerprint()[:12]}>"
        namespace: dict = {
            "np": np,
            "segment_sum": segment_sum,
            "stage_transposed": stage_transposed,
        }
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        return CompiledKernel(
            backend=self.name, spec=spec, fn=namespace["kernel"], source=source
        )
