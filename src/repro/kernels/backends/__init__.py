"""Kernel backends: the numpy reference and the compiled ``cc`` SpMM.

A :class:`SpecializationSpec` names what one artifact is built for (the
kernel and operand dtype — nothing about the matrix, so every matrix
shares one artifact); a backend compiles it into a
:class:`CompiledKernel`; the registry caches artifacts process-wide by
``(backend, spec fingerprint)`` so warm sessions never recompile.

Two backends are registered:

``cc`` (the default, :data:`DEFAULT_BACKEND`)
    The CSR SpMM loop in C, built once by the system compiler (``$CC``,
    default ``cc``) into an on-disk cache and loaded with :mod:`ctypes`.
    It sums in ``np.add.reduceat``'s order, so it is **bitwise
    identical** to :func:`repro.kernels.spmm`.  Unavailable without a
    compiler.
``numpy``
    The uncompiled reference: :meth:`repro.kernels.state.CsrState.multiply`
    and the one-shot kernels.  Always available, it compiles nothing, and
    every degradation lands here.

Only SpMM is compiled; :func:`repro.kernels.spmv` and
:func:`repro.kernels.sddmm` accept any registered backend name and run
their numpy reference.

Selection is by name — ``ReorderConfig.backend``, ``ServeConfig.backend``,
``repro run/serve/bench --backend``, ``KernelSession(backend=...)`` — and
always resolves through :func:`resolve_backend`; an unavailable backend or
a failed compile degrades to ``numpy`` with a ``backend:<name>->numpy:
...`` entry in the plan's or session's ``backend_provenance``, the
``kernels.backend_fallback`` counter and a
:class:`~repro.errors.DegradedExecution` warning.  See
``docs/BACKENDS.md`` for the full contract.
"""

from __future__ import annotations

from repro.kernels.backends.base import (
    CompiledKernel,
    KernelBackend,
    SpecializationSpec,
    specialize,
)
from repro.kernels.backends.cc_backend import CcBackend
from repro.kernels.backends.numpy_backend import NumpyBackend
from repro.kernels.backends.registry import (
    DEFAULT_BACKEND,
    available_backends,
    backend_names,
    compiled_artifact,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "SpecializationSpec",
    "CompiledKernel",
    "KernelBackend",
    "NumpyBackend",
    "CcBackend",
    "DEFAULT_BACKEND",
    "specialize",
    "register_backend",
    "get_backend",
    "backend_names",
    "available_backends",
    "resolve_backend",
    "compiled_artifact",
]

# Canonical registrations, numpy first (the degradation target must
# exist before any resolve_backend call can run).
register_backend(NumpyBackend())
register_backend(CcBackend())
