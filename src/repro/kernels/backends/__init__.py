"""Pluggable compiled kernel backends with per-matrix specialization.

The paper's speedups come from tailoring execution to each matrix's
structure; this package carries that idea past strategy selection into
*code* selection.  A :class:`SpecializationSpec` captures the structural
facts worth baking into a kernel (K-chunk width, empty-row presence,
dtype, expected operand width); a backend compiles it into a
:class:`CompiledKernel`; the registry caches artifacts process-wide by
``(backend, spec fingerprint)`` so warm sessions never recompile.

Two backends are always registered:

``numpy``
    The uncompiled reference: :meth:`repro.kernels.state.CsrState.multiply`
    and the one-shot kernels.  Always available, it compiles nothing, and
    every degradation lands here.
``numba``
    True machine-code JIT when :mod:`numba` is importable; registered
    but unavailable otherwise, so requesting it degrades gracefully to
    ``numpy`` instead of failing (never a hard dependency).

Selection is by name — ``ReorderConfig.backend``, ``repro run/bench
--backend``, ``KernelSession(backend=...)`` — and always resolves
through :func:`resolve_backend`, which records degradations in the
plan's ``backend_provenance``, the ``kernels.backend_fallback`` counter
and a :class:`~repro.errors.DegradedExecution` warning.  See
``docs/BACKENDS.md`` for the full contract.
"""

from __future__ import annotations

from repro.kernels.backends.base import (
    CompiledKernel,
    KernelBackend,
    SpecializationSpec,
    specialize,
)
from repro.kernels.backends.numba_backend import NumbaBackend
from repro.kernels.backends.numpy_backend import NumpyBackend
from repro.kernels.backends.registry import (
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
    "NumbaBackend",
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
register_backend(NumbaBackend())
