"""The ``numpy`` reference backend — always available, defines "correct".

It compiles nothing: a numpy :class:`~repro.kernels.KernelSession` runs
:meth:`repro.kernels.state.CsrState.multiply` directly, and the one-shot
:func:`~repro.kernels.spmm`, :func:`~repro.kernels.spmv` and
:func:`~repro.kernels.sddmm` run their own reference paths before any
backend dispatch.  The backend is registered so configuration, plan
provenance and ``repro backends`` can name it, and because every
degradation (unavailable backend, injected compile fault) lands here.
Every compiled backend's output is asserted against these reference
paths by the differential test matrix.
"""

from __future__ import annotations

from repro.kernels.backends.base import KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Reference backend: the NumPy kernels themselves, never compiled."""

    name = "numpy"
