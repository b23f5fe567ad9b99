"""Functionally correct SpMM and SDDMM kernels.

Two families:

* **Row-wise** kernels (:mod:`repro.kernels.spmm`, :mod:`repro.kernels.sddmm`)
  implementing the paper's Alg. 1 / Alg. 2 semantics, both as a readable
  reference loop and as a vectorised production path.
* **Tiled** kernels (:mod:`repro.kernels.aspt_spmm`,
  :mod:`repro.kernels.aspt_sddmm`) operating on a
  :class:`repro.aspt.TiledMatrix`, computing the dense tiles through an
  explicitly staged panel buffer (the functional analogue of the GPU
  shared-memory path) and the remainder row-wise.

The one-shot kernels allocate their scratch on every call.
:class:`repro.kernels.KernelSession` pins a matrix (or tiled matrix, or
execution plan) for the repeated-multiply serving case and leases its
scratch from its own pool (:mod:`repro.util.workspace`) —
bitwise-identical results at a fraction of the steady-state cost.

:func:`spmm` and :class:`~repro.kernels.KernelSession` additionally
accept ``backend=``, naming a kernel backend from
:mod:`repro.kernels.backends` — ``cc`` (the SpMM loop built by the system
C compiler, the default for sessions and plans) or ``numpy`` (the
uncompiled reference, always available, and what ``cc`` degrades to
without a compiler).  Both give the same bits: the cross-backend
differential test matrix holds ``cc`` bitwise equal to :func:`spmm`,
which stays the independent reference.

These kernels compute *results*; the corresponding *performance* estimates
come from :mod:`repro.gpu`, which models the same access patterns on a
P100-like memory hierarchy.
"""

from repro.kernels.spmm import spmm, spmm_rowwise_reference
from repro.kernels.sddmm import sddmm, sddmm_rowwise_reference
from repro.kernels.aspt_spmm import spmm_tiled
from repro.kernels.aspt_sddmm import sddmm_tiled
from repro.kernels.state import DEFAULT_CHUNK_K, CsrState
from repro.kernels.session import KernelSession
from repro.kernels.validate import assert_spmm_correct, assert_sddmm_correct
from repro.kernels.backends import BACKENDS, load_backend

__all__ = [
    "KernelSession",
    "CsrState",
    "DEFAULT_CHUNK_K",
    "spmm",
    "spmm_rowwise_reference",
    "sddmm",
    "sddmm_rowwise_reference",
    "spmm_tiled",
    "sddmm_tiled",
    "assert_spmm_correct",
    "assert_sddmm_correct",
    "BACKENDS",
    "load_backend",
]
