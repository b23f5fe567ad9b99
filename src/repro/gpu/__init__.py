"""GPU memory-hierarchy performance model (the P100 substitute).

The paper measures hand-tuned CUDA kernels on an Nvidia P100.  This
reproduction has no GPU, so :mod:`repro.gpu` models the part of the machine
that actually explains the paper's results — **data movement**:

* :mod:`repro.gpu.device` — machine parameters (:class:`DeviceSpec`; the
  ``P100`` preset mirrors §5.1: 56 SMs, 732 GB/s, 4 MB L2, 64 KB shared
  memory per SM).
* :mod:`repro.gpu.cache` — an exact fully-associative LRU simulator, an
  exact set-associative simulator, and a vectorised reuse-distance
  approximation for corpus-scale sweeps.
* :mod:`repro.gpu.coalescing` — warp-level transaction counting.
* :mod:`repro.gpu.trace` — converts kernels + matrices into the access
  streams the cache model consumes (including the thread-block-level
  dedup that the paper's Fig. 3/4 access counting uses).
* :mod:`repro.gpu.costmodel` — traffic -> time roofline with documented,
  frozen calibration constants.
* :mod:`repro.gpu.executor` — the user-facing entry point: estimate SpMM /
  SDDMM cost for a kernel variant on a device.

Absolute numbers are model outputs; the experiments only rely on *relative*
ordering, which traffic dominates for these memory-bound kernels.
"""

from repro.gpu.device import P100, V100, DeviceSpec
from repro.gpu.cache import (
    CacheStats,
    approx_lru_hits,
    lru_hits,
    set_associative_hits,
)
from repro.gpu.coalescing import row_load_transactions, stream_bytes
from repro.gpu.trace import (
    block_access_stream,
    paper_example_access_counts,
)
from repro.gpu.costmodel import CostModelConfig, KernelCost
from repro.gpu.executor import GPUExecutor

__all__ = [
    "DeviceSpec",
    "P100",
    "V100",
    "CacheStats",
    "lru_hits",
    "approx_lru_hits",
    "set_associative_hits",
    "row_load_transactions",
    "stream_bytes",
    "block_access_stream",
    "paper_example_access_counts",
    "CostModelConfig",
    "KernelCost",
    "GPUExecutor",
]
