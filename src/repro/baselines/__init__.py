"""Baselines the paper compares against.

The cuSPARSE-like SpMM and BIDMach-like SDDMM baselines are cost variants
of :class:`repro.gpu.GPUExecutor` (``"cusparse"`` and ``"bidmach"``),
which the experiment runner calls directly; their results are the
ordinary row-wise kernels'.

* :mod:`repro.baselines.vertex_reorder` — vertex reordering (METIS
  stand-in: recursive graph bisection), used to reproduce the paper's
  §5.2 negative result that vertex reordering does not help SpMM.
"""

from repro.baselines.vertex_reorder import (
    apply_symmetric_order,
    bisection_order,
    symmetrized_adjacency,
)

__all__ = [
    "apply_symmetric_order",
    "bisection_order",
    "symmetrized_adjacency",
]
