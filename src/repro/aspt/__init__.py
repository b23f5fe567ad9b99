"""Adaptive Sparse Tiling (ASpT) substrate — Hong et al., PPoPP 2019.

This reimplements the data transformation the paper builds on (§2.3): rows
are grouped into *panels* of consecutive rows; within each panel, columns
with at least ``dense_threshold`` non-zeros form *dense tiles* whose
corresponding dense-operand rows are staged through GPU shared memory, while
the remaining non-zeros form the *sparse remainder* processed row-wise.

:func:`repro.aspt.tile_matrix` performs the split and returns a
:class:`repro.aspt.TiledMatrix`, whose
:attr:`~repro.aspt.TiledMatrix.dense_ratio` is the statistic that drives
both the paper's §4 round-1 heuristic and the Fig. 9 analysis.
"""

from repro.aspt.panels import PanelSpec
from repro.aspt.tiles import TiledMatrix, tile_matrix

__all__ = [
    "PanelSpec",
    "TiledMatrix",
    "tile_matrix",
]
