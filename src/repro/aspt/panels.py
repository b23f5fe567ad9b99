"""Row panels: the first step of ASpT (paper Fig. 3a).

A *panel* is a group of ``panel_height`` consecutive rows.  The panel
decomposition never moves data — it only defines the scope within which
column density is evaluated, so :class:`PanelSpec` is pure index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive

__all__ = ["PanelSpec"]


@dataclass(frozen=True)
class PanelSpec:
    """Panel decomposition of an ``n_rows``-row matrix.

    Attributes
    ----------
    n_rows:
        Number of matrix rows.
    panel_height:
        Rows per panel (the last panel may be shorter).
    n_panels:
        ``ceil(n_rows / panel_height)``.
    """

    n_rows: int
    panel_height: int

    def __post_init__(self):
        check_positive("panel_height", self.panel_height)
        if self.n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {self.n_rows}")

    @property
    def n_panels(self) -> int:
        """``ceil(n_rows / panel_height)`` (0 for an empty matrix)."""
        return -(-self.n_rows // self.panel_height) if self.n_rows else 0
