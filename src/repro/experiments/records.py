"""Result records and their (de)serialisation.

One :class:`MatrixRecord` holds everything the tables and figures need for
one (matrix, K) combination, so a corpus run can be saved to JSON once and
every presentation layer replayed from disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

__all__ = ["MatrixRecord", "save_records", "load_records"]


@dataclass(frozen=True)
class MatrixRecord:
    """Modelled results for one matrix at one dense width ``k``.

    Times are modelled kernel seconds; ``preprocess_s`` is measured
    wall-clock of the reordering pipeline (the paper reports these two
    separately, and so do we).
    """

    name: str
    category: str
    expected_benefit: str
    n_rows: int
    n_cols: int
    nnz: int
    k: int
    # --- SpMM kernel times (s) ---
    spmm_cusparse_s: float
    spmm_aspt_nr_s: float
    spmm_aspt_rr_s: float
    # --- SDDMM kernel times (s) ---
    sddmm_bidmach_s: float
    sddmm_aspt_nr_s: float
    sddmm_aspt_rr_s: float
    # --- reordering metadata ---
    needs_reordering: bool  #: a reordering round ran AND moved at least one row
    round1_applied: bool
    round2_applied: bool
    round1_changed: bool
    round2_changed: bool
    delta_dense_ratio: float
    delta_avg_sim: float
    dense_ratio_before: float
    dense_ratio_after: float
    preprocess_s: float
    #: Degradation-ladder summary when a plan build settled below the
    #: ``full`` rung (e.g. ``"rr: full: TimeoutExceeded: ...; identity:
    #: ok"``); empty for clean builds.  Defaulted so records saved before
    #: this field existed still load.
    degradation: str = ""
    #: Per-stage preprocessing wall-clock seconds of the reordered plan
    #: build (``lsh1``/``cluster1``/``tile``/... — the
    #: ``ExecutionPlan.preprocess_seconds`` breakdown), landed here so
    #: sweep records carry stage attribution, not just the total.
    #: Defaulted so records saved before this field existed still load.
    stage_seconds: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derived quantities used by the tables/figures
    # ------------------------------------------------------------------
    @property
    def spmm_flops(self) -> float:
        """Useful FLOPs of one SpMM (``2 * nnz * K``)."""
        return 2.0 * self.nnz * self.k

    @property
    def sddmm_flops(self) -> float:
        """Useful FLOPs of one SDDMM (``2 * nnz * K + nnz``)."""
        return 2.0 * self.nnz * self.k + self.nnz

    def spmm_gflops(self, variant: str) -> float:
        """Modelled SpMM throughput for ``variant`` in GFLOP/s."""
        t = {
            "cusparse": self.spmm_cusparse_s,
            "aspt_nr": self.spmm_aspt_nr_s,
            "aspt_rr": self.spmm_aspt_rr_s,
        }[variant]
        return self.spmm_flops / t / 1e9

    def sddmm_gflops(self, variant: str) -> float:
        """Modelled SDDMM throughput for ``variant`` in GFLOP/s."""
        t = {
            "bidmach": self.sddmm_bidmach_s,
            "aspt_nr": self.sddmm_aspt_nr_s,
            "aspt_rr": self.sddmm_aspt_rr_s,
        }[variant]
        return self.sddmm_flops / t / 1e9

    @property
    def spmm_rr_speedup_vs_best(self) -> float:
        """Table 1 metric: ASpT-RR vs the faster of cuSPARSE / ASpT-NR."""
        return min(self.spmm_cusparse_s, self.spmm_aspt_nr_s) / self.spmm_aspt_rr_s

    @property
    def sddmm_rr_speedup(self) -> float:
        """Table 2 metric: ASpT-RR vs ASpT-NR."""
        return self.sddmm_aspt_nr_s / self.sddmm_aspt_rr_s

    @property
    def spmm_nr_speedup_vs_cusparse(self) -> float:
        """Fig. 8 series: ASpT-NR vs cuSPARSE."""
        return self.spmm_cusparse_s / self.spmm_aspt_nr_s

    @property
    def spmm_rr_speedup_vs_cusparse(self) -> float:
        """Fig. 8 series: ASpT-RR vs cuSPARSE."""
        return self.spmm_cusparse_s / self.spmm_aspt_rr_s

    def preprocess_ratio(self, op: str) -> float:
        """Tables 3/4 metric: preprocessing time over one kernel time."""
        kernel = self.spmm_aspt_rr_s if op == "spmm" else self.sddmm_aspt_rr_s
        return self.preprocess_s / kernel if kernel > 0 else float("inf")

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialisation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MatrixRecord":
        """Inverse of :meth:`as_dict`."""
        return cls(**d)


def save_records(records: list[MatrixRecord], path) -> None:
    """Write records as a JSON array (atomically via a temp file)."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump([r.as_dict() for r in records], fh, indent=1)
    os.replace(tmp, path)


def load_records(path) -> list[MatrixRecord]:
    """Read records written by :func:`save_records`."""
    with open(path, encoding="utf-8") as fh:
        return [MatrixRecord.from_dict(d) for d in json.load(fh)]
