"""Traffic -> time cost model (roofline with fixed overheads).

The modelled kernels are overwhelmingly memory-bound (arithmetic intensity
of SpMM is ~0.25 FLOP/byte at best), so estimated time is

``time = max(bytes / (BW * bw_eff), flops / (peak * flop_eff))
         + launches * launch_overhead + overhead_cycles / clock``

All calibration constants live in :class:`CostModelConfig` with their
rationale.  They were chosen once so that the ASpT-NR vs cuSPARSE gap on
the synthetic corpus lands near the published ~1.35x average, and then
frozen: every row-reordering result in the experiments is emergent from
traffic, not fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

__all__ = ["CostModelConfig", "KernelCost"]


@dataclass(frozen=True)
class CostModelConfig:
    """Calibration constants of the performance model.

    Attributes
    ----------
    warps_per_block:
        Rows (= warps) per thread block in the row-wise and ASpT-remainder
        kernels.  The ASpT paper groups several warps of consecutive rows
        per block; 4 is a typical occupancy-friendly choice.
    cusparse_rows_per_block:
        cuSPARSE's generic csrmm gains no intra-block column dedup from
        row adjacency, modelled as one row per block.
    cusparse_bw_eff / rowwise_bw_eff / aspt_bw_eff / bidmach_bw_eff:
        Fraction of peak DRAM bandwidth each kernel family achieves.
        cuSPARSE's generic kernel pays for format generality (0.66); the
        specialised row-wise kernel streams a bit better (0.70); the ASpT
        kernels are the most regular (0.72); BIDMach's SDDMM is reported
        well behind ASpT (0.35).
    l2_utilization:
        Fraction of L2 effectively available for caching dense-operand
        rows; the remainder is occupied by the sparse matrix's own streams
        and by unrelated concurrent thread blocks.
    cache_slack:
        Slack factor of the vectorised reuse-distance approximation
        (see :func:`repro.gpu.cache.approx_lru_hits`).  4x compensates the
        time-distance overestimate on kernel streams, which revisit hot
        rows many times between distinct-row excursions.
    launch_overhead_s:
        Fixed cost per kernel launch.
    panel_overhead_cycles:
        Per dense-tile panel: shared-memory preload + barrier cost.
    dense_nnz_overhead_cycles:
        Per dense-tile non-zero: the extra shared-memory indirection.
    flop_efficiency:
        Fraction of peak FLOP/s sustained by these irregular kernels.
    index_bytes / value_bytes:
        On-device storage of colidx (int32) and values (fp32).
    """

    warps_per_block: int = 4
    cusparse_rows_per_block: int = 1
    cusparse_bw_eff: float = 0.66
    rowwise_bw_eff: float = 0.70
    aspt_bw_eff: float = 0.72
    bidmach_bw_eff: float = 0.35
    l2_utilization: float = 0.5
    cache_slack: float = 4.0
    launch_overhead_s: float = 5e-6
    panel_overhead_cycles: float = 400.0
    dense_nnz_overhead_cycles: float = 0.5
    flop_efficiency: float = 0.5
    index_bytes: int = 4
    value_bytes: int = 4

    def __post_init__(self):
        if self.warps_per_block <= 0 or self.cusparse_rows_per_block <= 0:
            raise ConfigError("thread-block row counts must be > 0")
        for name in (
            "cusparse_bw_eff",
            "rowwise_bw_eff",
            "aspt_bw_eff",
            "bidmach_bw_eff",
            "l2_utilization",
            "flop_efficiency",
        ):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v}")
        if self.cache_slack <= 0:
            raise ConfigError("cache_slack must be > 0")
        for name in (
            "launch_overhead_s",
            "panel_overhead_cycles",
            "dense_nnz_overhead_cycles",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.index_bytes <= 0 or self.value_bytes <= 0:
            raise ConfigError("index_bytes and value_bytes must be > 0")

    def bw_eff(self, variant: str) -> float:
        """Bandwidth efficiency for a kernel variant."""
        try:
            return {
                "cusparse": self.cusparse_bw_eff,
                "rowwise": self.rowwise_bw_eff,
                "aspt": self.aspt_bw_eff,
                "bidmach": self.bidmach_bw_eff,
            }[variant]
        except KeyError:
            raise ConfigError(f"unknown kernel variant {variant!r}") from None

    def with_overrides(self, **kwargs) -> "CostModelConfig":
        """A copy with some constants replaced (ablation studies)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class KernelCost:
    """Estimated cost of one kernel invocation.

    Attributes
    ----------
    op:
        ``"spmm"`` or ``"sddmm"``.
    variant:
        Kernel family (``"cusparse"``, ``"rowwise"``, ``"aspt"``,
        ``"bidmach"``).
    k:
        Dense-operand column count.
    bytes_breakdown:
        DRAM bytes by component (``x_dense``, ``x_sparse``, ``y``, ``s``,
        ``out`` ...).
    flops:
        Useful floating-point operations.
    overhead_s:
        Fixed overheads (launches + tile bookkeeping) in seconds.
    time_s:
        Total estimated kernel time.
    x_hit_rate:
        Modelled L2 hit rate on dense-operand row accesses (diagnostics).
    """

    op: str
    variant: str
    k: int
    bytes_breakdown: dict = field(repr=False)
    flops: float
    overhead_s: float
    time_s: float
    x_hit_rate: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Total modelled DRAM traffic."""
        return float(sum(self.bytes_breakdown.values()))

    @property
    def gflops(self) -> float:
        """Modelled throughput in GFLOP/s (the paper's Fig. 10/11 metric)."""
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form for JSON serialisation."""
        return {
            "op": self.op,
            "variant": self.variant,
            "k": self.k,
            "bytes_breakdown": dict(self.bytes_breakdown),
            "total_bytes": self.total_bytes,
            "flops": self.flops,
            "overhead_s": self.overhead_s,
            "time_s": self.time_s,
            "gflops": self.gflops,
            "x_hit_rate": self.x_hit_rate,
        }
