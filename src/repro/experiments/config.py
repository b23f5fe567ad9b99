"""Experiment configuration, including the corpus/device co-scaling rule.

The paper's matrices satisfy >= 10K rows/columns and >= 100K non-zeros;
at K = 512 the dense operand is >= 20 MB — far larger than the P100's 4 MB
L2 — and kernel times are hundreds of microseconds to milliseconds, so
launch overheads are negligible.  The synthetic corpus shrinks matrix
dimensions for pure-Python tractability; to stay in the same *regime* the
device model must shrink with it, preserving the two ratios that govern
the results:

* ``dense-operand size / L2 capacity``  (whether reuse must be engineered),
* ``kernel time / launch overhead``     (whether fixed costs matter).

:func:`scale_model` divides ``l2_bytes`` and ``launch_overhead_s`` by the
corpus scale factor; everything else (bandwidth, efficiencies, thresholds)
is scale-free.  ``panel_height`` similarly shrinks so a panel covers the
same *fraction* of the matrix as a GPU-sized panel covers a paper-sized
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.gpu.costmodel import CostModelConfig
from repro.gpu.device import P100, DeviceSpec
from repro.reorder.pipeline import ReorderConfig
from repro.resilience.policy import ResiliencePolicy

__all__ = ["ExperimentConfig", "scale_model", "SCALE_FACTORS", "PANEL_HEIGHTS"]

#: Linear shrink factor of each corpus scale relative to paper-sized
#: matrices (rows ~2K at "small" vs ~12K+ in the paper).
SCALE_FACTORS: dict[str, float] = {
    "tiny": 24.0,
    "small": 6.0,
    "medium": 3.0,
    "paper": 1.0,
}

#: ASpT row-panel height per corpus scale (a GPU-scale panel of 64-128
#: rows on a 10K+-row matrix corresponds to a proportionally smaller panel
#: on a shrunken one).
PANEL_HEIGHTS: dict[str, int] = {
    "tiny": 8,
    "small": 16,
    "medium": 32,
    "paper": 64,
}


def scale_model(
    device: DeviceSpec, cost: CostModelConfig, factor: float
) -> tuple[DeviceSpec, CostModelConfig]:
    """Shrink the size-dependent model parameters by ``factor``.

    See the module docstring for the rationale.  ``factor = 1`` returns
    the inputs unchanged.
    """
    if factor <= 0:
        raise ConfigError(f"scale factor must be > 0, got {factor}")
    if factor == 1.0:  # reprolint: disable=RD201 -- sentinel check for the exact default, not an arithmetic comparison
        return device, cost
    scaled_device = device.with_overrides(
        l2_bytes=max(4096, int(device.l2_bytes / factor))
    )
    # Panel count shrinks only linearly while traffic shrinks with rows *
    # K-independent density, so per-panel fixed costs must shrink with the
    # same factor to keep overhead/traffic ratios in the paper regime.
    scaled_cost = cost.with_overrides(
        launch_overhead_s=cost.launch_overhead_s / factor,
        panel_overhead_cycles=cost.panel_overhead_cycles / factor,
    )
    return scaled_device, scaled_cost


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a corpus run needs.

    Attributes
    ----------
    ks:
        Dense-operand widths; the paper uses (512, 1024).
    scale:
        Corpus scale passed to :func:`repro.datasets.build_corpus`.
    repeats:
        Seeded replicas per corpus specification.
    seed:
        Master corpus seed.
    device:
        Modelled GPU.
    cost:
        Cost-model constants.
    reorder:
        Reordering pipeline parameters.  ``panel_height`` here is the
        GPU-scale panel height used for all tiling in the experiments.
    cache_mode:
        ``"approx"`` (default, corpus-scale) or ``"exact"``.
    verify:
        When true, functionally validate each plan against the dense
        oracle (slow; for small corpora and CI).
    plan_cache_dir:
        When set, reordering decisions are cached in a
        :class:`repro.planstore.PlanStore` rooted at this directory, so
        sweeps that revisit a (pattern, config) pair skip the
        MinHash/LSH/clustering stages entirely.
    resilience:
        Optional :class:`repro.resilience.ResiliencePolicy`.  When set,
        every plan build in the sweep runs under its stage deadline and
        degradation ladder; degraded builds are recorded per matrix in
        :attr:`repro.experiments.MatrixRecord.degradation`.
    """

    ks: tuple[int, ...] = (512, 1024)
    scale: str = "small"
    repeats: int = 2
    seed: int = 2020
    device: DeviceSpec = P100
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    reorder: ReorderConfig | None = None  #: None -> panel height from PANEL_HEIGHTS
    cache_mode: str = "approx"
    verify: bool = False
    plan_cache_dir: str | None = None  #: persistent plan-store directory (optional)
    resilience: ResiliencePolicy | None = None  #: deadline/ladder policy (optional)

    def __post_init__(self):
        if not self.ks:
            raise ConfigError("ks must not be empty")
        if any(k <= 0 for k in self.ks):
            raise ConfigError(f"all ks must be > 0, got {self.ks}")
        if self.cache_mode not in ("approx", "exact"):
            raise ConfigError(f"cache_mode must be 'approx' or 'exact', got {self.cache_mode!r}")
        if self.scale not in SCALE_FACTORS:
            raise ConfigError(
                f"unknown scale {self.scale!r}; expected one of {sorted(SCALE_FACTORS)}"
            )
        if self.reorder is None:
            object.__setattr__(
                self, "reorder", ReorderConfig(panel_height=PANEL_HEIGHTS[self.scale])
            )

    def effective_model(self) -> tuple[DeviceSpec, CostModelConfig]:
        """The (device, cost) pair shrunk by :func:`scale_model` for the
        corpus scale."""
        return scale_model(self.device, self.cost, SCALE_FACTORS[self.scale])
