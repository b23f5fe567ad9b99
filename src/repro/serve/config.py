"""Configuration for the SpMM serving layer.

One frozen dataclass holds every tuning knob of the server — transport,
session-pool bounds, admission quotas, load-shedding thresholds and the
compile circuit breaker — so a config is printable, JSON-able and easy to
pin in tests.  Validation happens at construction
(:class:`repro.errors.ConfigError`), never at request time.

See ``docs/SERVING.md`` for tuning guidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.kernels.backends import DEFAULT_BACKEND, check_backend

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of :class:`repro.serve.SpmmServer`.

    Attributes
    ----------
    host, port:
        TCP listen address.  ``port=0`` lets the OS pick (the bound port
        is exposed as :attr:`repro.serve.SpmmServer.port`).
    unix_path:
        When set, listen on a UNIX domain socket instead of TCP.
    pool_sessions, pool_shards:
        Bound and shard count of the warm :class:`~repro.serve.SessionPool`.
    max_matrices:
        Bound of the uploaded-matrix registry (LRU evicted).
    workers:
        Threads executing plan builds and multiplies (the asyncio loop
        never runs kernels itself).
    max_inflight:
        Admission bound: requests admitted concurrently.  Everything past
        it is rejected with ``rejected_overload`` — explicit rejection
        instead of unbounded queueing.
    quota_rate, quota_burst:
        Per-tenant token-bucket refill rate (requests/second) and burst
        capacity; exhausted buckets reject with ``rejected_quota``.
    default_deadline_s:
        Deadline applied to requests that do not carry ``deadline_s``
        (``None`` = no implicit deadline).
    shed_depths:
        In-flight depth thresholds mapping pressure onto the degradation
        ladder: depth >= ``shed_depths[i]`` serves plans from ladder rung
        ``i + 1`` (``full`` -> ``round1-only`` -> ``identity`` ->
        ``untiled-csr``).
    slo_p95_s:
        Optional p95 latency SLO; while the observed p95 exceeds it the
        shed controller degrades one extra rung.
    latency_window:
        Sliding-window size for the p95 estimate.
    breaker_threshold, breaker_reset_s:
        Consecutive backend-compile failures that trip the circuit
        breaker, and the open interval before a half-open retrial.
    backend, panel_height, chunk_k:
        Kernel-side knobs forwarded into the
        :class:`~repro.reorder.ReorderConfig` / sessions.
    plan_cache_dir:
        Optional persistent plan-store directory shared across restarts.
    drain_timeout_s:
        Bound on the graceful drain (SIGTERM / ``drain`` op): in-flight
        requests get this long to finish before the server closes anyway.
    max_line_bytes:
        Protocol line-length bound (guards the reader buffer).
    """

    host: str = "127.0.0.1"
    port: int = 7077
    unix_path: str | None = None
    pool_sessions: int = 8
    pool_shards: int = 4
    max_matrices: int = 64
    workers: int = 2
    max_inflight: int = 16
    quota_rate: float = 100.0
    quota_burst: float = 50.0
    default_deadline_s: float | None = None
    shed_depths: tuple = (6, 10, 14)
    slo_p95_s: float | None = None
    latency_window: int = 64
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    backend: str = DEFAULT_BACKEND
    panel_height: int = 32
    chunk_k: int = 64
    plan_cache_dir: str | None = None
    drain_timeout_s: float = 30.0
    max_line_bytes: int = 64 * 1024 * 1024
    #: Extra per-tenant quota overrides: ``{tenant: (rate, burst)}``.
    tenant_quotas: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("pool_sessions", "pool_shards", "max_matrices", "workers",
                     "max_inflight", "breaker_threshold", "latency_window",
                     "chunk_k", "panel_height", "max_line_bytes"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.quota_rate <= 0 or self.quota_burst <= 0:
            raise ConfigError(
                f"quota_rate/quota_burst must be > 0, got "
                f"{self.quota_rate}/{self.quota_burst}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        if self.slo_p95_s is not None and self.slo_p95_s <= 0:
            raise ConfigError(f"slo_p95_s must be > 0, got {self.slo_p95_s}")
        if list(self.shed_depths) != sorted(self.shed_depths) or any(
            d < 1 for d in self.shed_depths
        ):
            raise ConfigError(
                f"shed_depths must be ascending positive depths, got "
                f"{self.shed_depths}"
            )
        if len(self.shed_depths) > 3:
            raise ConfigError(
                "shed_depths maps onto the 4-rung ladder; at most 3 "
                f"thresholds make sense, got {len(self.shed_depths)}"
            )
        if self.breaker_reset_s < 0 or self.drain_timeout_s < 0:
            raise ConfigError("breaker_reset_s/drain_timeout_s must be >= 0")
        # Name check (availability degrades later, a typo should fail
        # loudly now) — same contract as ReorderConfig.
        check_backend(self.backend)

    def reorder_config(self):
        """The :class:`~repro.reorder.ReorderConfig` requests build with."""
        from repro.reorder import ReorderConfig

        return ReorderConfig(panel_height=self.panel_height, backend=self.backend)

    def address(self):
        """The listen address: a UNIX path string or a ``(host, port)`` pair."""
        if self.unix_path is not None:
            return self.unix_path
        return (self.host, self.port)
