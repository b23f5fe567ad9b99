"""Configuration for the SpMM serving layer.

One frozen dataclass holds every tuning knob of the server — transport,
the session-pool bound, admission quotas and the compile circuit
breaker — so a config is printable, JSON-able and easy to pin in tests.
Validation happens at construction (:class:`repro.errors.ConfigError`),
never at request time.

See ``docs/SERVING.md`` for tuning guidance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, ValidationError
from repro.kernels.backends import DEFAULT_BACKEND, check_backend
from repro.util.validation import check_positive, finite_real

__all__ = ["ServeConfig", "positive_seconds"]


def positive_seconds(value) -> bool:
    """Whether ``value`` is a positive, finite number of seconds.

    The check behind every deadline (see
    :func:`~repro.util.validation.finite_real` for what it refuses).
    """
    return finite_real(value) and value > 0


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
    pool_sessions:
        Bound of the warm :class:`~repro.serve.SessionPool` (one session
        per matrix).
    workers:
        Threads executing plan builds and multiplies (the asyncio loop
        never runs kernels itself).
    max_inflight:
        Admission bound: requests admitted concurrently.  Everything past
        it is rejected with ``rejected_overload`` — explicit rejection
        instead of unbounded queueing.
    quota_rate, quota_burst:
        Per-tenant token-bucket refill rate (requests/second) and burst
        capacity, each a positive finite number; exhausted buckets reject
        with ``rejected_quota``.
    tenant_quotas:
        Per-tenant overrides, ``{tenant: (rate, burst)}``, each a pair of
        positive finite numbers.
    default_deadline_s:
        Deadline applied to requests that do not carry ``deadline_s``
        (``None`` = no implicit deadline).
    breaker_threshold, breaker_reset_s:
        Consecutive backend-compile failures that trip the circuit
        breaker, and the open interval (a finite number of seconds
        ``>= 0``) before a half-open retrial.
    backend, panel_height, chunk_k:
        Kernel-side knobs forwarded into the
        :class:`~repro.reorder.ReorderConfig` / sessions.
    plan_cache_dir:
        Optional persistent plan-store directory shared across restarts.
    drain_timeout_s:
        Bound on the graceful drain (SIGTERM / ``drain`` op), a finite
        number of seconds ``>= 0``: in-flight requests get this long to
        finish before the server closes anyway.

    The uploaded-matrix registry and the protocol line length have fixed
    bounds, :data:`repro.serve.server.MAX_MATRICES` and
    :data:`repro.serve.server.MAX_LINE_BYTES`.
    """

    host: str = "127.0.0.1"
    port: int = 7077
    unix_path: str | None = None
    pool_sessions: int = 8
    workers: int = 2
    max_inflight: int = 16
    quota_rate: float = 100.0
    quota_burst: float = 50.0
    default_deadline_s: float | None = None
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    backend: str = DEFAULT_BACKEND
    panel_height: int = 32
    chunk_k: int = 64
    plan_cache_dir: str | None = None
    drain_timeout_s: float = 30.0
    tenant_quotas: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("pool_sessions", "workers", "max_inflight",
                     "breaker_threshold", "chunk_k", "panel_height"):
            try:
                check_positive(name, getattr(self, name))
            except ValidationError as exc:
                raise ConfigError(str(exc)) from None
        for name in ("quota_rate", "quota_burst"):
            value = getattr(self, name)
            if not (finite_real(value) and value > 0):
                raise ConfigError(
                    f"{name} must be a positive finite number, got {value!r}"
                )
        for tenant, quota in self.tenant_quotas.items():
            if not (
                isinstance(quota, (tuple, list))
                and len(quota) == 2
                and all(finite_real(v) and v > 0 for v in quota)
            ):
                raise ConfigError(
                    f"tenant_quotas[{tenant!r}] must be a (rate, burst) pair of "
                    f"positive finite numbers, got {quota!r}"
                )
        if self.default_deadline_s is not None and not positive_seconds(
            self.default_deadline_s
        ):
            raise ConfigError(
                "default_deadline_s must be a positive finite number, got "
                f"{self.default_deadline_s}"
            )
        for name in ("breaker_reset_s", "drain_timeout_s"):
            value = getattr(self, name)
            if not (finite_real(value) and value >= 0):
                raise ConfigError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )
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
