"""Deterministic, seedable fault injection at named sites.

Production code calls :func:`fault_point` at the places where the real
world can hurt it — file reads, plan-store (de)serialisation, long
clustering loops, workspace leases.  When no injector is installed the
call is one module-global ``None`` check (measured well under the bench
gate's noise floor); when a :class:`FaultInjector` is active, each site
consults a deterministic per-site Bernoulli stream and raises the site's
characteristic exception at the configured rate.

Determinism contract: for a fixed ``(seed, rate)`` the decision for the
``n``-th arrival at a site depends only on ``(seed, site, n)`` — never on
wall clock, interleaving with other sites, or process state — so a chaos
run is exactly reproducible and bisectable.  The stream is derived from
BLAKE2b, not :mod:`random`, so it cannot perturb (or be perturbed by)
any library RNG.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter

from repro.errors import (
    BackendUnavailable,
    CorruptStoreError,
    ReproIOError,
    TimeoutExceeded,
)
from repro.observability.metrics import METRICS

__all__ = ["FAULT_SITES", "FaultInjector", "fault_point", "active_injector"]


def _io_fault() -> Exception:
    return ReproIOError("injected fault: transient IO read error")


def _corrupt_fault() -> Exception:
    return CorruptStoreError("injected fault: corrupt plan-store bytes")


def _write_fault() -> Exception:
    return ReproIOError("injected fault: plan-store write error")


def _minhash_timeout() -> Exception:
    return TimeoutExceeded(
        "injected fault: MinHash stage deadline", stage="minhash"
    )


def _cluster_timeout() -> Exception:
    return TimeoutExceeded(
        "injected fault: clustering stage deadline", stage="cluster"
    )


def _alloc_fault() -> Exception:
    return MemoryError("injected fault: scratch allocation failed")


def _backend_compile_fault() -> Exception:
    return BackendUnavailable("injected fault: backend kernel compile failure")


def _streaming_update_fault() -> Exception:
    return TimeoutExceeded(
        "injected fault: streaming update interrupted", stage="streaming.update"
    )


def _accept_fault() -> Exception:
    return ConnectionResetError("injected fault: connection reset before its first read")


#: Registered injection sites and the exception each one raises.  The
#: sites live at the real failure surfaces, and each raises what the real
#: failure there raises, so it takes the same handler: adding a site means
#: adding a ``fault_point(...)`` call in the production module it names.
FAULT_SITES: dict = {
    "io.read": _io_fault,
    "planstore.read": _corrupt_fault,
    "planstore.write": _write_fault,
    "clustering.minhash": _minhash_timeout,
    "clustering.cluster": _cluster_timeout,
    "workspace.take": _alloc_fault,
    "backend.compile": _backend_compile_fault,
    "streaming.update": _streaming_update_fault,
    "serve.accept": _accept_fault,
}

#: The active injector (``None`` = injection disabled, the production
#: default).  A single global keeps the disabled-path cost at one load
#: and one identity comparison.
_ACTIVE: "FaultInjector | None" = None
_ACTIVE_LOCK = threading.Lock()


class FaultInjector:
    """Deterministic Bernoulli fault source for the registered sites.

    Parameters
    ----------
    rate:
        Default injection probability per :func:`fault_point` arrival,
        in ``[0, 1]``.
    seed:
        Stream seed; fixed seed + fixed rate reproduce the exact same
        fault pattern.
    sites:
        Optional iterable restricting injection to a subset of
        :data:`FAULT_SITES` (others never fire).
    rates:
        Optional per-site rate overrides, ``{site: rate}``.
    max_faults:
        Optional global cap on the number of faults raised (useful for
        "exactly one fault" tests); ``None`` means unbounded.

    Use as a context manager to install/uninstall::

        with FaultInjector(rate=0.1, seed=42):
            run_experiment(...)

    The ``fired``/``checked`` counters record per-site activity for
    assertions and for the chaos report.
    """

    def __init__(
        self,
        rate: float = 0.1,
        seed: int = 0,
        *,
        sites=None,
        rates=None,
        max_faults: int | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        unknown = set(sites or ()) - set(FAULT_SITES)
        unknown |= set(rates or {}) - set(FAULT_SITES)
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {sorted(unknown)}; "
                f"registered: {sorted(FAULT_SITES)}"
            )
        self.rate = float(rate)
        self.seed = int(seed)
        self.sites = frozenset(sites) if sites is not None else None
        self.rates = dict(rates or {})
        self.max_faults = max_faults
        self.checked: Counter = Counter()
        self.fired: Counter = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def rate_for(self, site: str) -> float:
        """The effective injection rate at ``site``."""
        if self.sites is not None and site not in self.sites:
            return 0.0
        return float(self.rates.get(site, self.rate))

    def _uniform(self, site: str, n: int) -> float:
        """The ``n``-th deterministic uniform draw for ``site``."""
        digest = hashlib.blake2b(
            f"{self.seed}:{site}:{n}".encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") / 2.0**64

    def check(self, site: str) -> None:
        """Consume one draw at ``site``; raise its fault when it fires."""
        rate = self.rate_for(site)
        with self._lock:
            n = self.checked[site]
            self.checked[site] += 1
            total_fired = sum(self.fired.values())
            fire = (
                rate > 0.0
                and (self.max_faults is None or total_fired < self.max_faults)
                and self._uniform(site, n) < rate
            )
            if fire:
                self.fired[site] += 1
        if fire:
            METRICS.counter(
                "resilience.fault_fired", "injected faults that actually fired"
            ).inc()
            raise FAULT_SITES[site]()

    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Make this the process-wide active injector."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is not None and _ACTIVE is not self:
                raise RuntimeError("another FaultInjector is already active")
            _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Deactivate injection (idempotent)."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is self:
                _ACTIVE = None

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Per-site ``{site: (checked, fired)}`` counter snapshot."""
        with self._lock:
            return {
                site: (self.checked[site], self.fired[site])
                for site in sorted(set(self.checked) | set(self.fired))
            }


def active_injector() -> FaultInjector | None:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


def fault_point(site: str) -> None:
    """Declare a fault-injection site; raises when an injector fires.

    The disabled path (no active injector) is a single global check, so
    production code may call this on warm paths without measurable cost
    (asserted by the ``repro bench --gate`` suites).
    """
    injector = _ACTIVE
    if injector is None:
        return
    injector.check(site)
