"""Load shedding onto the degradation ladder, plus the compile breaker.

Under pressure the server has exactly one good option the library
already implements: build *cheaper plans*.  The
:class:`LoadShedController` maps two pressure signals — in-flight depth
and a sliding-window p95 latency — onto the 4-rung degradation ladder
(``full -> round1-only -> identity -> untiled-csr``,
:data:`repro.resilience.policy.LADDER_RUNGS`).  A shed request is served
a degraded-but-provenance-tagged plan instead of timing out; the
response says which rung it got.

The :class:`CircuitBreaker` guards the ``cc`` backend's C build: after
``threshold`` consecutive compile failures (including the injected
``backend.compile`` chaos fault) the breaker *opens* and sessions are
built directly on the numpy reference backend — no doomed compile
attempt on the request path — until ``reset_s`` elapses and a half-open
trial probes whether compilation recovered.

Both classes take injectable clocks and are deterministic given their
inputs; neither influences numeric results, only which (bitwise-verified)
plan variant serves a request.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.observability.metrics import METRICS
from repro.resilience.policy import LADDER_RUNGS

__all__ = ["LoadShedController", "CircuitBreaker"]


class LoadShedController:
    """Map (in-flight depth, p95 latency) onto a ladder rung index.

    Parameters
    ----------
    depths:
        Ascending in-flight thresholds; depth >= ``depths[i]`` selects
        rung ``i + 1``.  At most 3 entries (the ladder has 4 rungs).
    slo_p95_s:
        Optional latency SLO; while the window p95 exceeds it, one extra
        rung is shed (on top of the depth rung).
    window:
        Number of recent request latencies the p95 estimate sees.
    """

    def __init__(self, depths=(6, 10, 14), *, slo_p95_s=None, window: int = 64) -> None:
        depths = tuple(int(d) for d in depths)
        if list(depths) != sorted(depths) or any(d < 1 for d in depths):
            raise ValueError(f"depths must be ascending and positive, got {depths}")
        if len(depths) >= len(LADDER_RUNGS):
            raise ValueError(
                f"at most {len(LADDER_RUNGS) - 1} depth thresholds, got {len(depths)}"
            )
        self.depths = depths
        self.slo_p95_s = slo_p95_s
        self._latencies: deque = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._shed = METRICS.counter(
            "serve.shed_degraded", "requests served below the full ladder rung"
        )
        self._rung_gauge = METRICS.gauge(
            "serve.rung", "ladder rung the last admitted request was planned at"
        )

    def observe(self, latency_s: float) -> None:
        """Record one completed request's latency."""
        with self._lock:
            self._latencies.append(float(latency_s))

    def p95(self) -> float | None:
        """Window p95 latency (``None`` until anything completed)."""
        with self._lock:
            if not self._latencies:
                return None
            ordered = sorted(self._latencies)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    def rung_for(self, depth: int) -> int:
        """The ladder rung index to plan at for the given in-flight depth."""
        rung = 0
        for threshold in self.depths:
            if depth >= threshold:
                rung += 1
        if self.slo_p95_s is not None:
            p95 = self.p95()
            if p95 is not None and p95 > self.slo_p95_s:
                rung += 1
        rung = min(rung, len(LADDER_RUNGS) - 1)
        self._rung_gauge.set(rung)
        if rung > 0:
            self._shed.inc()
        return rung


class CircuitBreaker:
    """Closed / open / half-open breaker around backend compilation.

    * **closed** — compiles are attempted; ``threshold`` *consecutive*
      failures trip the breaker.
    * **open** — compiles are skipped (sessions build on numpy) until
      ``reset_s`` elapses.
    * **half-open** — one trial compile is allowed; success closes the
      breaker, failure re-opens it for another ``reset_s``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self, *, threshold: int = 3, reset_s: float = 30.0, clock=time.monotonic
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_s < 0:
            raise ValueError(f"reset_s must be >= 0, got {reset_s}")
        self.threshold = int(threshold)
        self.reset_s = float(reset_s)
        self._clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._trial_in_flight = False
        self._lock = threading.Lock()
        self._trips = METRICS.counter(
            "serve.breaker_trip", "compile circuit-breaker open transitions"
        )
        self._short_circuits = METRICS.counter(
            "serve.breaker_short_circuit",
            "sessions built on numpy because the compile breaker was open",
        )

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a backend compile may be attempted right now.

        In the open state this counts a short-circuit; in half-open it
        admits exactly one concurrent trial.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.reset_s:
                    self._state = self.HALF_OPEN
                    self._trial_in_flight = False
                else:
                    self._short_circuits.inc()
                    return False
            # half-open: one trial at a time.
            if self._trial_in_flight:
                self._short_circuits.inc()
                return False
            self._trial_in_flight = True
            return True

    def record_success(self) -> None:
        """A compile succeeded: reset failures and close the breaker."""
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED
            self._trial_in_flight = False

    def record_failure(self) -> None:
        """A compile failed; trips the breaker at the threshold."""
        tripped = False
        with self._lock:
            self._failures += 1
            self._trial_in_flight = False
            if self._state == self.HALF_OPEN or self._failures >= self.threshold:
                if self._state != self.OPEN:
                    tripped = True
                self._state = self.OPEN
                self._opened_at = self._clock()
        if tripped:
            self._trips.inc()

    @property
    def state(self) -> str:
        """Current breaker state (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            return self._state

    def snapshot(self) -> dict:
        """Health-endpoint view of the breaker."""
        with self._lock:
            out = {"state": self._state, "consecutive_failures": self._failures}
            if self._state == self.OPEN:
                out["open_for_s"] = round(self._clock() - self._opened_at, 3)
                out["reset_s"] = self.reset_s
            return out
