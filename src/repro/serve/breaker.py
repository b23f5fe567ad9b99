"""The compile circuit breaker of ``repro serve``.

The :class:`CircuitBreaker` guards the ``cc`` backend's C build: after
``threshold`` consecutive compile failures (including the injected
``backend.compile`` chaos fault) the breaker *opens* and sessions are
built directly on the numpy reference backend — no doomed compile
attempt on the request path — until ``reset_s`` elapses and a half-open
trial probes whether compilation recovered.

It takes an injectable clock and is deterministic given its inputs; it
never influences numeric results, only which (bitwise-verified) backend
serves a request.
"""

from __future__ import annotations

import threading
import time

from repro.observability.metrics import METRICS

__all__ = ["CircuitBreaker"]


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
