"""Admission control: a global in-flight bound + per-tenant token buckets.

The server never queues unboundedly.  A request is either *admitted* —
it holds one of ``max_inflight`` slots until its response is written —
or *rejected explicitly* with a status the client can act on:

* ``rejected_overload`` — every in-flight slot is taken.  Rejecting at
  the door keeps the executor queue short, so admitted requests see
  predictable latency.
* ``rejected_quota`` — the tenant's token bucket is empty.  Workload
  heterogeneity is the norm (Yang et al., PAPERS.md): one tenant
  hammering a huge matrix must not starve the others, so each tenant
  refills at ``quota_rate`` requests/second up to a ``quota_burst``
  ceiling.

Overload is checked before quota: an over-capacity server rejects
everyone equally without charging tenants tokens for work it cannot do.

The tenant table forgets a bucket once it has refilled to its burst: a
fresh bucket behaves the same, so forgetting changes no quota, and a
stream of one-off tenant names cannot grow the table (or the ``health``
report that lists it) without bound.

The clock is injectable (``clock=``) so quota behaviour is exactly
testable; no wall-clock read influences any numeric result.
"""

from __future__ import annotations

import threading
import time

from repro.observability.metrics import METRICS
from repro.serve.protocol import STATUS_REJECTED_OVERLOAD, STATUS_REJECTED_QUOTA

__all__ = ["TokenBucket", "AdmissionController"]

#: Table size at which a new tenant first triggers a sweep of the full
#: buckets; each sweep sets the next trigger to twice the buckets it
#: kept, so the sweeps cost amortised constant time per new tenant.
_SWEEP_AT_LEAST = 64


class TokenBucket:
    """The classic token bucket: refill at ``rate``/s, hold at most ``burst``.

    >>> clock = iter([0.0, 0.0, 0.0, 10.0]).__next__
    >>> bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
    >>> bucket.try_acquire(), bucket.try_acquire(), bucket.try_acquire()
    (True, True, False)
    >>> bucket.try_acquire()  # 10s later: refilled to the burst ceiling
    True
    """

    __slots__ = ("rate", "burst", "_tokens", "_last", "_clock", "_lock")

    def __init__(self, rate: float, burst: float, *, clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate/burst must be > 0, got {rate}/{burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    @property
    def tokens(self) -> float:
        """Current token balance (after a refill to now)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class AdmissionController:
    """The server's front door (see module docstring).

    ``admit`` returns ``None`` (admitted — the caller owns one in-flight
    slot and must :meth:`release` it) or a rejection status string.
    """

    def __init__(
        self,
        *,
        max_inflight: int,
        quota_rate: float,
        quota_burst: float,
        clock=time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.quota_rate = float(quota_rate)
        self.quota_burst = float(quota_burst)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._sweep_at = _SWEEP_AT_LEAST
        self._in_flight = 0
        self._lock = threading.Lock()
        self._admitted = METRICS.counter("serve.admitted", "requests admitted")
        self._rej_overload = METRICS.counter(
            "serve.rejected_overload", "requests rejected at the in-flight bound"
        )
        self._rej_quota = METRICS.counter(
            "serve.rejected_quota", "requests rejected by a tenant quota"
        )
        self._gauge = METRICS.gauge("serve.in_flight", "admitted requests in flight")

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            if len(self._buckets) >= self._sweep_at:
                self._forget_full_buckets()
            bucket = TokenBucket(
                self.quota_rate, self.quota_burst, clock=self._clock
            )
            self._buckets[tenant] = bucket
        return bucket

    def _forget_full_buckets(self) -> None:
        """Drop every bucket that has refilled to its burst (caller holds
        the lock)."""
        self._buckets = {
            name: bucket
            for name, bucket in self._buckets.items()
            if bucket.tokens < bucket.burst
        }
        self._sweep_at = max(_SWEEP_AT_LEAST, 2 * len(self._buckets))

    # ------------------------------------------------------------------
    def admit(self, tenant: str) -> str | None:
        """Try to admit one request for ``tenant``.

        Returns ``None`` on success (caller must :meth:`release`), or the
        rejection status.  Overload precedes quota, so tokens are only
        charged for work the server can actually take.
        """
        with self._lock:
            if self._in_flight >= self.max_inflight:
                self._rej_overload.inc()
                return STATUS_REJECTED_OVERLOAD
            bucket = self._bucket(tenant)
            if not bucket.try_acquire():
                self._rej_quota.inc()
                return STATUS_REJECTED_QUOTA
            self._in_flight += 1
        self._admitted.inc()
        self._gauge.add(1)
        return None

    def release(self) -> None:
        """Give back one in-flight slot taken by a successful :meth:`admit`."""
        with self._lock:
            if self._in_flight < 1:
                raise AssertionError("release() without a matching admit()")
            self._in_flight -= 1
        self._gauge.add(-1)

    @property
    def in_flight(self) -> int:
        """Admitted requests currently holding a slot."""
        with self._lock:
            return self._in_flight

    def snapshot(self) -> dict:
        """Health-endpoint view: slots plus the token balances of the
        tenants in the table (a forgotten tenant's bucket was full)."""
        with self._lock:
            tenants = {
                name: round(bucket.tokens, 3)
                for name, bucket in sorted(self._buckets.items())
            }
            return {
                "in_flight": self._in_flight,
                "max_inflight": self.max_inflight,
                "tenants": tenants,
            }
