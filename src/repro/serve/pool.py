"""Bounded LRU pool of warm :class:`~repro.kernels.KernelSession`, one per matrix.

The serving economics of the paper live here: a plan build costs orders
of magnitude more than a multiply, so the server keeps sessions (pinned
plan + scratch) warm across requests, keyed by the matrix's content
fingerprint.  Only plans that settled at the ``full`` ladder rung are
kept: a degraded plan (its build ran out of budget) serves the batch
that built it and is dropped, as the plan store never caches one either.

Robustness properties:

* **bounded** — at most ``capacity`` sessions; inserting past the bound
  evicts least-recently-used entries;
* **in-flight pinning** — an entry serving a request carries a non-zero
  refcount and is never evicted, however stale; the pool may
  transiently exceed its bound rather than yank a session mid-multiply;
* **instrumented** — ``serve.pool_hit`` / ``serve.pool_miss`` /
  ``serve.pool_evict`` counters plus ``serve.pool_size`` /
  ``serve.pool_pinned`` gauges feed the health endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.observability.metrics import METRICS

__all__ = ["PooledSession", "SessionPool"]


class PooledSession:
    """One warm pool entry: a session plus its serving metadata."""

    __slots__ = ("key", "session", "provenance", "backend", "refs")

    def __init__(self, key, session, *, provenance, backend):
        self.key = key
        self.session = session
        self.provenance = tuple(provenance)
        self.backend = backend
        self.refs = 0  # guarded by the pool's lock

    @property
    def rung(self) -> str:
        """The ladder rung the plan settled at (its last provenance entry)."""
        return self.provenance[-1].split(":", 1)[0] if self.provenance else "full"

    @property
    def degraded(self) -> bool:
        """Whether the plan settled below the ``full`` rung."""
        return self.rung != "full"


class SessionPool:
    """LRU session cache with in-flight pinning (see module docstring).

    The pool is written to from executor threads and read by the event
    loop's health endpoint; one lock guards the table, held only for
    dict operations, never across a multiply.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = METRICS.counter(
            "serve.pool_hit", "warm-session pool hits"
        )
        self._misses = METRICS.counter(
            "serve.pool_miss", "warm-session pool misses"
        )
        self._evicts = METRICS.counter(
            "serve.pool_evict", "warm sessions evicted (LRU, unpinned only)"
        )
        self._size = METRICS.gauge("serve.pool_size", "warm sessions resident")
        self._pinned = METRICS.gauge(
            "serve.pool_pinned", "warm sessions currently serving requests"
        )

    # ------------------------------------------------------------------
    def pin(self, key: str) -> PooledSession | None:
        """Look up and pin a warm entry (``None`` on miss).

        A pinned entry cannot be evicted until :meth:`unpin` releases it;
        callers pair the two in try/finally around the multiply.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            entry.refs += 1
        self._hits.inc()
        self._pinned.add(1)
        return entry

    def unpin(self, entry: PooledSession) -> None:
        """Release one pin taken by :meth:`pin` or :meth:`put`."""
        with self._lock:
            if entry.refs < 1:
                raise AssertionError(f"unpin without pin on {entry.key!r}")
            entry.refs -= 1
        self._pinned.add(-1)

    def put(self, key: str, session, *, provenance, backend) -> PooledSession:
        """Insert a freshly built session, returned already pinned.

        When two builders race on the same key the first insert wins and
        the loser's session is discarded (the returned entry is always
        the resident one).  A degraded session is returned pinned but
        never inserted.  Inserting past the bound evicts LRU entries with
        zero refs; pinned entries survive, so the pool can transiently
        overflow under pressure rather than break an in-flight multiply.
        """
        entry = PooledSession(key, session, provenance=provenance, backend=backend)
        evicted = []
        with self._lock:
            resident = self._entries.get(key)
            if resident is not None:
                self._entries.move_to_end(key)
                entry = resident
            entry.refs += 1
            if resident is None and not entry.degraded:
                self._entries[key] = entry
                # LRU scan from the cold end; skip pinned entries.
                while len(self._entries) > self.capacity:
                    victim_key = next(
                        (k for k, e in self._entries.items() if e.refs == 0),
                        None,
                    )
                    if victim_key is None:
                        break  # everything pinned: transient overflow
                    evicted.append(self._entries.pop(victim_key))
        for victim in evicted:
            self._evict(victim)
        self._pinned.add(1)
        self._size.set(len(self))
        return entry

    def _evict(self, victim: PooledSession) -> None:
        """Drop one evicted session's scratch (already out of the table)."""
        self._evicts.inc()
        victim.session.close()

    def invalidate(self, key: str) -> bool:
        """Drop the warm entry for ``key``; whether there was one.

        The streaming path: a ``delta`` request replaces a registered
        matrix, so the session pinned to its old fingerprint must never
        serve another multiply.  The entry leaves the table immediately;
        an unpinned one is closed through the normal evict path, an
        in-flight one finishes its current multiply on the detached
        object and is garbage-collected on unpin.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is None:
            return False
        if entry.refs == 0:
            self._evict(entry)
        METRICS.counter(
            "serve.pool_invalidate",
            "warm sessions invalidated by streaming deltas",
        ).inc()
        self._size.set(len(self))
        return True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def occupancy(self) -> dict:
        """Health-endpoint snapshot: bound, entries, pins and resident keys."""
        with self._lock:
            keys = [
                {"key": k, "refs": e.refs, "backend": e.backend}
                for k, e in self._entries.items()
            ]
        return {
            "capacity": self.capacity,
            "entries": len(keys),
            "pinned": sum(1 for k in keys if k["refs"]),
            "keys": keys,
        }

    def clear(self) -> None:
        """Evict every unpinned entry (tests and drain shutdown)."""
        with self._lock:
            evicted = [
                self._entries.pop(k)
                for k in [k for k, e in self._entries.items() if e.refs == 0]
            ]
        for victim in evicted:
            self._evict(victim)
        self._size.set(len(self))
