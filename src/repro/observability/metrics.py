"""Process-global metrics registry: counters, gauges, histograms.

The paper's argument is a data-movement accounting story, so the repo's
moving parts (plan cache, workspace pool, resilience ladder, GPU cost
model, clustering) each grew ad-hoc counters.  This module replaces them
with one :class:`MetricsRegistry` of *named instruments* so a single
snapshot answers "what did this process do" — while per-object counters
(a pool's own hit count, one store's miss count) survive as *children*
that feed the global aggregate.

Design notes
------------
* Zero dependencies; plain ``threading.Lock`` per instrument.
* :class:`Counter` is monotonic — negative increments raise.  A counter
  created via :meth:`Counter.child` increments itself *and* its parent,
  which is how :class:`~repro.util.workspace.WorkspacePool` keeps its
  per-pool ``stats()`` while ``workspace.hit``/``workspace.miss`` roll up
  globally.
* :class:`Histogram` records count / sum / min / max plus bucketed counts
  against fixed upper bounds, so ``sum``/``count`` consistency is a
  testable invariant (see ``tests/property/test_trace_invariants.py``).
* ``METRICS`` is the process-global registry.  ``registry.counter(name)``
  is get-or-create: modules may declare the same instrument independently
  and receive the same object.

The catalogue of every instrument the library registers is
``docs/OBSERVABILITY.md`` §4.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
]

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Counter:
    """Monotonic counter; optionally a *child* that rolls up to a parent.

    >>> c = Counter("demo")
    >>> c.inc(); c.inc(2); c.value
    3
    >>> child = c.child()
    >>> child.inc(5)
    >>> (child.value, c.value)
    (5, 8)
    """

    __slots__ = ("name", "description", "_value", "_parent", "_lock")

    def __init__(self, name: str, description: str = "", *, parent: "Counter | None" = None) -> None:
        self.name = name
        self.description = description
        self._value = 0
        self._parent = parent
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative: counters are monotonic)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc({n}))")
        with self._lock:
            self._value += n
        if self._parent is not None:
            self._parent.inc(n)

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def child(self) -> "Counter":
        """A per-object counter whose increments also roll up to this one."""
        return Counter(self.name, self.description, parent=self)

    def reset(self) -> None:
        """Zero this counter only (children and parents are untouched)."""
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (e.g. bytes currently held).

    >>> g = Gauge("demo"); g.set(10); g.add(-3); g.value
    7
    """

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Shift the current value by ``delta`` (may be negative)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Reset to zero."""
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Count/sum/min/max plus bucketed counts against fixed bounds.

    Observations land in the first bucket whose upper bound is >= the
    value; values above every bound land in the overflow bucket (``inf``).
    ``sum(buckets.values()) == count`` always holds.

    >>> h = Histogram("demo", bounds=(1.0, 10.0))
    >>> h.observe(0.5); h.observe(5.0); h.observe(50.0)
    >>> snap = h.snapshot()
    >>> (snap["count"], snap["sum"])
    (3, 55.5)
    """

    __slots__ = ("name", "description", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, description: str = "", *, bounds: tuple = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.description = description
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        """Plain-dict view: count, sum, min, max and per-bucket counts."""
        with self._lock:
            buckets = {}
            for bound, n in zip(self.bounds, self._counts):
                buckets[str(bound)] = n
            buckets["inf"] = self._counts[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }

    def reset(self) -> None:
        """Drop every observation."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Instruments are keyed by name; re-requesting a name returns the same
    object, and requesting an existing name as a different instrument
    type raises ``TypeError``.  One process-global instance lives at
    :data:`METRICS`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"instrument {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get-or-create the :class:`Counter` called ``name``."""
        return self._get_or_create(name, Counter, lambda: Counter(name, description))

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get-or-create the :class:`Gauge` called ``name``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, description))

    def histogram(self, name: str, description: str = "", *, bounds: tuple = DEFAULT_BUCKETS) -> Histogram:
        """Get-or-create the :class:`Histogram` called ``name``."""
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, description, bounds=bounds)
        )

    def instruments(self) -> dict:
        """Name -> instrument mapping (a shallow copy)."""
        with self._lock:
            return dict(self._instruments)

    def snapshot(self) -> dict:
        """Name -> value mapping: ints for counters, floats for gauges, dicts for histograms."""
        out = {}
        for name, instrument in sorted(self.instruments().items()):
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value
        return out

    def reset(self) -> None:
        """Zero every registered instrument (registrations are kept).

        Per-object child counters are unaffected; only the global
        aggregates restart.  Intended for tests and between sweep runs.
        """
        for instrument in self.instruments().values():
            instrument.reset()


#: The process-global registry every repro subsystem reports into.
METRICS = MetricsRegistry()
