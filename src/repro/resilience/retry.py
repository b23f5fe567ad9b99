"""Bounded retry-with-backoff for transient filesystem errors.

Dataset reads and plan-store IO sit on network filesystems and shared
caches in the production-scale deployment; a single ``EIO`` or ``EAGAIN``
there must not abort a 1084-matrix sweep.  :func:`retry_io` retries the
operation a bounded number of times with exponentially growing, *fully
jittered* backoff, while *non-transient* errors — missing files,
permission problems, paths that are directories — fail immediately
(retrying cannot fix them and only adds latency).

Full jitter (sleep a uniform fraction of the exponential ceiling) is the
standard cure for retry synchronisation: when many workers hit the same
shared-cache hiccup simultaneously, unjittered exponential backoff has
them all retry at the same instants and collide again.  The jitter here
is **deterministic** — derived from BLAKE2b over ``(label, attempt,
sequence)`` exactly like the fault-injection streams, never from
:mod:`random` — so a chaos run's retry timing is still exactly
reproducible and the library RNGs are untouched.

The schedule is fixed: :data:`ATTEMPTS` tries of an ``OSError``, the
``i``-th failure sleeping a jittered fraction of ``BACKOFF_S * 2**i``.
The sleeper is injectable so chaos tests run at full speed; every real
delay is recorded on the ``retry.sleep_s`` histogram.
"""

from __future__ import annotations

import hashlib
import itertools
import time

from repro.observability.metrics import METRICS
from repro.util.log import get_logger

__all__ = ["retry_io", "NON_TRANSIENT_OS_ERRORS"]

_log = get_logger("resilience")

#: OS errors that retrying cannot fix: fail fast on these.
NON_TRANSIENT_OS_ERRORS: tuple = (
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
    PermissionError,
)

#: Tries per call, the first included.
ATTEMPTS = 3

#: Backoff ceiling after the first failure, doubled after each later one:
#: with :data:`ATTEMPTS` tries a call waits at most 60 ms in all.
BACKOFF_S = 0.02

#: Process-wide retry sequence number: makes successive retry *bursts*
#: of the same label draw different jitter, while a fixed call sequence
#: still reproduces exactly.
_SEQ = itertools.count()

# Sub-10ms buckets matter here: no backoff is longer than 40 ms.
_SLEEP_BUCKETS = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


def _jitter_fraction(label: str, attempt: int, seq: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for one backoff draw."""
    digest = hashlib.blake2b(
        f"{label}:{attempt}:{seq}".encode("utf-8", "replace"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


def retry_io(fn, *, label: str = "", sleep=time.sleep):
    """Call ``fn()``; retry a transient ``OSError`` up to :data:`ATTEMPTS`
    tries in all.

    Parameters
    ----------
    fn:
        Zero-argument callable performing the IO.
    label:
        Operation name for the retry log line (e.g. the path); also keys
        the deterministic jitter stream.
    sleep:
        Injectable sleeper (chaos tests pass a no-op).

    Members of :data:`NON_TRANSIENT_OS_ERRORS` are re-raised at once, as
    is any exception that is not an ``OSError``.  Try ``i`` (0-based)
    sleeps ``BACKOFF_S * 2**i * u`` after failing, for a deterministic
    ``u`` in ``[0, 1)`` (full jitter).

    Returns
    -------
    Whatever ``fn`` returns.  The last exception is re-raised when every
    attempt fails.
    """
    for attempt in range(ATTEMPTS):
        try:
            return fn()
        except NON_TRANSIENT_OS_ERRORS:
            raise
        except OSError as exc:
            if attempt == ATTEMPTS - 1:
                raise
            METRICS.counter(
                "resilience.retry", "transient-IO retry attempts"
            ).inc()
            delay = BACKOFF_S * (2.0**attempt) * _jitter_fraction(
                label, attempt, next(_SEQ)
            )
            _log.warning(
                "retrying %s after %s: %s (attempt %d/%d, backoff %.3fs)",
                label or "operation",
                type(exc).__name__,
                exc,
                attempt + 1,
                ATTEMPTS,
                delay,
            )
            METRICS.histogram(
                "retry.sleep_s",
                "seconds slept between IO retry attempts",
                bounds=_SLEEP_BUCKETS,
            ).observe(delay)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
