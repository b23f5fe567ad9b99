"""On-disk tier of the plan store.

One ``<key>.plan.npz`` file per cache entry under a root directory.  The
design goals, in order:

1. **Never return a wrong plan.**  Entries carry a format version and a
   CRC-32 content checksum and are fully validated on read; anything
   unreadable, inconsistent or checksum-mismatched is a miss.
2. **Never crash the caller.**  I/O errors, truncated files, zip damage
   and permission problems degrade to a miss plus one warning; writes
   retry transient OS errors with bounded backoff before giving up.
3. **Survive concurrent writers.**  Writes go to a unique temporary file
   in the same directory and land via :func:`os.replace`, which is atomic
   on POSIX and Windows — two processes racing on one key both leave a
   complete, valid file (last writer wins; both wrote identical bytes
   anyway, since the key fixes the content).

Only an entry whose *content* fails validation (zip damage, a missing
or ill-shaped array, a version or checksum mismatch) is *quarantined*:
renamed to ``*.corrupt`` rather than deleted, so an operator can inspect
what happened (``repro doctor`` lists it).  A read that raises
``OSError`` is a miss that leaves the file where it is, since the file
may be intact and the next read may succeed.  Quarantine self-heals on
the write path: the miss rebuilds the plan, and the rebuild's ``put``
rewrites the entry and drops the stale quarantine file.

This module hosts the ``planstore.read`` / ``planstore.write`` fault
injection sites (:mod:`repro.resilience.faults`): injected corruption
exercises exactly the quarantine/self-heal path described above.
"""

from __future__ import annotations

import os
import uuid
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import CorruptStoreError
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.planstore.decisions import PlanDecisions
from repro.planstore.fingerprint import PLAN_FORMAT_VERSION
from repro.reorder.pipeline import PlanStats
from repro.resilience.faults import fault_point
from repro.resilience.retry import retry_io
from repro.util.log import get_logger

__all__ = ["DiskPlanStore"]

_log = get_logger("planstore")

#: Global count of entries moved aside as ``*.corrupt`` (all stores).
_QUARANTINES = METRICS.counter(
    "planstore.quarantine", "corrupt plan files moved aside"
)

#: Exceptions that mean "this entry's content is damaged", not "the
#: program is broken": zip-level damage, missing/ill-shaped arrays,
#: checksum or version mismatches.  None of them is an ``OSError``.
_CONTENT_FAILURES = (
    zipfile.BadZipFile,
    KeyError,
    ValueError,
    EOFError,
    zlib.error,
    CorruptStoreError,
)


def _entry_checksum(
    row_order: np.ndarray,
    remainder_order: np.ndarray,
    stats: np.ndarray,
    preprocess_total: float,
    provenance,
) -> int:
    """CRC-32 over the entry's semantic content (layout-independent)."""
    crc = zlib.crc32(np.ascontiguousarray(row_order, dtype=np.int64).tobytes())
    crc = zlib.crc32(
        np.ascontiguousarray(remainder_order, dtype=np.int64).tobytes(), crc
    )
    crc = zlib.crc32(np.ascontiguousarray(stats, dtype=np.float64).tobytes(), crc)
    crc = zlib.crc32(np.float64(preprocess_total).tobytes(), crc)
    for step in provenance:
        crc = zlib.crc32(str(step).encode("utf-8"), crc)
    return crc & 0xFFFFFFFF


class DiskPlanStore:
    """Directory-backed ``key -> PlanDecisions`` store (see module docs)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        from repro.planstore.memory import CacheStats

        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Filesystem path of ``key``'s entry."""
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"invalid cache key {key!r}")
        return self.root / f"{key}.plan.npz"

    # ------------------------------------------------------------------
    def get(self, key: str) -> PlanDecisions | None:
        """Load ``key`` from disk; any failure degrades to a miss.

        A read that raises ``OSError`` leaves the entry in place; one
        whose content fails validation quarantines it.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.miss.inc()
            return None
        try:
            with span("planstore.get", key=key):
                fault_point("planstore.read")
                decisions = self._read(path)
        except OSError as exc:
            _log.warning("plan cache %s: read failed (%s); a miss", path.name, exc)
        except _CONTENT_FAILURES as exc:
            _log.warning(
                "plan cache %s: unreadable (%s: %s); quarantining",
                path.name,
                type(exc).__name__,
                exc,
            )
            self._quarantine(path)
        else:
            self.stats.hit.inc()
            return decisions
        self.stats.miss.inc()
        return None

    def put(self, key: str, decisions: PlanDecisions) -> None:
        """Atomically persist ``key`` (write temp file, then rename).

        Transient OS errors are retried with bounded backoff; a write
        that still fails degrades to a warning (the store is a cache —
        correctness never depends on a put landing).  A successful put
        also drops any stale quarantine file for the key: the rebuild that
        follows a quarantine heals it.
        """
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            with span("planstore.put", key=key):
                retry_io(
                    lambda: self._write(tmp, path, decisions),
                    label=f"plan cache put {path.name}",
                )
            self.stats.put.inc()
        except OSError as exc:
            _log.warning("plan cache: could not write %s (%s)", path.name, exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        quarantined = path.with_name(path.name + ".corrupt")
        if quarantined.exists():
            try:
                os.unlink(quarantined)
                _log.info(
                    "plan cache %s: rebuilt; dropped stale quarantine", path.name
                )
            except OSError:  # leave it for `repro doctor` — entry is valid anyway
                pass

    @staticmethod
    def _write(tmp: Path, path: Path, decisions: PlanDecisions) -> None:
        fault_point("planstore.write")
        stats_block = decisions.stats.to_array()
        provenance = np.array(list(decisions.provenance), dtype=np.str_)
        checksum = _entry_checksum(
            decisions.row_order,
            decisions.remainder_order,
            stats_block,
            decisions.preprocess_total,
            decisions.provenance,
        )
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                format_version=np.int64(PLAN_FORMAT_VERSION),
                row_order=decisions.row_order,
                remainder_order=decisions.remainder_order,
                stats=stats_block,
                preprocess_total=np.float64(decisions.preprocess_total),
                provenance=provenance,
                checksum=np.int64(checksum),
            )
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: Path) -> PlanDecisions:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != PLAN_FORMAT_VERSION:
                raise CorruptStoreError(
                    f"format version {version} != {PLAN_FORMAT_VERSION}"
                )
            row_order = np.ascontiguousarray(data["row_order"], dtype=np.int64)
            remainder_order = np.ascontiguousarray(
                data["remainder_order"], dtype=np.int64
            )
            raw = data["stats"]
            preprocess_total = float(data["preprocess_total"])
            provenance = tuple(str(s) for s in data["provenance"].tolist())
            declared = int(data["checksum"]) & 0xFFFFFFFF
        actual = _entry_checksum(
            row_order,
            remainder_order,
            raw,
            preprocess_total,
            provenance,
        )
        if actual != declared:
            raise CorruptStoreError(
                f"checksum mismatch: stored {declared:#010x}, computed {actual:#010x}"
            )
        return PlanDecisions(
            row_order=row_order,
            remainder_order=remainder_order,
            stats=PlanStats.from_array(raw),
            preprocess_total=preprocess_total,
            provenance=provenance,
        )

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
            _QUARANTINES.inc()
        except OSError:  # already gone, or unwritable dir — miss either way
            pass

    # ------------------------------------------------------------------
    def quarantined(self) -> list:
        """Quarantined entry paths, sorted by name."""
        return sorted(self.root.glob("*.corrupt"))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.plan.npz"))
