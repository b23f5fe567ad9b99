"""The two-tier plan store: in-process LRU over an optional disk tier.

``get`` checks memory first, then disk (promoting disk hits into memory);
``put`` writes through to both tiers.  All failure handling lives in the
tiers — from here up, a cache problem is always just a miss.

Typical use::

    store = PlanStore(cache_dir="~/.cache/repro-plans")
    plan = build_plan(matrix, config, cache=store)   # cold: builds + stores
    plan = build_plan(matrix, config, cache=store)   # warm: permute + tile only
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.planstore.decisions import PlanDecisions
from repro.planstore.disk import DiskPlanStore
from repro.planstore.fingerprint import plan_key
from repro.planstore.memory import LRUPlanCache
from repro.util.hashing import stable_digest

__all__ = ["PlanStore"]


class PlanStore:
    """Content-addressed cache for execution-plan decisions.

    Parameters
    ----------
    max_entries, max_bytes:
        Bounds of the in-memory LRU tier.
    cache_dir:
        Optional directory for the persistent tier; ``None`` keeps the
        store purely in-process.
    max_sessions:
        Bound of the pinned :meth:`session` cache (sessions hold scratch
        buffers sized to their matrix, so the cap is deliberately small).
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int = 64 * 1024 * 1024,
        cache_dir=None,
        max_sessions: int = 8,
    ) -> None:
        self.memory = LRUPlanCache(max_entries=max_entries, max_bytes=max_bytes)
        self.disk = DiskPlanStore(Path(cache_dir)) if cache_dir is not None else None
        self.max_sessions = max_sessions
        self._sessions: OrderedDict = OrderedDict()
        self._session_lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(self, key: str) -> PlanDecisions | None:
        """Two-tier lookup; disk hits are promoted into the memory tier."""
        decisions = self.memory.get(key)
        if decisions is not None:
            return decisions
        if self.disk is not None:
            decisions = self.disk.get(key)
            if decisions is not None:
                self.memory.put(key, decisions)
                return decisions
        return None

    def put(self, key: str, decisions: PlanDecisions) -> None:
        """Write-through insert into both tiers."""
        self.memory.put(key, decisions)
        if self.disk is not None:
            self.disk.put(key, decisions)

    # ------------------------------------------------------------------
    def session(self, csr, config=None, **session_kwargs):
        """A pinned :class:`~repro.kernels.KernelSession` for ``csr``.

        Builds the execution plan through this store (so repeated calls
        hit the decision cache) and memoises the resulting session: the
        serving path asks once per matrix and every later request reuses
        the already-pinned state and scratch.  The memo is
        LRU-bounded by ``max_sessions`` and keyed on the session keyword
        arguments too, so e.g. differing ``chunk_k`` values get distinct
        sessions.

        Unlike the *decision* cache (pattern-only by design — decisions
        never read values), the session memo key includes a digest of
        ``csr.values``: a session pins the values it multiplies with, so
        two same-pattern matrices with different values must get distinct
        sessions.  Keying on the pattern alone served stale results for
        exactly that case — e.g. a ``mode="set"`` streaming delta, which
        rewrites values without moving a single non-zero.
        """
        from repro.reorder import ReorderConfig, build_plan

        config = config if config is not None else ReorderConfig()
        memo_key = (
            self.key_for(csr, config),
            stable_digest(np.ascontiguousarray(csr.values, dtype="<f8").tobytes()),
            tuple(sorted(session_kwargs.items())),
        )
        with self._session_lock:
            cached = self._sessions.get(memo_key)
            if cached is not None:
                self._sessions.move_to_end(memo_key)
                return cached
        plan = build_plan(csr, config, cache=self)
        made = plan.session(**session_kwargs)
        with self._session_lock:
            cached = self._sessions.get(memo_key)
            if cached is not None:  # lost a build race: keep the first
                self._sessions.move_to_end(memo_key)
                return cached
            self._sessions[memo_key] = made
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
        return made

    def invalidate_sessions(self, csr=None, config=None) -> int:
        """Drop memoised sessions; returns how many were evicted.

        With ``csr`` (and optionally ``config``), evicts only the
        sessions pinned to that matrix's plan key — the streaming layer
        calls this after :func:`repro.streaming.apply_delta` so no caller
        can keep multiplying through the pre-delta session.  With no
        arguments, clears the whole memo.
        """
        from repro.reorder import ReorderConfig

        if csr is None:
            with self._session_lock:
                n = len(self._sessions)
                self._sessions.clear()
            return n
        key = self.key_for(csr, config if config is not None else ReorderConfig())
        with self._session_lock:
            doomed = [k for k in self._sessions if k[0] == key]
            for k in doomed:
                del self._sessions[k]
        return len(doomed)

    def key_for(self, csr, config) -> str:
        """The cache key ``build_plan`` uses for ``(csr, config)``."""
        return plan_key(csr, config)

    def stats(self) -> dict:
        """Counter snapshot of both tiers (disk omitted when absent)."""
        out = {"memory": self.memory.stats.as_dict()}
        if self.disk is not None:
            out["disk"] = self.disk.stats.as_dict()
        return out
