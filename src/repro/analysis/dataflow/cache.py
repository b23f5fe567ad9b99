"""Content-addressed incremental cache for the lint session.

Each linted file is keyed by the BLAKE2b digest of its source (via
:func:`repro.util.hashing.stable_digest` — the same primitive the plan
store uses, so cache identity is hash-seed and platform independent).  A
file is *dirty* when its digest changed, it is new, or it (transitively)
imports a dirty module — the reverse-import closure is what makes the
inter-procedural rules sound under caching: if a callee's behaviour
changed, every caller that could observe it is re-analysed too.

Clean files contribute their cached findings verbatim and their cached
function summaries (see ``engine.serialize_module``) to the project, so
dirty-file analysis still sees the whole program without re-parsing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["CacheStats", "IncrementalCache", "compute_dirty", "CACHE_VERSION"]

CACHE_VERSION = 2

_CACHE_FILENAME = "reprolint-cache.json"


@dataclass
class CacheStats:
    """Counters describing one incremental session."""

    hits: int = 0  #: files served entirely from cache
    misses: int = 0  #: files (re-)analysed this session
    dirty: list = field(default_factory=list)  #: displays that were re-analysed

    def to_dict(self) -> dict:
        """JSON-serialisable counter snapshot."""
        return {"hits": self.hits, "misses": self.misses, "dirty": sorted(self.dirty)}

    def render(self) -> str:
        """One-line human summary for the CLI (printed to stderr)."""
        total = self.hits + self.misses
        return (
            f"incremental: {self.misses}/{total} file"
            f"{'s' if total != 1 else ''} re-analysed, {self.hits} cached"
        )


class IncrementalCache:
    """Load/store of the per-file entry map under a cache directory."""

    def __init__(self, cache_dir):
        self.path = Path(cache_dir) / _CACHE_FILENAME

    def load(self) -> dict:
        """The cached ``display -> entry`` map (empty on miss/corruption)."""
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            return {}  # stale format: fall back to a cold run
        files = raw.get("files", {})
        return files if isinstance(files, dict) else {}

    def save(self, files: dict) -> None:
        """Persist the entry map (creates the cache directory)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"version": CACHE_VERSION, "files": files}
        self.path.write_text(
            json.dumps(doc, indent=None, sort_keys=True), encoding="utf-8"
        )


def _imports_module(imported: str, module_name: str) -> bool:
    """Whether importing ``imported`` could observe ``module_name``."""
    return (
        imported == module_name
        or imported.startswith(module_name + ".")
        or module_name.startswith(imported + ".")
    )


def compute_dirty(discovered, cached_files) -> set:
    """Displays needing re-analysis: changed/new files + reverse importers.

    ``discovered`` is an iterable of ``(display, module_name, digest)``;
    ``cached_files`` is the loaded entry map (entries carry ``digest``
    and ``imports`` — the dotted names the module imports).
    """
    names = {display: module_name for display, module_name, _ in discovered}
    dirty = {
        display
        for display, _, digest in discovered
        if cached_files.get(display, {}).get("digest") != digest
    }
    changed = True
    while changed:
        changed = False
        dirty_names = {names[d] for d in dirty}
        for display, module_name, _ in discovered:
            if display in dirty:
                continue
            imports = cached_files.get(display, {}).get("imports", ())
            if any(
                _imports_module(imp, dn) for imp in imports for dn in dirty_names
            ):
                dirty.add(display)
                changed = True
    return dirty
