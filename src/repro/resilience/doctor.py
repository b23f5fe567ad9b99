"""Health checks behind the ``repro doctor`` CLI command.

``repro doctor`` inspects the two pieces of durable state a sweep leaves
behind — the on-disk plan cache and the checkpoint journal — and reports
what it finds: live entry counts, quarantined (``*.corrupt``) files, and
how far an interrupted sweep got.  It changes nothing: the plan store
quarantines only entries whose content fails validation, and the next
``put`` of such a key replaces the entry and drops its quarantine file
(see :class:`repro.planstore.disk.DiskPlanStore`).

The plan store is imported lazily: :mod:`repro.planstore.disk` itself
uses this package's fault-injection and retry helpers, and importing it
at module scope would require :mod:`repro.resilience` to be fully
initialised first.
"""

from __future__ import annotations

from pathlib import Path

from repro.resilience.checkpoint import journal_status

__all__ = [
    "store_health",
    "serve_health",
    "format_doctor_report",
    "doctor_report",
]


def store_health(cache_dir) -> dict:
    """Inspect a plan-cache directory without modifying it.

    Returns
    -------
    dict
        ``exists`` (directory present), ``path``, ``entries`` (live
        entry count) and ``quarantined`` — a list of ``(name, bytes)``
        pairs for each ``*.corrupt`` file awaiting inspection or a rebuild.
    """
    root = Path(cache_dir)
    if not root.is_dir():
        return {"exists": False, "path": str(root), "entries": 0, "quarantined": []}
    from repro.planstore.disk import DiskPlanStore

    store = DiskPlanStore(root)
    quarantined = []
    for path in store.quarantined():
        try:
            size = path.stat().st_size
        except OSError:
            size = -1
        quarantined.append((path.name, size))
    return {
        "exists": True,
        "path": str(root),
        "entries": len(store),
        "quarantined": quarantined,
    }


def serve_health(address: str) -> dict:
    """Probe a running ``repro serve`` instance's health endpoint.

    ``address`` is a ``host:port`` pair or a UNIX socket path (the same
    forms ``repro serve`` listens on).  Returns the server's health
    document plus ``reachable`` and ``client_version``, this client's
    protocol version (a server whose ``version`` differs would misread
    this client's frames); an unreachable server yields
    ``{"reachable": False, "error": ...}`` instead of raising, so the
    doctor report always renders.
    """
    from repro.errors import ReproError, ReproIOError
    from repro.serve.client import ServeClient, parse_address
    from repro.serve.protocol import PROTOCOL_VERSION

    try:
        with ServeClient(parse_address(address), timeout=5.0) as client:
            health = client.health()
    except (ReproError, ReproIOError, OSError) as exc:
        return {"reachable": False, "address": address, "error": str(exc)}
    health["reachable"] = True
    health["address"] = address
    health["client_version"] = PROTOCOL_VERSION
    return health


def _incompatible(health: dict) -> bool:
    return health.get("version") != health.get("client_version")


def _serve_lines(health: dict) -> list:
    addr = health.get("address", "?")
    if not health.get("reachable"):
        return [f"serve {addr}: UNREACHABLE ({health.get('error', 'unknown error')})"]
    pool = health.get("pool", {})
    admission = health.get("admission", {})
    breaker = health.get("breaker", {})
    version = health.get("version", "?")
    if _incompatible(health):
        state = (
            f"INCOMPATIBLE (server protocol v{version}, "
            f"client v{health.get('client_version')})"
        )
    else:
        state = "ready" if health.get("ready") else (
            "draining" if health.get("draining") else "not ready"
        )
        state += f" (protocol v{version})"
    lines = [
        f"serve {addr}: {state}",
        f"  pool: {pool.get('entries', 0)}/{pool.get('capacity', '?')} warm "
        f"sessions, {pool.get('pinned', 0)} pinned",
        f"  admission: {admission.get('in_flight', 0)}/"
        f"{admission.get('max_inflight', '?')} in flight",
    ]
    tenants = admission.get("tenants", {})
    if tenants:
        balances = ", ".join(f"{t}={v}" for t, v in sorted(tenants.items()))
        lines.append(f"  quota tokens: {balances}")
    breaker_line = f"  compile breaker: {breaker.get('state', '?')}"
    if breaker.get("state") == "open":
        breaker_line += (
            f" (open {breaker.get('open_for_s', '?')}s of "
            f"{breaker.get('reset_s', '?')}s)"
        )
    elif breaker.get("consecutive_failures"):
        breaker_line += f" ({breaker['consecutive_failures']} consecutive failures)"
    lines.append(breaker_line)
    return lines


def _journal_lines(status: dict, path: str) -> list:
    if not status.get("exists"):
        return [f"journal {path}: not found"]
    if not status.get("valid"):
        return [f"journal {path}: INVALID ({status.get('error', 'unknown error')})"]
    total = status.get("total")
    done = len(status.get("completed", []))
    lines = [f"journal {path}: {done}/{total} matrices completed"]
    in_flight = status.get("in_flight", [])
    if in_flight:
        lines.append(
            f"  in flight at last write (will be recomputed on --resume): "
            f"{', '.join(in_flight)}"
        )
    if status.get("complete"):
        lines.append("  sweep finished normally")
    elif status.get("interrupted"):
        lines.append("  sweep was interrupted (Ctrl-C flushed the manifest)")
    else:
        lines.append("  sweep did not finish (crash or still running)")
    return lines


def format_doctor_report(
    *,
    store: dict | None = None,
    journal: dict | None = None,
    journal_path: str = "",
    serve: dict | None = None,
) -> str:
    """Render doctor findings as a human-readable multi-line report."""
    lines: list = []
    if store is not None:
        if not store["exists"]:
            lines.append(f"plan cache {store['path']}: not found")
        else:
            lines.append(
                f"plan cache {store['path']}: {store['entries']} entries, "
                f"{len(store['quarantined'])} quarantined"
            )
            for name, size in store["quarantined"]:
                size_part = f"{size} bytes" if size >= 0 else "size unknown"
                lines.append(f"  quarantined: {name} ({size_part})")
    if journal is not None:
        lines.extend(_journal_lines(journal, journal_path))
    if serve is not None:
        lines.extend(_serve_lines(serve))
    if not lines:
        lines.append(
            "nothing to check (pass --plan-cache-dir, --checkpoint and/or --serve)"
        )
    return "\n".join(lines)


def doctor_report(
    *,
    cache_dir=None,
    checkpoint=None,
    serve_address=None,
) -> tuple:
    """Run all requested checks; return ``(report_text, problems_found)``.

    ``problems_found`` is ``True`` when quarantined entries remain, the
    journal is invalid, or a probed server is unreachable, not ready or
    speaks another protocol version — the CLI maps it to a non-zero exit
    so scripts can gate on doctor health.
    """
    store = store_health(cache_dir) if cache_dir is not None else None
    journal = journal_status(checkpoint) if checkpoint is not None else None
    serve = serve_health(serve_address) if serve_address is not None else None
    problems = False
    if store is not None and store["quarantined"]:
        problems = True
    if journal is not None and journal.get("exists") and not journal.get("valid"):
        problems = True
    if serve is not None and not (
        serve.get("reachable") and serve.get("ready") and not _incompatible(serve)
    ):
        problems = True
    text = format_doctor_report(
        store=store,
        journal=journal,
        journal_path=str(checkpoint) if checkpoint is not None else "",
        serve=serve,
    )
    return text, problems
