"""Kernel backends: the numpy reference and the compiled ``cc`` SpMM.

``cc`` (the default, :data:`DEFAULT_BACKEND`)
    The CSR SpMM loop in C, built once by the system compiler (``$CC``,
    default ``cc``) into an on-disk cache and loaded with :mod:`ctypes`
    (:mod:`repro.kernels.backends.cc_backend`).  It sums in
    ``np.add.reduceat``'s order, so it is **bitwise identical** to
    :func:`repro.kernels.spmm`.  Unavailable without a compiler.
``numpy``
    The uncompiled reference: :meth:`repro.kernels.state.CsrState.multiply`
    and the one-shot kernels.  Always available, it compiles nothing, and
    every degradation lands here.

Selection is by name — ``ReorderConfig.backend``, ``ServeConfig.backend``,
``repro run/serve/bench --backend``, ``KernelSession(backend=...)``,
``spmm(backend=...)`` — and always goes through :func:`load_backend`, the
one place backend work happens.  It checks that a compiler is found,
fetches the compiled SpMM from a process-wide cache (building it on the
first miss, under the ``backend.compile`` span and fault site) and, when
either step fails, degrades to ``numpy`` through :func:`degrade`: one
``kernels.backend_fallback`` count, one
:class:`~repro.errors.DegradedExecution` warning and one ``backend:<name>->numpy:
...`` provenance entry.  An unknown name is a
:class:`~repro.errors.ConfigError`.  See ``docs/BACKENDS.md`` for the full
contract.

The compiled SpMM is called ``fn(state, X, out, ws)``: it *fully
overwrites* ``out`` with ``state.csr @ X`` (zeroing empty rows, and
writing row ``r`` to ``out[state.row_order[r]]`` when the state has a
row order); ``state`` is a :class:`repro.kernels.state.CsrState` and
``ws`` a workspace (a leased :class:`~repro.util.workspace.Workspace` or
a :class:`~repro.util.workspace.DirectWorkspace`), so pooled and direct
calls stay bitwise identical.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, NamedTuple

from repro.errors import BackendUnavailable, ConfigError, DegradedExecution
from repro.kernels.backends import cc_backend
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.resilience.faults import fault_point
from repro.util.log import get_logger

__all__ = [
    "DEFAULT_BACKEND",
    "BACKENDS",
    "LoadedBackend",
    "check_backend",
    "load_backend",
    "degrade",
]

_log = get_logger("kernels.backends")

# Canonical declarations of the backend instruments, so the catalogue is
# complete even before any backend compiles or degrades.
_COMPILES = METRICS.counter(
    "kernels.backend_compile", "compiled-kernel artifacts built (cache misses)"
)
_FALLBACKS = METRICS.counter(
    "kernels.backend_fallback", "backend requests degraded to the numpy reference"
)

#: The backend configs, the CLI and sessions use unless told otherwise:
#: bit-equal to the numpy reference, and degrading to it where no C
#: compiler is found.
DEFAULT_BACKEND = "cc"

#: Every backend name, the degradation target first.
BACKENDS = ("numpy", "cc")

#: The compiled SpMM once loaded in this process.  Loading is
#: idempotent, so a racing double load is tolerated and the first wins.
_LOADED: dict[str, Callable] = {}
_LOADED_LOCK = threading.Lock()


class LoadedBackend(NamedTuple):
    """What :func:`load_backend` resolved a backend name to."""

    #: The backend that runs: the requested one, or ``"numpy"`` after a
    #: degradation.
    backend: str
    #: The compiled SpMM; ``None`` runs the numpy reference.
    spmm: Callable | None = None
    #: ``()``, or the one ``backend:<name>->numpy: <reason>`` entry of a
    #: degradation.
    provenance: tuple = ()


def check_backend(name: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``name`` is a backend.

    A name check only, never an availability probe: a typo fails loudly,
    a missing compiler degrades later, in :func:`load_backend`.
    """
    if name not in BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; expected one of: {', '.join(BACKENDS)}"
        )


def load_backend(name: str) -> LoadedBackend:
    """Resolve ``name`` to the SpMM that runs it, degrading to numpy.

    ``"numpy"`` compiles nothing.  ``"cc"`` needs a compiler on the path;
    a warm in-process load is a dict lookup that never reaches the
    ``backend.compile`` fault site, and a cold one builds (or reuses) the
    library on disk and counts on ``kernels.backend_compile``.  A missing
    compiler or a failed build (including the injected fault) degrades
    through :func:`degrade`, so this never raises over availability.
    """
    check_backend(name)
    if name == "numpy":
        return LoadedBackend("numpy")
    try:
        cc_backend.compiler()
    except BackendUnavailable as exc:
        return degrade(name, str(exc))
    with _LOADED_LOCK:
        fn = _LOADED.get(name)
    if fn is not None:
        return LoadedBackend(name, fn)
    try:
        with span("backend.compile", backend=name, kernel="spmm"):
            fault_point("backend.compile")
            fn = cc_backend.load_spmm()
    except BackendUnavailable as exc:
        return degrade(name, f"compile failed: {exc}")
    _COMPILES.inc()
    with _LOADED_LOCK:
        return LoadedBackend(name, _LOADED.setdefault(name, fn))


def degrade(name: str, reason: str) -> LoadedBackend:
    """Run a request for backend ``name`` on the numpy reference instead.

    Counts ``kernels.backend_fallback``, logs, warns with
    :class:`~repro.errors.DegradedExecution` and returns the numpy
    backend with the provenance entry ``backend:<name>->numpy: <reason>``.
    """
    _FALLBACKS.inc()
    _log.warning("kernel backend %s degraded to numpy: %s", name, reason)
    warnings.warn(
        f"kernel backend {name!r} degraded to the numpy reference "
        f"({reason}); results unchanged",
        DegradedExecution,
        stacklevel=3,
    )
    return LoadedBackend("numpy", None, (f"backend:{name}->numpy: {reason}",))
