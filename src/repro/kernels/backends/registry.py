"""Backend registry, resolution with graceful degradation, artifact cache.

The registry always contains every *known* backend — including ``cc``
on a machine without a C compiler — so configuration validation,
``repro backends`` listings and plan provenance can name them.
*Availability* is a separate, per-environment question:
:func:`resolve_backend` answers it at use time, degrading to the
``numpy`` reference (with a ``kernels.backend_fallback`` count, a
:class:`~repro.errors.DegradedExecution` warning and a provenance entry)
instead of failing — a compiler is never a hard dependency.

Compilation goes through :func:`compiled_artifact`, the single choke
point that adds what every backend's ``compile`` needs: the
process-global artifact cache keyed by ``(backend, spec fingerprint)``
(warm sessions and repeated plan builds never recompile), the
``backend.compile`` tracing span, measured compile seconds, the
``kernels.backend_compile`` counter and the ``backend.compile`` fault
point that the chaos suite uses to prove compile failures degrade
cleanly.
"""

from __future__ import annotations

import dataclasses
import threading
import warnings

from repro.errors import BackendUnavailable, ConfigError, DegradedExecution
from repro.kernels.backends.base import CompiledKernel, KernelBackend, SpecializationSpec
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.resilience.faults import fault_point
from repro.util.log import get_logger
from repro.util.timing import timed

__all__ = [
    "DEFAULT_BACKEND",
    "register_backend",
    "get_backend",
    "backend_names",
    "available_backends",
    "resolve_backend",
    "compiled_artifact",
]

_log = get_logger("kernels.backends")

# Canonical declarations of the backend instruments, so the catalogue is
# complete even before any backend compiles or degrades.
METRICS.counter("kernels.backend_compile", "compiled-kernel artifacts built (cache misses)")
METRICS.counter("kernels.backend_fallback", "backend requests degraded to the numpy reference")

#: The backend configs, the CLI and sessions use unless told otherwise:
#: bit-equal to the numpy reference, and degrading to it where no C
#: compiler is found.
DEFAULT_BACKEND = "cc"

#: Registered backends in registration order (numpy first — it is the
#: reference everything degrades to and must always be present).
_REGISTRY: dict[str, KernelBackend] = {}

#: Process-global compiled-artifact cache: (backend name, spec
#: fingerprint) -> CompiledKernel.  Compilation is idempotent, so a
#: racing double-compile is tolerated and the first insert wins.
_ARTIFACTS: dict[tuple[str, str], CompiledKernel] = {}
_ARTIFACTS_LOCK = threading.Lock()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (idempotent per name)."""
    name = backend.name
    if not name or name == "abstract":
        raise ConfigError(f"backend {type(backend).__name__} has no usable name")
    _REGISTRY[name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """Every *known* backend name, available here or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """The subset of :func:`backend_names` usable in this environment."""
    return tuple(name for name, b in _REGISTRY.items() if b.available())


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name`` (availability not checked).

    Raises :class:`repro.errors.ConfigError` for unknown names — a typo
    in ``--backend`` should fail loudly, not degrade silently.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None


def resolve_backend(
    name: str | None, *, warn: bool = True
) -> tuple[KernelBackend, tuple[str, ...]]:
    """Resolve a requested backend name, degrading to ``numpy`` if needed.

    Returns ``(backend, provenance)`` where ``provenance`` is empty when
    the request was honoured and otherwise a one-entry tuple recording
    the degradation (stored in ``ExecutionPlan.backend_provenance``).
    ``None`` means "no preference" and resolves to ``numpy`` directly.
    Unknown names raise :class:`~repro.errors.ConfigError`; *known but
    unavailable* names degrade — that asymmetry is the whole point of
    keeping unavailable backends registered.
    """
    if name is None or name == "numpy":
        return _REGISTRY["numpy"], ()
    backend = get_backend(name)
    if backend.available():
        return backend, ()
    reason = backend.unavailable_reason() or "backend unavailable"
    METRICS.counter(
        "kernels.backend_fallback", "backend requests degraded to the numpy reference"
    ).inc()
    provenance = (f"backend:{name}->numpy: {reason}",)
    _log.warning("backend %s unavailable (%s); using numpy", name, reason)
    if warn:
        warnings.warn(
            f"kernel backend {name!r} unavailable ({reason}); "
            "falling back to the numpy reference (results unchanged)",
            DegradedExecution,
            stacklevel=2,
        )
    return _REGISTRY["numpy"], provenance


def compiled_artifact(
    backend: KernelBackend, spec: SpecializationSpec
) -> CompiledKernel:
    """The cached :class:`CompiledKernel` for ``(backend, spec)``.

    Cache misses compile under the ``backend.compile`` tracing span with
    wall-clock attribution and the ``kernels.backend_compile`` counter;
    hits are a dict lookup, which is what lets warm sessions (and plan
    materialisation against an already-seen fingerprint) skip
    recompilation entirely.  Propagates
    :class:`~repro.errors.BackendUnavailable` from the backend or from
    the ``backend.compile`` fault point — degradable callers catch it.
    """
    key = (backend.name, spec.fingerprint())
    with _ARTIFACTS_LOCK:
        cached = _ARTIFACTS.get(key)
    if cached is not None:
        return cached
    times: dict[str, float] = {}
    with span("backend.compile", backend=backend.name, kernel=spec.kernel):
        fault_point("backend.compile")
        if not backend.available():
            raise BackendUnavailable(
                f"backend {backend.name!r} cannot compile here: "
                f"{backend.unavailable_reason() or 'unavailable'}"
            )
        with timed(times, "compile"):
            kernel = backend.compile(spec)
    kernel = dataclasses.replace(kernel, compile_seconds=times["compile"])
    METRICS.counter(
        "kernels.backend_compile", "compiled-kernel artifacts built (cache misses)"
    ).inc()
    with _ARTIFACTS_LOCK:
        return _ARTIFACTS.setdefault(key, kernel)
