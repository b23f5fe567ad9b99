"""Exception hierarchy for :mod:`repro`.

Every error raised intentionally by this library derives from
:class:`ReproError`, so downstream users can catch the whole family with a
single ``except`` clause while still letting programming errors
(``TypeError`` from NumPy, etc.) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "ValidationError",
    "ConfigError",
    "SimulationError",
    "DatasetError",
    "ReproIOError",
    "TimeoutExceeded",
    "CorruptStoreError",
    "WorkspaceExhausted",
    "BackendUnavailable",
    "DegradedExecution",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_DATA",
    "EXIT_IO",
    "EXIT_TIMEOUT",
    "EXIT_INTERRUPTED",
    "exit_code_for",
    "format_cli_error",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """Operands have incompatible shapes (e.g. SpMM with mismatched K)."""


class FormatError(ReproError, ValueError):
    """A sparse container's internal arrays violate the format invariants.

    Raised by the ``validate()`` methods of :class:`repro.sparse.COOMatrix`,
    :class:`repro.sparse.CSRMatrix` and :class:`repro.sparse.CSCMatrix`, and
    by the MatrixMarket parser on malformed input.
    """


class ValidationError(ReproError, ValueError):
    """An argument value is outside its documented domain."""


class ConfigError(ReproError, ValueError):
    """An experiment or device configuration is inconsistent."""


class SimulationError(ReproError, RuntimeError):
    """The GPU performance model was driven into an impossible state."""


class DatasetError(ReproError, RuntimeError):
    """A dataset generator or corpus entry could not produce a matrix."""


class ReproIOError(ReproError, OSError):
    """A filesystem operation failed, annotated with the path involved.

    Raised instead of letting a raw :class:`OSError` escape library entry
    points (e.g. :func:`repro.sparse.read_matrix_market`), so callers can
    catch the :class:`ReproError` family while ``exit_code_for`` still
    routes the failure to :data:`EXIT_IO` via the ``OSError`` base.
    """


class TimeoutExceeded(ReproError, RuntimeError):
    """A pipeline stage blew its cooperative deadline.

    Carries the stage name and the budget for diagnostics; raised by
    :meth:`repro.resilience.Deadline.check` from polling points inside
    MinHash, LSH and the clustering loop, and by injected stage-timeout
    faults.  The degradation ladder in :func:`repro.reorder.build_plan`
    catches it and falls back to a cheaper rung.
    """

    def __init__(self, message: str, *, stage: str = "", budget_s: float = 0.0):
        super().__init__(message)
        self.stage = stage
        self.budget_s = budget_s


class CorruptStoreError(ReproError, RuntimeError):
    """A plan-store entry failed checksum or structural validation.

    The disk tier quarantines the entry and treats the lookup as a miss;
    the error only escapes when a caller reads an entry directly (e.g.
    ``repro doctor`` inspecting quarantine contents).
    """


class WorkspaceExhausted(ReproError, MemoryError):
    """A workspace pool could not serve a scratch lease within its cap.

    :class:`repro.kernels.KernelSession` catches this and falls back to
    direct allocation (bitwise-identical results, no pooling benefit).
    """


class BackendUnavailable(ReproError, RuntimeError):
    """The compiled ``cc`` backend could not be found, built or loaded.

    Raised by :mod:`repro.kernels.backends.cc_backend` (no compiler, a
    failed build, a library that fails to load) and by the
    ``backend.compile`` injected fault.  Only
    :func:`repro.kernels.backends.load_backend` catches it: it falls back
    to the always-available ``numpy`` backend, and plans and sessions
    record the step in their ``backend_provenance``.
    """


class DegradedExecution(UserWarning):
    """Warning category for degraded-but-correct execution.

    Emitted when the degradation ladder settles on a rung below ``full``
    or a kernel session falls back from pooled to direct allocation.
    Results remain correct; performance characteristics do not.
    """


# ----------------------------------------------------------------------
# CLI exit-code mapping
# ----------------------------------------------------------------------
# The ``repro`` CLI routes every library error through this table so that
# scripts can branch on *why* a command failed instead of parsing
# tracebacks.  ``EXIT_USAGE`` matches argparse's own code for bad flags.

EXIT_OK = 0  #: success
EXIT_FAILURE = 1  #: generic failure (lint findings, per-item build failures)
EXIT_USAGE = 2  #: bad argument values (ValidationError/ShapeError/ConfigError)
EXIT_DATA = 3  #: malformed input data (FormatError/DatasetError/CorruptStoreError)
EXIT_IO = 4  #: filesystem/OS errors
EXIT_TIMEOUT = 5  #: a stage deadline expired and no ladder rung absorbed it
EXIT_INTERRUPTED = 130  #: SIGINT convention (128 + signal 2)

_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ValidationError, EXIT_USAGE),
    (ShapeError, EXIT_USAGE),
    (ConfigError, EXIT_USAGE),
    (TimeoutExceeded, EXIT_TIMEOUT),
    (CorruptStoreError, EXIT_DATA),
    (FormatError, EXIT_DATA),
    (DatasetError, EXIT_DATA),
    (OSError, EXIT_IO),
    (KeyboardInterrupt, EXIT_INTERRUPTED),
)


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code documented above.

    Unrecognised :class:`ReproError` subclasses (and anything else) map to
    :data:`EXIT_FAILURE`.
    """
    for exc_type, code in _EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return EXIT_FAILURE


def format_cli_error(command: str, exc: BaseException) -> str:
    """One-line structured error message for CLI stderr output."""
    return f"repro {command}: error ({type(exc).__name__}): {exc}"
