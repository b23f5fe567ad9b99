"""Argument-validation helpers.

All public entry points of the library validate their inputs with these
helpers so that error messages are uniform and informative.  They raise
:class:`repro.errors.ValidationError` (a ``ValueError`` subclass) on bad
input and return the validated (possibly converted) value on success, which
lets callers write ``n = check_positive("n", n)``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import ShapeError, ValidationError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_integer_array",
    "check_dense",
    "check_out",
    "check_permutation",
    "finite_real",
]


def check_positive(name: str, value, *, integer: bool = True):
    """Validate that ``value`` is a (strictly) positive scalar.

    Parameters
    ----------
    name:
        Parameter name used in the error message.
    value:
        The value to validate.
    integer:
        When true (default) the value must also be an integral number and is
        returned as a built-in ``int``.
    """
    if integer:
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    else:
        if not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value, *, integer: bool = True):
    """Validate that ``value`` is a scalar >= 0 (see :func:`check_positive`)."""
    if integer:
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    else:
        if not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def finite_real(value) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float`` and not a ``bool``.

    The check behind every duration and rate in a config: ``json`` parses
    ``NaN`` and ``Infinity`` literals, ``float()`` parses ``"nan"`` and
    ``"inf"`` from a command line, and ``True`` is an ``int``; none of
    them is a number of seconds.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_in_range(name: str, value, low, high, *, inclusive: bool = True) -> float:
    """Validate ``low <= value <= high`` (or strict when ``inclusive=False``)."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValidationError(
            f"{name} must satisfy {low} {op} {name} {op} {high}, got {value!r}"
        )
    return value


def check_integer_array(name: str, arr, *, min_value=None, max_value=None) -> np.ndarray:
    """Validate and convert ``arr`` to a 1-D ``int64`` NumPy array.

    Optionally enforces elementwise bounds.  Float inputs are rejected (a
    silent truncation of column indices would be a data-corruption bug, not a
    convenience).
    """
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{name} must have an integer dtype, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size:
        if min_value is not None and arr.min() < min_value:
            raise ValidationError(
                f"{name} has entries < {min_value} (min is {arr.min()})"
            )
        if max_value is not None and arr.max() > max_value:
            raise ValidationError(
                f"{name} has entries > {max_value} (max is {arr.max()})"
            )
    return arr


def check_dense(name: str, mat, *, rows=None, cols=None, dtype=np.float64) -> np.ndarray:
    """Validate a 2-D dense operand, optionally pinning its shape.

    Returns a C-contiguous array of ``dtype`` (copying only when necessary;
    views are preserved whenever the input already satisfies the contract,
    per the "use views, not copies" guideline).

    ``dtype=None`` selects the *dtype-preserving* mode: a floating input
    keeps its precision (``float32`` stays ``float32`` — no silent
    up-cast that would double a ``K=512`` operand's memory), while
    non-floating inputs are still promoted to ``float64``.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {mat.shape}")
    if rows is not None and mat.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {mat.shape[0]}")
    if cols is not None and mat.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {mat.shape[1]}")
    if dtype is None:
        if not np.issubdtype(mat.dtype, np.floating):
            mat = mat.astype(np.float64)
        return np.ascontiguousarray(mat)
    return np.ascontiguousarray(mat, dtype=dtype)


def check_out(name: str, mat, *, rows: int, cols: int) -> np.ndarray:
    """Validate a caller-supplied output buffer **without ever copying it**.

    :func:`check_dense` coerces with a copy when the input is the wrong
    dtype or non-contiguous — correct for *operands*, silently wrong for
    *outputs*: the kernel would fill the coerced copy and the caller's
    buffer would never see the result.  Output buffers therefore get the
    strict contract: a C-contiguous ``float64`` ndarray of exactly
    ``(rows, cols)``, or a :class:`repro.errors.ValidationError` telling
    the caller why their buffer cannot be written in place.
    """
    if not isinstance(mat, np.ndarray):
        raise ValidationError(
            f"{name} must be a numpy.ndarray (a preallocated output buffer), "
            f"got {type(mat).__name__}"
        )
    if mat.shape != (rows, cols):
        raise ShapeError(
            f"{name} must have shape {(rows, cols)}, got {mat.shape}"
        )
    if mat.dtype != np.float64:
        raise ValidationError(
            f"{name} must be float64 to be written in place, got {mat.dtype} "
            "(a dtype-coerced copy would silently discard the results)"
        )
    if not mat.flags.c_contiguous:
        raise ValidationError(
            f"{name} must be C-contiguous to be written in place "
            "(a contiguous copy would silently discard the results)"
        )
    if not mat.flags.writeable:
        raise ValidationError(f"{name} is read-only and cannot be written in place")
    return mat


def check_permutation(name: str, perm, n: int) -> np.ndarray:
    """Validate that ``perm`` is a permutation of ``range(n)``.

    Accepts read-only inputs (e.g. memory-mapped plan files): the result is
    a fresh or shared ``int64`` array, never an in-place mutation of the
    input.  ``n = 0`` is legal and requires an empty ``perm`` — a non-empty
    one is rejected with a length error rather than a confusing bounds
    message.
    """
    n = check_nonnegative("n", n)
    arr = np.asarray(perm)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size != n:
        raise ValidationError(f"{name} must have length {n}, got {arr.size}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    perm = check_integer_array(name, arr, min_value=0, max_value=n - 1)
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValidationError(f"{name} is not a permutation: index {missing} missing")
    return perm
