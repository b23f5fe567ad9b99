"""Runtime contract layer: opt-in validation at function boundaries.

The library's correctness rests on invariants the type system cannot see —
CSR canonical form, permutation bijectivity, panel partitions.  The
:func:`checked` decorator attaches *contracts* (callables over a function's
bound arguments) that invoke the existing ``validate()`` / ``check_*``
machinery at every call, but only when contracts are switched on:

* set ``REPRO_CONTRACTS=1`` in the environment before importing, or
* call :func:`enable_contracts` / use the :func:`contracts` context manager.

Contracts are **off by default** and the disabled fast path is a single
attribute check, so production callers pay effectively nothing (the
``benchmarks/bench_contracts.py`` micro-benchmark pins the overhead below
2% on ``spmm_tiled``).  The test suite runs with contracts enabled
(``tests/conftest.py``), so every kernel and pipeline call in CI
re-validates its operands.

Usage::

    from repro.contracts import checked, validates

    @checked(validates("csr"))
    def transpose_csr(csr): ...

Custom contracts are plain callables receiving the bound-argument mapping::

    @checked(lambda a: check_positive("k", a["k"]))
    def run(k): ...
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager

__all__ = [
    "checked",
    "validates",
    "invokes",
    "contracts_enabled",
    "enable_contracts",
    "contracts",
]

#: Environment variable that switches the contract layer on (any value other
#: than empty or ``"0"``).
ENV_VAR = "REPRO_CONTRACTS"


class _State:
    """Mutable module state (a class so the flag is one attribute lookup)."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


_state = _State(os.environ.get(ENV_VAR, "") not in ("", "0"))


def contracts_enabled() -> bool:
    """True when :func:`checked` contracts execute at call boundaries."""
    return _state.enabled


def enable_contracts(on: bool = True) -> None:
    """Switch the contract layer on (or off with ``on=False``) process-wide."""
    _state.enabled = bool(on)


@contextmanager
def contracts(on: bool):
    """Context manager scoping a temporary contract on/off override."""
    previous = _state.enabled
    _state.enabled = bool(on)
    try:
        yield
    finally:
        _state.enabled = previous


def checked(*contract_fns):
    """Attach contracts to a function, executed only when contracts are on.

    Each contract is a callable taking the call's bound-argument mapping
    (``dict`` of parameter name to value, defaults applied).  Contracts run
    in order before the wrapped function; they signal violations by raising
    (typically :class:`repro.errors.ValidationError` or
    :class:`repro.errors.FormatError` via the ``check_*`` helpers).

    The decorated function exposes the originals as ``__wrapped__`` (via
    ``functools.wraps``) and ``__contracts__`` for introspection.
    """

    def decorate(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _state.enabled:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for contract in contract_fns:
                    contract(bound.arguments)
            return fn(*args, **kwargs)

        wrapper.__contracts__ = contract_fns
        return wrapper

    return decorate


def validates(*names):
    """Contract factory: call ``.validate()`` on each named argument.

    ``None``-valued arguments are skipped so optional operands stay
    optional.  Works with every container exposing a ``validate()`` method
    (:class:`~repro.sparse.CSRMatrix`, :class:`~repro.aspt.TiledMatrix`, …).
    """

    def contract(arguments):
        for name in names:
            obj = arguments.get(name)
            if obj is not None:
                obj.validate()

    contract.__name__ = f"validates({', '.join(names)})"
    return contract


def invokes(method: str, *names):
    """Contract factory: call the named zero-argument method on each argument.

    Used where full ``validate()`` is too expensive for a per-call contract
    (e.g. ``TiledMatrix.validate`` recombines dense arrays) but a cheap
    structural check exists::

        @checked(invokes("validate_structure", "tiled"))
        def spmm_tiled(tiled, X): ...
    """

    def contract(arguments):
        for name in names:
            obj = arguments.get(name)
            if obj is not None:
                getattr(obj, method)()

    contract.__name__ = f"invokes({method!r}, {', '.join(names)})"
    return contract

