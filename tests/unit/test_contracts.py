"""Tests for the runtime contract layer (repro.contracts)."""

import numpy as np
import pytest

from repro.contracts import (
    checked,
    contracts,
    contracts_enabled,
    enable_contracts,
    invokes,
    validates,
)
from repro.errors import FormatError, ValidationError
from repro.kernels.spmm import spmm
from repro.sparse.csr import CSRMatrix


def bad_csr() -> CSRMatrix:
    """A structurally broken CSR built via the raw constructor.

    Direct dataclass construction bypasses canonicalisation, so the
    unsorted row survives until ``validate()`` looks at it.
    """
    return CSRMatrix(
        (1, 3),
        np.array([0, 2], dtype=np.int64),
        np.array([2, 0], dtype=np.int64),
        np.array([1.0, 2.0]),
    )


def good_csr() -> CSRMatrix:
    return CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0]]))


class TestToggle:
    def test_suite_runs_with_contracts_enabled(self):
        """tests/conftest.py switches contracts on for the whole suite."""
        assert contracts_enabled()

    def test_enable_disable_roundtrip(self):
        previous = contracts_enabled()
        try:
            enable_contracts(False)
            assert not contracts_enabled()
            enable_contracts(True)
            assert contracts_enabled()
        finally:
            enable_contracts(previous)

    def test_context_manager_restores_state(self):
        before = contracts_enabled()
        with contracts(not before):
            assert contracts_enabled() is (not before)
        assert contracts_enabled() is before

    def test_context_manager_restores_on_error(self):
        before = contracts_enabled()
        with pytest.raises(RuntimeError):
            with contracts(not before):
                raise RuntimeError("boom")
        assert contracts_enabled() is before


class TestChecked:
    def test_contract_runs_when_enabled(self):
        @checked(validates("csr"))
        def consume(csr):
            return csr.nnz

        with contracts(True):
            with pytest.raises(FormatError):
                consume(bad_csr())

    def test_contract_skipped_when_disabled(self):
        @checked(validates("csr"))
        def consume(csr):
            return csr.nnz

        with contracts(False):
            assert consume(bad_csr()) == 2

    def test_defaults_are_bound(self):
        seen = {}

        @checked(lambda args: seen.update(args))
        def f(a, b=7, *, c=9):
            return a + b + c

        with contracts(True):
            assert f(1) == 17
        assert seen == {"a": 1, "b": 7, "c": 9}

    def test_kwargs_pass_through(self):
        @checked()
        def f(a, *, b):
            return (a, b)

        with contracts(True):
            assert f(1, b=2) == (1, 2)

    def test_introspection_surface(self):
        contract = validates("csr")

        @checked(contract)
        def f(csr):
            """Doc."""
            return csr

        assert f.__wrapped__ is not None
        assert f.__contracts__ == (contract,)
        assert f.__doc__ == "Doc."
        assert f.__name__ == "f"

    def test_contracts_run_in_order(self):
        calls = []

        @checked(lambda a: calls.append("first"), lambda a: calls.append("second"))
        def f():
            return None

        with contracts(True):
            f()
        assert calls == ["first", "second"]


class TestContractFactories:
    def test_validates_skips_none(self):
        @checked(validates("csr"))
        def f(csr=None):
            return csr

        with contracts(True):
            assert f() is None

    def test_invokes_calls_named_method(self):
        class Probe:
            def __init__(self):
                self.calls = 0

            def cheap_check(self):
                self.calls += 1

        @checked(invokes("cheap_check", "obj"))
        def f(obj):
            return obj

        probe = Probe()
        with contracts(True):
            f(probe)
        assert probe.calls == 1
        with contracts(False):
            f(probe)
        assert probe.calls == 1


class TestLibraryIntegration:
    def test_spmm_rejects_broken_csr_under_contracts(self):
        X = np.ones((3, 2))
        with contracts(True):
            with pytest.raises(FormatError):
                spmm(bad_csr(), X)

    def test_spmm_parity_on_off(self):
        """Contracts must not change results, only add validation."""
        csr = good_csr()
        X = np.arange(6, dtype=np.float64).reshape(3, 2)
        with contracts(True):
            on = spmm(csr, X)
        with contracts(False):
            off = spmm(csr, X)
        np.testing.assert_array_equal(on, off)

    def test_tiled_contract_uses_structure_check(self):
        from repro.aspt.tiles import tile_matrix
        from repro.kernels.aspt_spmm import spmm_tiled

        tiled = tile_matrix(good_csr(), panel_height=1)
        X = np.ones((3, 2))
        with contracts(True):
            out = spmm_tiled(tiled, X)
        np.testing.assert_allclose(out, good_csr().to_dense() @ X)

    def test_permutation_contract_error_routes_validationerror(self):
        from repro.sparse.ops import permute_csr_rows

        with contracts(True):
            with pytest.raises(ValidationError):
                permute_csr_rows(good_csr(), np.array([0, 0], dtype=np.int64))
