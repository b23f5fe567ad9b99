"""Chaos tests for MatrixMarket reads.

Contract (ISSUE bugfix): failures reading a *path* surface as
:class:`ReproIOError`/:class:`FormatError` with the path in the message —
never a raw ``OSError``/``UnicodeDecodeError`` traceback — and map to the
structured CLI exit codes.
"""

import numpy as np
import pytest

from repro.errors import (
    EXIT_DATA,
    EXIT_IO,
    FormatError,
    ReproIOError,
    exit_code_for,
)
from repro.resilience import FaultInjector, retry_io
from repro.sparse import read_matrix_market, write_matrix_market

MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "3 3 3\n"
    "1 1 1.5\n"
    "2 2 2.5\n"
    "3 1 -1.0\n"
)


@pytest.fixture
def mtx_path(tmp_path):
    path = tmp_path / "ok.mtx"
    path.write_text(MTX)
    return path


class TestErrorSurface:
    def test_missing_file_maps_to_repro_io_error_with_path(self, tmp_path):
        path = tmp_path / "absent.mtx"
        with pytest.raises(ReproIOError, match="absent.mtx"):
            read_matrix_market(path)
        assert exit_code_for(ReproIOError("x")) == EXIT_IO

    def test_directory_path_maps_to_repro_io_error(self, tmp_path):
        with pytest.raises(ReproIOError, match=str(tmp_path)):
            read_matrix_market(tmp_path)

    def test_binary_bytes_map_to_format_error_with_path(self, tmp_path):
        path = tmp_path / "binary.mtx"
        path.write_bytes(b"\x80\x81\x82\xff not text")
        with pytest.raises(FormatError, match="binary.mtx"):
            read_matrix_market(path)
        assert exit_code_for(FormatError("x")) == EXIT_DATA

    def test_no_raw_oserror_escapes(self, tmp_path):
        try:
            read_matrix_market(tmp_path / "absent.mtx")
        except ReproIOError:
            pass  # the contract: the subtype, not a bare OSError
        else:  # pragma: no cover - the read must fail
            pytest.fail("expected ReproIOError")


class TestInjectedReadFaults:
    def test_injected_fault_surfaces_as_repro_io_error(self, mtx_path, chaos_seed):
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["io.read"]):
            with pytest.raises(ReproIOError, match="injected fault"):
                read_matrix_market(mtx_path)

    def test_file_objects_bypass_the_injection_site(self, mtx_path, chaos_seed):
        """The io.read site guards *path* opens; handed an open stream,
        the parser has no IO of its own to fail."""
        with FaultInjector(rate=1.0, seed=chaos_seed, sites=["io.read"]):
            with open(mtx_path, encoding="utf-8") as fh:
                csr = read_matrix_market(fh)
        assert csr.nnz == 3

    def test_chaos_rate_reads_fail_clean_or_return_correct(
        self, mtx_path, chaos_rate, chaos_seed
    ):
        reference = read_matrix_market(mtx_path)
        failures = 0
        with FaultInjector(rate=chaos_rate, seed=chaos_seed, sites=["io.read"]):
            for _ in range(50):
                try:
                    got = read_matrix_market(mtx_path)
                except ReproIOError:
                    failures += 1
                    continue
                np.testing.assert_array_equal(got.rowptr, reference.rowptr)
                np.testing.assert_array_equal(got.colidx, reference.colidx)
                np.testing.assert_array_equal(got.values, reference.values)
        # Nothing but the characteristic error ever escaped; at the
        # default 10% rate the binomial P(0 fires in 50) is ~0.005, but a
        # 0-rate run (chaos off) must also pass.
        assert failures <= 50


class TestRetryAroundReads:
    def test_transient_oserror_is_retried_to_success(self, mtx_path):
        """The production read path wires retry_io around the open; prove
        the same wrapper turns flaky opens into successful reads."""
        calls = {"n": 0}

        def flaky_read():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient EIO")
            return read_matrix_market(mtx_path)

        csr = retry_io(flaky_read, sleep=lambda _: None)
        assert csr.nnz == 3
        assert calls["n"] == 3

    def test_roundtrip_survives_write_then_read(self, tmp_path, mtx_path):
        csr = read_matrix_market(mtx_path)
        out = tmp_path / "roundtrip.mtx"
        write_matrix_market(out, csr)
        again = read_matrix_market(out)
        np.testing.assert_array_equal(again.colidx, csr.colidx)
        np.testing.assert_allclose(again.values, csr.values)
