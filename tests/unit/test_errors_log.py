"""Unit tests for repro.errors and repro.util.log."""

import logging

import pytest

from repro.errors import (
    ConfigError,
    DatasetError,
    FormatError,
    ReproError,
    ShapeError,
    ValidationError,
)
from repro.util.log import enable_console_logging, get_logger


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ShapeError, FormatError, ValidationError, ConfigError, DatasetError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    @pytest.mark.parametrize(
        "exc", [ShapeError, FormatError, ValidationError, ConfigError]
    )
    def test_value_error_family(self, exc):
        # Callers that catch ValueError (NumPy-idiomatic) keep working.
        assert issubclass(exc, ValueError)

    @pytest.mark.parametrize("exc", [DatasetError])
    def test_runtime_error_family(self, exc):
        assert issubclass(exc, RuntimeError)

    def test_catch_family(self):
        with pytest.raises(ReproError):
            raise ShapeError("boom")


class TestLogging:
    def test_get_logger_names(self):
        assert get_logger().name == "repro"
        assert get_logger("experiments").name == "repro.experiments"

    def test_enable_console_logging_idempotent(self):
        logger = enable_console_logging()
        n = len(logger.handlers)
        enable_console_logging()
        assert len(logger.handlers) == n
        assert logger.level == logging.INFO

    def test_child_propagates_to_library_logger(self, caplog):
        enable_console_logging()
        child = get_logger("test_child")
        with caplog.at_level(logging.INFO, logger="repro"):
            child.info("hello from child")
        assert any("hello from child" in r.message for r in caplog.records)
