"""Tests for the ``repro`` logging hierarchy's CLI handler."""

from __future__ import annotations

import io
import logging
import sys

import pytest

from repro.obs.logs import configure_logging, get_logger


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    root = logging.getLogger("repro")
    handlers, level = list(root.handlers), root.level
    yield
    root.handlers[:] = handlers
    root.setLevel(level)


class TestConfigureLogging:
    def test_records_follow_a_swapped_stdout(self, monkeypatch, capsys):
        first = io.StringIO()
        monkeypatch.setattr(sys, "stdout", first)
        configure_logging("info")
        second = io.StringIO()
        monkeypatch.setattr(sys, "stdout", second)
        first.close()
        get_logger("repro.test").info("job %s finished", "j1")
        assert "job j1 finished" in second.getvalue()
        assert "Logging error" not in capsys.readouterr().err

    def test_an_explicit_stream_is_kept(self):
        stream = io.StringIO()
        configure_logging("debug", stream)
        configure_logging("debug", stream)
        get_logger("repro.test").debug("once")
        assert stream.getvalue().count("once") == 1

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("chatty")
