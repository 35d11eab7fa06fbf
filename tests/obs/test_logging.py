"""Structured-logging setup: idempotency, human/json formats, dynamic
stderr binding (pytest swaps ``sys.stderr`` per test)."""

import json
import logging

import pytest

from repro.obs.logging import ROOT_LOGGER, get_logger, setup_logging


@pytest.fixture(autouse=True)
def restore_logging():
    yield
    for name in (ROOT_LOGGER, "py.warnings"):
        logger = logging.getLogger(name)
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
    logging.captureWarnings(False)


class TestSetup:
    def test_idempotent_no_handler_stacking(self):
        for _ in range(3):
            setup_logging("human")
        assert len(logging.getLogger(ROOT_LOGGER).handlers) == 1

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            setup_logging("xml")

    def test_human_format_is_bare_message(self, capsys):
        setup_logging("human")
        get_logger("cli").info("execution: 5 ok, 0 failed")
        assert capsys.readouterr().err == "execution: 5 ok, 0 failed\n"

    def test_json_format_one_object_per_line(self, capsys):
        setup_logging("json")
        log = get_logger("cli")
        log.info("first")
        log.error("second %d", 2)
        lines = capsys.readouterr().err.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["msg"] for r in records] == ["first", "second 2"]
        assert records[0]["level"] == "info"
        assert records[1]["level"] == "error"
        assert records[0]["logger"] == "repro.cli"
        assert "ts" in records[0]

    def test_dynamic_stderr_follows_capsys(self, capsys):
        # setup happened under a different stderr object in an earlier
        # test; emission must land in the *current* sys.stderr.
        setup_logging("human")
        capsys.readouterr()  # drain
        get_logger("x").warning("note")
        assert "note" in capsys.readouterr().err

    def test_get_logger_namespacing(self):
        assert get_logger("obs").name == "repro.obs"
        assert get_logger("obs").parent.name in (ROOT_LOGGER, "root")

    def test_warnings_bridge(self, capsys):
        import warnings

        setup_logging("json")
        # Own the filter: under ``-W ignore`` the warning never reaches
        # the bridge, under ``-W error`` it is raised instead.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.warn("tolerated degradation")
        err = capsys.readouterr().err
        record = json.loads(err.strip().splitlines()[-1])
        assert "tolerated degradation" in record["msg"]
        assert record["logger"] == "py.warnings"

    def test_pytest_warns_still_works_after_setup(self):
        import warnings

        setup_logging("human")
        with pytest.warns(UserWarning, match="still catchable"):
            warnings.warn("still catchable")
