"""Shared test fixtures: fast durable writes, clean resilience state.

``REPRO_NO_FSYNC=1`` skips the fsync calls (not the atomicity) that the
durable writers in :mod:`repro.fsio` otherwise issue on every append —
across a few thousand tests the sync cost dominates the suite.  The
fsync code paths themselves are covered by :mod:`tests.test_fsio`,
which re-enables them explicitly.

The autouse fixture resets the process-wide resilience singletons
(shutdown coordinator, disk guard, io-fault budgets) around every test
so one test's signal or injected-fault state can never leak into the
next.

:func:`shard_records` reads a result-store shard back as run outcomes,
for the tests that check what the failure ledger recorded.
"""

import json
import os

import pytest

os.environ.setdefault("REPRO_NO_FSYNC", "1")

from repro.analysis.faults import reset_io_faults  # noqa: E402
from repro.resilience import get_coordinator, reset_disk_guard  # noqa: E402


def shard_records(store_root, shard="va"):
    """A store shard's lines in append order: each failure record as
    written, each result as ``{"key": ..., "status": "ok"}``."""
    records = []
    with open(os.path.join(str(store_root), f"{shard}.jsonl")) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                records.append(
                    record.get("failure")
                    or {"key": record["key"], "status": "ok"}
                )
    return records


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    get_coordinator().reset()
    reset_disk_guard()
    reset_io_faults()
    yield
    coordinator = get_coordinator()
    coordinator.uninstall()
    coordinator.reset()
    reset_disk_guard()
    reset_io_faults()
