"""Graceful-shutdown acceptance (satellite): SIGTERM mid-batch drains a
real subprocess — exit code 75, a parseable store holding every
completed result, ``interrupted`` failure records in the store, and
a rerun of the same campaign that completes it from the cache."""

import os
import signal
import subprocess
import sys

import pytest

from repro.analysis.simcache import ResultStore
from repro.resilience import EXIT_INTERRUPTED, EXIT_OK

from tests.conftest import shard_records

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

# With a third argument the child prints CONCLUDED when the batch's
# first run concludes, then holds the coordinator until the parent's
# SIGTERM has landed.  So the signal arrives mid-batch by construction,
# on any host: one run is done, at most one more is in flight
# (jobs <= 2), and at least four of the six were never started.
# Completed results merge to the store when the batch winds down (the
# drain path merges too).
CHILD = """\
import os, sys, time

from repro.analysis.faults import ExecutionPolicy
from repro.analysis.parallel import ParallelRunner, RunRequest
from repro.analysis.simcache import ResultStore
from repro.exceptions import ShutdownRequested
from repro.resilience import (
    EXIT_INTERRUPTED, EXIT_OK, get_coordinator, install_shutdown_handlers,
)
from repro.workloads import STRONG_SCALING


class AnnouncingRunner(ParallelRunner):
    announced = len(sys.argv) < 4  # the rerun neither announces nor waits

    def _conclude(self, *args, **kwargs):
        retry = super()._conclude(*args, **kwargs)
        if not self.announced:
            self.announced = True
            print("CONCLUDED", flush=True)
            deadline = time.monotonic() + 60.0
            while not get_coordinator().requested:
                if time.monotonic() > deadline:
                    sys.exit("no SIGTERM within 60 s of CONCLUDED")
                time.sleep(0.01)
        return retry


root, jobs = sys.argv[1], int(sys.argv[2])
install_shutdown_handlers()
store = ResultStore(os.path.join(root, "simcache"))
runner = AnnouncingRunner(
    store, jobs=jobs, policy=ExecutionPolicy(keep_going=True)
)
requests = [
    RunRequest("sim", STRONG_SCALING["va"], size=8, work_scale=0.5, seed=seed)
    for seed in range(6)
]
print("READY", flush=True)
try:
    report = runner.run_batch_report(requests)
except (ShutdownRequested, KeyboardInterrupt):
    sys.exit(EXIT_INTERRUPTED)
print("COMPLETED", report.executed, flush=True)
sys.exit(EXIT_OK)
"""


def campaign_env():
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_NO_FSYNC="1")
    env.pop("REPRO_FAULT_INJECT", None)
    return env


@pytest.mark.parametrize("jobs", [1, 2])
def test_sigterm_mid_batch_drains_resumably(tmp_path, jobs):
    script = tmp_path / "campaign.py"
    script.write_text(CHILD)
    root = tmp_path / "results"
    argv = [sys.executable, str(script), str(root), str(jobs)]
    proc = subprocess.Popen(
        argv + ["announce"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=campaign_env(),
    )
    try:
        assert proc.stdout.readline().strip() == "READY"
        assert proc.stdout.readline().strip() == "CONCLUDED", (
            proc.communicate()
        )
        assert proc.poll() is None, proc.communicate()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == EXIT_INTERRUPTED, (out, err)
    assert "draining" in err  # the coordinator announced the drain
    # Every result completed before the drain is durable and parseable.
    store = ResultStore(str(root / "simcache"))
    completed = len(store)
    assert completed >= 1
    assert store.stats()["corrupt_lines"] == 0
    # The undone remainder is on record as interrupted, with its keys.
    records = shard_records(root / "simcache")
    interrupted = [r for r in records if r["status"] == "interrupted"]
    assert interrupted
    assert all(r["key"] for r in interrupted)
    assert completed + len(interrupted) == 6
    # Rerunning the same campaign completes it from the cache.
    rerun = subprocess.run(
        argv, capture_output=True, text=True, timeout=300, env=campaign_env(),
    )
    assert rerun.returncode == EXIT_OK, (rerun.stdout, rerun.stderr)
    assert "COMPLETED" in rerun.stdout
    assert len(ResultStore(str(root / "simcache"))) == 6
