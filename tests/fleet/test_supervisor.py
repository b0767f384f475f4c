"""Worker supervision: one leased pool worker crashing, hanging, reporting.

A :class:`~repro.fleet.pool.PoolWorker` is the dispatcher's handle on
one supervised child process. These tests pin the single-attempt
contract of that handle — how an attempt's outcome is classified, how
the deadline and the SIGTERM→SIGKILL escalation land, and that every
job gets its own trace bundle. Reuse across jobs and slot recycling are
covered in ``test_pool.py``.

They fork actual processes (the whole point of supervision), so they use
aggressive timeouts to stay fast.
"""

import json
import time

import pytest

from repro.fleet.jobs import ProbeSpec
from repro.fleet.pool import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    PoolWorker,
)


def wait_for_outcome(handle, deadline=30.0):
    start = time.monotonic()  # lint: allow[DET001] -- test harness real time
    while time.monotonic() - start < deadline:  # lint: allow[DET001] -- ditto
        outcome = handle.poll()
        if outcome is not None:
            return outcome
        time.sleep(0.01)
    handle.abort()
    pytest.fail("worker never produced an outcome")


@pytest.fixture
def handle():
    worker = PoolWorker(0, grace=0.2)
    yield worker
    worker.shutdown()


class TestWorkerHandle:
    def test_ok_worker_reports_payload(self, handle):
        handle.submit(ProbeSpec(value=5), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(handle)
        assert outcome.status == OUTCOME_OK and outcome.ok
        assert outcome.payload == {"ok": True, "value": 5, "attempt": 1}
        assert outcome.seconds > 0
        assert not handle.busy

    def test_job_exception_comes_back_as_error(self, handle):
        handle.submit(ProbeSpec(behavior="fail"), attempt=2, timeout=20.0)
        outcome = wait_for_outcome(handle)
        assert outcome.status == OUTCOME_ERROR and not outcome.ok
        assert "RuntimeError" in outcome.detail
        assert "attempt 2" in outcome.detail

    def test_dying_worker_is_a_crash_with_exit_code(self, handle):
        handle.submit(ProbeSpec(behavior="crash"), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(handle)
        assert outcome.status == OUTCOME_CRASH and not outcome.ok
        assert "exit code 23" in outcome.detail

    def test_hung_worker_is_killed_at_the_deadline(self, handle):
        hung = handle.process
        handle.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        outcome = wait_for_outcome(handle)
        assert outcome.status == OUTCOME_TIMEOUT
        assert "0.4s" in outcome.detail
        assert outcome.seconds >= 0.4
        assert not hung.is_alive()

    def test_stop_escalates_and_reaps(self, handle):
        """The dispatcher's interrupt hook: a busy worker is killed and
        reaped, and the slot is not respawned."""
        process = handle.process
        handle.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=30.0,
        )
        handle.abort()
        assert not process.is_alive()
        assert process.exitcode is not None
        assert handle.process is process and handle.recycles == 0
        assert not handle.busy

    def test_per_job_trace_bundle_is_written(self, handle, tmp_path):
        trace_path = tmp_path / "job.trace.json"
        handle.submit(
            ProbeSpec(value=1), attempt=1, timeout=20.0,
            trace_path=str(trace_path),
        )
        outcome = wait_for_outcome(handle)
        assert outcome.ok
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert events, "trace bundle is empty"
