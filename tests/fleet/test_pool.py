"""The warm-worker pool: reuse, recycle-on-timeout/crash, escalation,
equivalence with inline dispatch.

Real child processes again (the pool's whole point is their lifecycle),
so aggressive timeouts keep these fast.
"""

import time

import pytest

from repro.fleet import (
    Fleet,
    FleetConfig,
    ProbeSpec,
    ResultCache,
    WorkerPool,
)
from repro.fleet.pool import (
    OUTCOME_CRASH,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
)


def wait_for_outcome(worker, deadline=30.0):
    start = time.monotonic()  # lint: allow[DET001] -- test harness real time
    while time.monotonic() - start < deadline:  # lint: allow[DET001] -- ditto
        outcome = worker.poll()
        if outcome is not None:
            return outcome
        time.sleep(0.005)
    pytest.fail("pool worker never produced an outcome")


@pytest.fixture
def pool():
    pool = WorkerPool(size=1, grace=0.3)
    yield pool
    pool.close()


class TestWarmReuse:
    def test_many_jobs_one_process(self, pool):
        """The headline property: N jobs, zero respawns, same pid."""
        worker = pool.workers[0]
        pid = worker.process.pid
        for n in range(5):
            worker.submit(ProbeSpec(value=n), attempt=1, timeout=20.0)
            outcome = wait_for_outcome(worker)
            assert outcome.status == OUTCOME_OK
            assert outcome.payload == {"ok": True, "value": n, "attempt": 1}
        assert worker.process.pid == pid  # never recycled
        assert worker.jobs_done == 5
        assert worker.recycles == 0
        assert pool.recycles == 0

    def test_job_error_keeps_the_worker_warm(self, pool):
        """A job-level exception is a result, not a worker death."""
        worker = pool.workers[0]
        pid = worker.process.pid
        worker.submit(ProbeSpec(behavior="fail"), attempt=2, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_ERROR and not outcome.ok
        assert "RuntimeError" in outcome.detail
        assert "attempt 2" in outcome.detail
        worker.submit(ProbeSpec(value=3), attempt=3, timeout=20.0)
        assert wait_for_outcome(worker).ok
        assert worker.process.pid == pid and worker.recycles == 0

    def test_poll_is_none_while_running(self, pool):
        worker = pool.workers[0]
        assert worker.poll() is None  # idle: nothing leased
        worker.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=30.0,
        )
        assert worker.poll() is None
        assert worker.busy
        pool.close()
        assert not worker.process.is_alive()


class TestRecycle:
    def test_timeout_recycles_and_next_job_succeeds(self, pool):
        """A stuck worker is killed at the deadline and the slot gets a
        fresh process; the next job on that slot runs clean."""
        worker = pool.workers[0]
        stuck = worker.process
        worker.submit(
            ProbeSpec(behavior="hang", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_TIMEOUT
        assert "killed after 0.4s" in outcome.detail
        assert worker.recycles == 1
        assert not stuck.is_alive()
        assert worker.process.pid != stuck.pid  # a fresh process
        assert worker.process.is_alive()

        worker.submit(ProbeSpec(value=8), attempt=2, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_OK
        assert outcome.payload["value"] == 8

    def test_stubborn_worker_needs_sigkill_but_still_recycles(self, pool):
        """SIGTERM→SIGKILL escalation against a worker that ignores
        SIGTERM: the polite kill fails, the escalation lands, the slot
        recycles."""
        worker = pool.workers[0]
        stuck = worker.process
        worker.submit(
            ProbeSpec(behavior="stubborn", hang_seconds=60.0),
            attempt=1, timeout=0.4,
        )
        start = time.monotonic()  # lint: allow[DET001] -- test harness real time
        outcome = wait_for_outcome(worker)
        elapsed = time.monotonic() - start  # lint: allow[DET001] -- ditto
        assert outcome.status == OUTCOME_TIMEOUT
        assert worker.recycles == 1
        assert worker.process.pid != stuck.pid
        # SIGTERM alone cannot have done it: the probe ignores it, so the
        # grace had to elapse before SIGKILL landed.
        assert stuck.exitcode == -9
        assert elapsed >= 0.3
        worker.submit(ProbeSpec(value=1), attempt=2, timeout=20.0)
        assert wait_for_outcome(worker).ok

    def test_crash_recycles_with_exit_code(self, pool):
        worker = pool.workers[0]
        dead_pid = worker.process.pid
        worker.submit(ProbeSpec(behavior="crash"), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_CRASH
        assert "exit code 23" in outcome.detail
        assert worker.recycles == 1
        assert worker.process.pid != dead_pid
        worker.submit(ProbeSpec(value=2), attempt=2, timeout=20.0)
        assert wait_for_outcome(worker).ok

    def test_idle_death_is_replaced_on_submit(self, pool):
        worker = pool.workers[0]
        worker.process.kill()
        worker.process.join()
        worker.submit(ProbeSpec(value=4), attempt=1, timeout=20.0)
        outcome = wait_for_outcome(worker)
        assert outcome.status == OUTCOME_OK
        assert worker.recycles == 1


class TestSupervisorEscalation:
    def test_per_attempt_stubborn_worker_is_sigkilled(self, pool):
        """A retried stubborn job meets the escalation on every attempt:
        the recycled slot's fresh process is SIGKILLed just like the
        first."""
        worker = pool.workers[0]
        for attempt in (1, 2):
            stuck = worker.process
            worker.submit(
                ProbeSpec(behavior="stubborn", hang_seconds=60.0),
                attempt=attempt, timeout=0.4,
            )
            outcome = wait_for_outcome(worker)
            assert outcome.status == OUTCOME_TIMEOUT
            assert not stuck.is_alive()
            # SIGTERM alone cannot have done it: the probe ignores it.
            assert stuck.exitcode == -9  # SIGKILL
            assert worker.recycles == attempt
            assert worker.process.pid != stuck.pid


class TestShutdown:
    def test_close_reaps_every_worker(self):
        pool = WorkerPool(size=2, grace=0.3)
        processes = [w.process for w in pool.workers]
        assert all(p.is_alive() for p in processes)
        pool.close()
        assert all(not p.is_alive() for p in processes)
        assert all(p.exitcode is not None for p in processes)

    def test_idle_workers_exit_cleanly_on_shutdown(self):
        """An idle worker gets the goodbye message and exits 0 — no
        signal needed."""
        pool = WorkerPool(size=1, grace=2.0)
        worker = pool.workers[0]
        worker.submit(ProbeSpec(value=1), attempt=1, timeout=20.0)
        wait_for_outcome(worker)
        pool.close()
        assert worker.process.exitcode == 0


class TestDispatcherIntegration:
    def test_pooled_fleet_reuses_workers(self, tmp_path):
        config = FleetConfig(workers=2, timeout=20.0)
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([ProbeSpec(value=n) for n in range(12)])
        assert report.computed == 12 and report.ok
        assert report.dispatch_mode == "pooled"
        assert report.worker_recycles == 0

    def test_pool_recycle_counted_in_report(self, tmp_path):
        config = FleetConfig(
            workers=1, timeout=0.4, grace=0.3, max_attempts=2,
            backoff_base=0.0, backoff_cap=0.0,
        )
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([
            ProbeSpec(behavior="hang", hang_seconds=60.0, value=1),
            ProbeSpec(value=2),
        ])
        assert report.timeouts == 2  # two attempts, both killed
        assert report.worker_recycles == 2
        assert report.quarantined == 1 and report.computed == 1
        by_label = {o.label: o for o in report.outcomes}
        assert by_label["probe:ok/2"].ok  # ran on a recycled slot

    def test_pooled_and_inline_outcomes_are_identical(self, tmp_path):
        """Inline dispatch is the reference: on every cell that can run
        in-process, the pool must reach the same outcomes."""
        from repro.fleet.bench import outcome_signature

        specs = [
            ProbeSpec(value=1),
            ProbeSpec(behavior="flaky", succeed_after=2, value=2),
            ProbeSpec(behavior="fail", value=3),
        ]
        crash = ProbeSpec(behavior="crash", value=4)  # would kill inline
        reports = {}
        for workers, run_specs in ((2, specs + [crash]), (0, specs)):
            config = FleetConfig(
                workers=workers, timeout=20.0, max_attempts=2,
                backoff_base=0.0, backoff_cap=0.0,
            )
            fleet = Fleet(config, ResultCache(tmp_path / str(workers)))
            reports[workers] = fleet.run(run_specs)
        pooled, inline = reports[2], reports[0]
        assert (pooled.dispatch_mode, inline.dispatch_mode) == ("pooled", "inline")
        assert outcome_signature(
            pooled, exclude={crash.label()}
        ) == outcome_signature(inline)
        assert pooled.quarantined == 2  # fail and crash
        assert pooled.worker_recycles == 2  # one per crash attempt

    def test_per_job_trace_bundles_from_reused_workers(self, tmp_path):
        """A reused worker opens and closes a fresh TraceSession per job:
        every cell gets its own non-empty bundle."""
        import json

        trace_dir = tmp_path / "traces"
        config = FleetConfig(
            workers=1, timeout=20.0, trace_dir=str(trace_dir)
        )
        fleet = Fleet(config, ResultCache(tmp_path / "cache"))
        report = fleet.run([ProbeSpec(value=n) for n in range(3)])
        assert report.computed == 3
        bundles = sorted(trace_dir.glob("*.trace.json"))
        assert len(bundles) == 3
        for bundle in bundles:
            events = json.loads(bundle.read_text())["traceEvents"]
            assert events, f"empty trace bundle {bundle.name}"

