"""Fleet dispatch-throughput benchmark (``python -m repro.cli perf --fleet``).

The :mod:`repro.sim.bench` harness asks "how fast does one cell
simulate"; this one asks "how fast does the *fleet* move cells" — the
number that decides whether a 10k-cell ablation matrix takes minutes or
hours. It measures the warm-worker pool's campaign throughput (jobs/s)
and per-job dispatch overhead (p50/p99 settle latency) over a
many-small-jobs campaign of trivially cheap probe cells, where the job
body is ~free and *everything* measured is dispatcher + worker-lifecycle
cost.

Correctness is checked against the **inline reference**: the same
campaign dispatched with ``workers=0``, in-process, with no worker
lifecycle at all. Pooled and inline runs must produce identical fleet
outcomes — same per-cell statuses, attempts, verdicts and payloads:

* on the clean campaign, for every cell;
* on a chaos-hardened campaign — injected worker crashes and hangs (site
  ``fleet.worker.crash``) plus flaky probe cells — for every cell except
  one real ``crash`` and one real ``hang`` probe, which would kill or
  wedge an inline dispatcher. Those two must instead be quarantined
  after ``max_attempts`` attempts that all failed the same way (all
  ``[crash]`` / all ``[timeout]``), each attempt recycling its worker.

The injection rules are deliberately *order-independent* (they fire on
the cell's value and attempt number, never on call counts or plan RNG
draws), so the verdict is deterministic no matter how the pool
interleaves launches.

The report (``BENCH_fleet.json``, schema ``repro-bench-fleet/2``) gives
every future PR a dispatch-throughput trajectory; ``check_fleet_report``
is the CI gate (see :data:`MIN_JOBS_PER_SECOND` and :data:`MAX_P99_US`
for where its bounds come from).

Like :mod:`repro.sim.bench`, this module is a deliberate exception to
the DET001 wall-clock ban: throughput *is* wall-clock time, and nothing
here feeds back into simulated state.
"""

from __future__ import annotations

import math
import tempfile
import time

from repro.fleet.cache import ResultCache
from repro.fleet.dispatcher import Fleet, FleetConfig
from repro.fleet.jobs import ProbeSpec, canonical_json
from repro.fleet.pool import OUTCOME_CRASH, OUTCOME_TIMEOUT
from repro.fleet.report import STATUS_COMPUTED, STATUS_QUARANTINED, FleetReport
from repro.inject.plan import FaultPlan

SCHEMA = "repro-bench-fleet/2"

#: Gate floor on pooled clean-campaign throughput (jobs/s): half the
#: 678.2 jobs/s that the last ``repro-bench-fleet/1`` report measured
#: for the pool (240 jobs, 4 workers). The /1 gate demanded 1.5x the
#: fork-per-attempt mode, which measured 150.7-222.6 jobs/s at CI scale
#: (120 jobs, 2 workers, 2 vCPUs) — a floor of at most 334 jobs/s — so
#: this absolute floor is at least as strict.
MIN_JOBS_PER_SECOND = 339.0
#: Gate ceiling on pooled clean-campaign dispatch-overhead p99 (µs): the
#: pooled p99 of that same /1 report, 25,440.1 µs, rounded to 25.4 ms.
MAX_P99_US = 25_400.0

#: Cells whose value hits these residues (mod :data:`_INJECT_MOD`) get an
#: injected crash / hang on their first attempt — order-independent, so
#: pooled and inline dispatch inject identically.
_INJECT_MOD = 9
_CRASH_RESIDUE = 3
_HANG_RESIDUE = 6
#: Every 37th-ish cell is flaky (fails once, then succeeds).
_FLAKY_MOD = 37
#: One always-crashing and one always-hanging cell: deterministic
#: quarantines exercising the recycle path for real.
_CRASH_VALUE = 13
_HANG_VALUE = 77
#: Probe behaviours that take their worker down, and the attempt status
#: each produces.
_REAL_FAILURES = {"crash": OUTCOME_CRASH, "hang": OUTCOME_TIMEOUT}


def _probe_value(context: dict) -> int:
    """The cell value back out of a probe label (``probe:<behavior>/<n>``)."""
    return int(context["label"].rsplit("/", 1)[1])


def chaos_plan() -> FaultPlan:
    """Order-independent injection: fires on (value, attempt) only."""
    plan = FaultPlan(seed=0)
    plan.worker_crash(
        predicate=lambda ctx: ctx["attempt"] == 1
        and _probe_value(ctx) % _INJECT_MOD == _CRASH_RESIDUE
    )
    plan.worker_crash(
        hang=True,
        predicate=lambda ctx: ctx["attempt"] == 1
        and _probe_value(ctx) % _INJECT_MOD == _HANG_RESIDUE,
    )
    return plan


def campaign_specs(jobs: int) -> list[ProbeSpec]:
    """The many-small-jobs campaign: ``jobs`` trivially cheap ok-cells."""
    return [ProbeSpec(value=n) for n in range(jobs)]


def chaos_specs(jobs: int) -> list[ProbeSpec]:
    """The chaos campaign: mostly ok-cells plus deterministic trouble."""
    specs: list[ProbeSpec] = []
    for n in range(jobs):
        if n == _CRASH_VALUE:
            specs.append(ProbeSpec(behavior="crash", value=n))
        elif n == _HANG_VALUE:
            specs.append(ProbeSpec(behavior="hang", hang_seconds=60.0, value=n))
        elif n % _FLAKY_MOD == 5:
            specs.append(ProbeSpec(behavior="flaky", succeed_after=2, value=n))
        else:
            specs.append(ProbeSpec(value=n))
    return specs


def _real_failure_probes(specs: list[ProbeSpec]) -> dict[str, str]:
    """Labels of the cells that really crash or hang their worker (and so
    cannot run inline), mapped to the status each attempt must fail with."""
    return {
        spec.label(): _REAL_FAILURES[spec.behavior]
        for spec in specs
        if spec.behavior in _REAL_FAILURES
    }


def outcome_signature(report: FleetReport, exclude=frozenset()) -> list[tuple]:
    """The dispatch-independent fingerprint of a run: every cell's
    label, terminal status, attempt count, verdict and payload (cells
    labelled in ``exclude`` left out). Two dispatches are *equivalent*
    iff their signatures match."""
    return sorted(
        (o.label, o.status, o.attempts, o.ok, canonical_json(o.payload or {}))
        for o in report.outcomes
        if o.label not in exclude
    )


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sample list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _dispatch(
    specs: list[ProbeSpec], workers: int, timeout: float, chaos: bool
) -> tuple[FleetReport, float]:
    """One campaign against a throwaway cache; the report and wall time."""
    config = FleetConfig(
        workers=workers,
        timeout=timeout,
        # Retries should requeue immediately: backoff waits would measure
        # the backoff schedule, not dispatch cost.
        backoff_base=0.0,
        backoff_cap=0.0,
        fault_plan=chaos_plan() if chaos else None,
    )
    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as cache_dir:
        fleet = Fleet(config, ResultCache(cache_dir))
        start = time.perf_counter()  # lint: allow[DET001] -- wall-clock throughput is the measurement
        report = fleet.run(specs)
        elapsed = time.perf_counter() - start  # lint: allow[DET001] -- ditto
    return report, elapsed


def _pooled_stats(report: FleetReport, elapsed: float) -> dict:
    settle_us = sorted(
        o.seconds * 1e6 for o in report.outcomes if o.status == STATUS_COMPUTED
    )
    return {
        "wall_seconds": round(elapsed, 6),
        "jobs_per_second": round(report.jobs / elapsed, 1),
        "dispatch_overhead": {
            "p50_us": round(_percentile(settle_us, 50.0), 1),
            "p99_us": round(_percentile(settle_us, 99.0), 1),
        },
        "computed": report.computed,
        "cached": report.cached,
        "quarantined": report.quarantined,
        "retries": report.retries,
        "timeouts": report.timeouts,
        "crashes": report.crashes,
        "errors": report.errors,
        "injected_crashes": report.injected_crashes,
        "injected_hangs": report.injected_hangs,
        "worker_recycles": report.worker_recycles,
    }


def _probes_quarantined(
    report: FleetReport, probes: dict[str, str], max_attempts: int
) -> bool:
    """Every real crash/hang probe ended quarantined after
    ``max_attempts`` attempts, each of which failed with its status."""
    by_label = {o.label: o for o in report.outcomes}
    for label, status in probes.items():
        outcome = by_label.get(label)
        if (
            outcome is None
            or outcome.status != STATUS_QUARANTINED
            or outcome.attempts != max_attempts
            or len(outcome.failures) != max_attempts
            or not all(f"[{status}]" in failure for failure in outcome.failures)
        ):
            return False
    return True


def _campaign(
    specs: list[ProbeSpec], workers: int, timeout: float, chaos: bool
) -> dict:
    """The pool over one campaign, checked against the inline reference
    (which skips the cells that would take an inline dispatcher down)."""
    probes = _real_failure_probes(specs)
    pooled, elapsed = _dispatch(specs, workers, timeout, chaos)
    inline, _ = _dispatch(
        [spec for spec in specs if spec.label() not in probes], 0, timeout, chaos
    )
    return {
        "jobs": len(specs),
        "pooled": _pooled_stats(pooled, elapsed),
        "inline_reference": {
            "cells": inline.jobs,
            "outcomes_identical": outcome_signature(pooled, exclude=probes)
            == outcome_signature(inline),
            "probes": sorted(probes),
            "probes_quarantined": _probes_quarantined(
                pooled, probes, FleetConfig.max_attempts
            ),
        },
    }


def run_fleet_bench(
    jobs: int = 240,
    workers: int = 4,
    timeout: float = 30.0,
    chaos_timeout: float = 1.0,
) -> dict:
    """Run both campaigns and return the ``repro-bench-fleet/2`` report.

    ``chaos_timeout`` is the per-attempt budget of the chaos campaign —
    small, because its always-hanging cell must be killed (and its worker
    recycled) ``max_attempts`` times.
    """
    return {
        "schema": SCHEMA,
        "jobs": jobs,
        "workers": workers,
        "max_attempts": FleetConfig.max_attempts,
        "campaign": _campaign(campaign_specs(jobs), workers, timeout, chaos=False),
        "chaos": _campaign(chaos_specs(jobs), workers, chaos_timeout, chaos=True),
    }


def check_fleet_report(report: dict) -> list[str]:
    """Regression verdicts for ``--check`` / CI: pooled clean-campaign
    throughput and dispatch-overhead p99 within the committed bounds and,
    in both campaigns, pooled outcomes equal to the inline reference and
    every real crash/hang probe quarantined with exactly one worker
    recycle per attempt."""
    problems = []
    campaign = report["campaign"]
    pooled = campaign["pooled"]
    if pooled["jobs_per_second"] < MIN_JOBS_PER_SECOND:
        problems.append(
            f"campaign: pooled dispatch only {pooled['jobs_per_second']:g} jobs/s "
            f"(floor {MIN_JOBS_PER_SECOND:g})"
        )
    p99 = pooled["dispatch_overhead"]["p99_us"]
    if p99 > MAX_P99_US:
        problems.append(
            f"campaign: pooled dispatch-overhead p99 {p99:g} us "
            f"(ceiling {MAX_P99_US:g})"
        )
    for name in ("campaign", "chaos"):
        section = report[name]
        reference = section["inline_reference"]
        if not reference["outcomes_identical"]:
            problems.append(f"{name}: pooled outcomes differ from the inline reference")
        if not reference["probes_quarantined"]:
            problems.append(
                f"{name}: real crash/hang probes {reference['probes']} not "
                f"quarantined after {report['max_attempts']} same-status failures"
            )
        recycles = section["pooled"]["worker_recycles"]
        expected = len(reference["probes"]) * report["max_attempts"]
        if recycles != expected:
            problems.append(
                f"{name}: {recycles} worker recycle(s), expected {expected} "
                "(one per real crash/hang probe attempt)"
            )
    return problems
