"""The fleet benchmark's gate: pooled dispatch against absolute bounds and
the inline reference."""

import copy

import pytest

from repro.fleet.bench import (
    MAX_P99_US,
    MIN_JOBS_PER_SECOND,
    SCHEMA,
    check_fleet_report,
    run_fleet_bench,
)


@pytest.fixture(scope="module")
def report():
    # 16 cells: the chaos campaign holds the real crash probe (value 13)
    # but not the hang probe (value 77), which keeps this fast.
    return run_fleet_bench(jobs=16, workers=2, chaos_timeout=1.0)


def _gate_ready(report):
    """The report with its speed figures pinned inside the bounds, so a
    test can break exactly one verdict."""
    fixed = copy.deepcopy(report)
    fixed["campaign"]["pooled"]["jobs_per_second"] = MIN_JOBS_PER_SECOND
    fixed["campaign"]["pooled"]["dispatch_overhead"]["p99_us"] = MAX_P99_US
    return fixed


def test_pooled_matches_the_inline_reference(report):
    assert report["schema"] == SCHEMA
    clean, chaos = report["campaign"]["inline_reference"], report["chaos"]["inline_reference"]
    assert clean == {
        "cells": 16, "outcomes_identical": True, "probes": [], "probes_quarantined": True,
    }
    assert chaos["cells"] == 15 and chaos["outcomes_identical"]
    assert chaos["probes"] == ["probe:crash/13"] and chaos["probes_quarantined"]
    assert report["chaos"]["pooled"]["worker_recycles"] == report["max_attempts"]
    assert check_fleet_report(_gate_ready(report)) == []


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("campaign", "pooled", "jobs_per_second"), MIN_JOBS_PER_SECOND - 0.1, "jobs/s"),
        (("campaign", "pooled", "dispatch_overhead", "p99_us"), MAX_P99_US + 0.1, "p99"),
        (("campaign", "inline_reference", "outcomes_identical"), False, "inline reference"),
        (("chaos", "inline_reference", "outcomes_identical"), False, "chaos: pooled outcomes"),
        (("chaos", "inline_reference", "probes_quarantined"), False, "not quarantined"),
        (("chaos", "pooled", "worker_recycles"), 4, "recycle"),
    ],
)
def test_each_broken_verdict_fails_the_gate(report, path, value, message):
    broken = _gate_ready(report)
    target = broken
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    (problem,) = check_fleet_report(broken)
    assert message in problem
