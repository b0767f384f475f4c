"""Tracing-off overhead: the <2% guarantee.

With no session installed, the *entire* per-walk cost of the tracing
layer inside the engine is one attribute load plus one ``is None``
branch (``_ThreadExecution.walk_one`` keeps two loop bodies; the
``round()``-formatted level dicts are only built on the traced side —
docs/observability.md). This bench pins that guarantee two ways:

* directly: time the exact disabled-path construct (load + branch) as
  many times as the run walks, and show it is <2% of the run's wall
  time;
* end-to-end: the same run under a live session must be measurably
  slower — proof the instrumentation really is behind the branch and
  not paid unconditionally.
"""

from __future__ import annotations

import time

from common import HOST_RESULTS_DIR, emit

from repro.sim.bench import SCENARIOS, _measure_once
from repro.sim.engine import Simulator

REPEAT = 3
ACCESSES = 6_000

#: memcached at the default TLB geometry walks on roughly half of its
#: accesses — the walk-heavy regime where per-walk overhead shows first.
SCENARIO = SCENARIOS["memcached-traced"]


def _run_untraced() -> tuple[float, object]:
    """One scalar-tier run of the scenario with no session installed."""
    setup, config = SCENARIO.build(ACCESSES)
    config.engine = "scalar"
    sim = Simulator(setup.kernel, config)
    sockets = [t.socket for t in setup.process.threads]
    started = time.perf_counter()
    metrics = sim.run(setup.process, setup.workload, sockets, setup.va_base)
    return time.perf_counter() - started, metrics


def _best(fn, *args):
    best, keep = float("inf"), None
    for _ in range(REPEAT):
        out = fn(*args)
        elapsed = out[0] if isinstance(out, tuple) else out
        if elapsed < best:
            best, keep = elapsed, out
    return best, keep


class _Ex:
    """Stand-in with the same disabled-path shape as _ThreadExecution."""

    __slots__ = ("session",)

    def __init__(self):
        self.session = None


def _branch_cost(walks: int) -> float:
    """Wall time of ``walks`` iterations of the disabled tracing check."""
    ex = _Ex()
    sink = 0
    started = time.perf_counter()
    for _ in range(walks):
        session = ex.session
        if session is None:
            sink += 1
    elapsed = time.perf_counter() - started
    assert sink == walks
    return elapsed


class TestTracingOverhead:
    def test_disabled_overhead_under_two_percent(self):
        best_off, (_, metrics) = _best(_run_untraced)
        walks = sum(t.tlb_walks for t in metrics.threads)
        assert walks > 1000, "scenario no longer walk-heavy; bench needs re-aiming"

        branch, _ = _best(_branch_cost, walks)
        overhead = branch / best_off
        emit(
            "tracing_overhead",
            f"untraced run      {best_off * 1e3:9.2f} ms  ({walks} walks)\n"
            f"disabled-path tax {branch * 1e6:9.1f} us total "
            f"({overhead * 100:.4f}% of the run)",
            HOST_RESULTS_DIR,
        )
        assert overhead < 0.02

    def test_enabled_tracing_is_behind_the_branch(self):
        best_on, _ = _best(_measure_once, SCENARIO, "scalar", ACCESSES)
        best_off, _ = _best(_run_untraced)
        emit(
            "tracing_on_vs_off",
            f"tracing off {best_off * 1e3:8.2f} ms\n"
            f"tracing on  {best_on * 1e3:8.2f} ms "
            f"({(best_on / best_off - 1) * 100:+.1f}%)",
            HOST_RESULTS_DIR,
        )
        # The traced run does strictly more work (span assembly, level
        # dicts, ring-buffer writes); if it ever stops being slower the
        # instrumentation has leaked out from behind the branch.
        assert best_on > best_off
