"""Engine throughput: the vector tier vs the scalar reference.

Runs the ``repro.sim.bench`` harness (the same one behind ``python -m
repro.cli perf``) at bench scale and asserts the two headline claims:
the vector tier wins on the fast-path-heavy GUPS scenario, and both
tiers produce bit-identical metrics everywhere, escape-heavy scenarios
included.
"""

from __future__ import annotations

import json

from common import BASE_ACCESSES, HOST_RESULTS_DIR, SCALE, emit

from repro.sim.bench import GATE_SCENARIO, check_report, run_bench


class TestEngineThroughput:
    def test_vector_beats_scalar_on_gups_and_metrics_match(self):
        report = run_bench(accesses=BASE_ACCESSES * SCALE, repeat=2)
        lines = []
        for name, result in report["scenarios"].items():
            engines = result["engines"]
            lines.append(
                f"{name:>18}  scalar {engines['scalar']['accesses_per_second']:>12,.0f} acc/s"
                f"  vector {engines['vector']['accesses_per_second']:>12,.0f} acc/s"
                f"  speedup {result['speedup']:.2f}x"
                f"  metrics_equal={result['metrics_equal']}"
            )
        emit("engine_throughput", "\n".join(lines), HOST_RESULTS_DIR)
        emit(
            "engine_throughput_report",
            json.dumps(report, indent=2),
            HOST_RESULTS_DIR,
        )

        for name, result in report["scenarios"].items():
            assert result["metrics_equal"], f"{name}: engines disagree on metrics"
        assert report["scenarios"][GATE_SCENARIO]["speedup"] > 1.0
        assert check_report(report) == []
