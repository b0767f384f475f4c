"""The numactl-style CLI."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestNumactl:
    def test_plain_run(self, capsys):
        code, out, _ = run(
            capsys, "numactl", "gups", "--footprint-mib", "16", "--accesses", "2000",
            "--sockets", "2",
        )
        assert code == 0
        assert "runtime_cycles=" in out
        assert "pgtablerepl=off" in out

    def test_pgtablerepl_flag(self, capsys):
        code, out, _ = run(
            capsys, "numactl", "gups", "-r", "0-1", "--sockets", "2",
            "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "pgtablerepl=[0, 1]" in out

    def test_remote_pt_is_slower_than_replicated(self, capsys):
        def runtime(*extra):
            _, out, _ = run(
                capsys, "numactl", "gups", "--sockets", "2", "--footprint-mib", "16",
                "--accesses", "3000", "--pt-node", "1", *extra,
            )
            return float(next(l for l in out.splitlines() if l.startswith("runtime")).split("=")[1])

        slow = runtime()
        fast = runtime("-r", "0")
        assert fast < slow

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["numactl", "nonsense"])

    def test_perf_flag(self, capsys):
        code, out, _ = run(
            capsys, "numactl", "gups", "--perf", "--sockets", "2",
            "--footprint-mib", "16", "--accesses", "1000",
        )
        assert code == 0
        assert "dtlb_misses.walk_duration" in out
        assert "page walker active for" in out


class TestScenario:
    def test_migration_scenario(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "migration", "gups", "RPI-LD",
            "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "config=RPI-LD" in out
        assert "s0=100%" in out

    def test_migration_with_mitosis(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "migration", "gups", "RPI-LD", "--mitosis",
            "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "config=RPI-LD+M" in out
        assert "s0=0%" in out

    def test_multisocket_scenario(self, capsys):
        code, out, _ = run(
            capsys, "scenario", "multisocket", "canneal", "F+M",
            "--footprint-mib", "16", "--accesses", "1000",
        )
        assert code == 0
        assert "config=F+M" in out

    def test_bad_config_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "scenario", "migration", "gups", "NOPE", "--footprint-mib", "16"
        )
        assert code == 2
        assert "unknown migration config" in err


class TestAnalysisCommands:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "dump", "memcached", "--footprint-mib", "16")
        assert code == 0
        assert "L4" in out and "Socket 3" in out

    def test_table4(self, capsys):
        code, out, _ = run(capsys, "table4")
        assert code == 0
        assert "1.231" in out and "16.00 TiB" in out


class TestChaos:
    def test_default_scenario_degrades_recovers_and_verifies(self, capsys):
        code, out, _ = run(capsys, "chaos", "--seed", "7")
        assert code == 0
        assert "enable degraded" in out
        assert "complete-mask" in out
        assert "degradations    : 1" in out
        assert "recoveries      : 1" in out
        assert "verifier: OK" in out

    @pytest.mark.parametrize(
        "scenario", ["replication-oom", "shootdown-storm", "swap-stall"]
    )
    def test_every_scenario_exits_clean(self, capsys, scenario):
        code, out, _ = run(capsys, "chaos", "--scenario", scenario, "--seed", "11")
        assert code == 0
        assert "verifier: OK" in out
        assert "faults injected" in out

    def test_same_seed_same_report(self, capsys):
        _, first, _ = run(capsys, "chaos", "--seed", "21")
        _, second, _ = run(capsys, "chaos", "--seed", "21")
        assert first == second

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "chaos", "--scenario", "split-brain")

    def test_pte_sanitizer_flag_reports_checked_stores(self, capsys):
        code, out, _ = run(capsys, "chaos", "--seed", "7", "--pte-sanitizer")
        assert code == 0
        assert "PTE sanitizer:" in out
        assert "0 bypass(es)" in out

    def test_json_flag_prints_structured_verdict(self, capsys):
        import json

        code, out, _ = run(capsys, "chaos", "--seed", "7", "--json")
        assert code == 0
        verdict = json.loads(out)
        assert verdict["schema"] == "repro-chaos-verdict/1"
        assert verdict["scenario"] == "replication-oom"
        assert verdict["seed"] == 7
        assert verdict["ok"] is True
        assert verdict["verify"]["ok"] is True
        assert verdict["faults_injected"] > 0
        assert verdict["recoveries"] >= 1
        assert isinstance(verdict["faults_by_site"], dict)

    def test_json_verdict_is_seed_deterministic(self, capsys):
        _, first, _ = run(capsys, "chaos", "--seed", "21", "--json")
        _, second, _ = run(capsys, "chaos", "--seed", "21", "--json")
        assert first == second

    def test_intensity_scales_the_fault_plan(self, capsys):
        import json

        def verdict(intensity):
            _, out, _ = run(
                capsys, "chaos", "--scenario", "shootdown-storm", "--seed", "11",
                "--intensity", intensity, "--json",
            )
            return json.loads(out)

        gentle, hostile = verdict("0.25"), verdict("4.0")
        assert gentle["intensity"] == 0.25 and hostile["intensity"] == 4.0
        assert hostile["faults_injected"] > gentle["faults_injected"]


class TestFleet:
    def test_campaign_inline_and_resume(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "fleet", "campaign", "--scenarios", "replication-oom",
            "--seeds", "0-2", "--workers", "0", "--cache-dir", cache_dir,
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "3 job(s)" in out and "3 computed" in out

        code, out, _ = run(capsys, *argv)  # resume: all hits
        assert code == 0
        assert "3 cached" in out and "0 computed" in out

    def test_campaign_json_report(self, capsys, tmp_path):
        import json

        code, out, _ = run(
            capsys, "fleet", "campaign", "--scenarios", "swap-stall",
            "--seeds", "5", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"), "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "repro-fleet-report/1"
        assert report["jobs"] == 1 and report["computed"] == 1
        assert report["chaos"]["cells"] == 1
        assert report["outcomes"][0]["payload"]["scenario"] == "swap-stall"

    def test_report_file_written(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "fleet.json"
        code, _, err = run(
            capsys, "fleet", "campaign", "--scenarios", "swap-stall",
            "--seeds", "1", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report_path),
        )
        assert code == 0
        assert "report written to" in err
        assert json.loads(report_path.read_text())["jobs"] == 1

    def test_injected_crashes_exercise_quarantine_exit_code(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fleet", "campaign", "--scenarios", "replication-oom",
            "--seeds", "0", "--workers", "0", "--max-attempts", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--inject-crash", "1.0",
        )
        assert code == 1  # the only cell is quarantined
        assert "1 quarantined" in out
        assert "reproduce: python -m repro.cli chaos" in out

    def test_sweep_mode_runs_scenario_cells(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "fleet", "sweep", "--workloads", "gups",
            "--configs", "F,F+M", "--seeds", "1234", "--workers", "0",
            "--accesses", "2000", "--footprint-mib", "16",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "2 job(s)" in out and "2 computed" in out

    def test_bad_seed_list_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fleet", "campaign", "--seeds", "banana",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2
        assert "error" in err

    def test_traced_fleet_exports_fleet_spans(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, _, _ = run(
            capsys, "trace", "--out", str(out_path),
            "fleet", "campaign", "--scenarios", "replication-oom",
            "--seeds", "3", "--workers", "0",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        names = [e["name"] for e in json.loads(out_path.read_text())["traceEvents"]]
        assert "fleet.run" in names
        assert "fleet-verdict" in names


class TestTrace:
    def test_traced_chaos_exports_chrome_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, out, _ = run(
            capsys, "trace", "--out", str(out_path), "chaos", "--seed", "7"
        )
        assert code == 0
        assert "verifier: OK" in out
        assert "trace written to" in out
        assert "trace summary:" in out
        document = json.loads(out_path.read_text())
        names = [e["name"] for e in document["traceEvents"]]
        assert "chaos.replication-oom" in names
        assert "fault" in names

    def test_jsonl_export(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "events.jsonl"
        code, _, _ = run(
            capsys, "trace", "--out", str(out_path), "--export", "jsonl",
            "chaos", "--seed", "7",
        )
        assert code == 0
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert any(r["name"] == "fault" for r in records)

    def test_no_summary_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "trace", "--out", str(tmp_path / "t.json"), "--no-summary",
            "chaos", "--seed", "7",
        )
        assert code == 0
        assert "trace summary:" not in out

    def test_session_uninstalled_after_run(self, capsys, tmp_path):
        from repro.trace import current_session

        run(capsys, "trace", "--out", str(tmp_path / "t.json"), "chaos", "--seed", "7")
        assert current_session() is None

    def test_traced_numactl_emits_walker_spans(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "numactl.json"
        code, out, _ = run(
            capsys, "trace", "--out", str(out_path), "numactl", "gups",
            "--sockets", "2", "--footprint-mib", "16", "--accesses", "2000",
        )
        assert code == 0
        assert "runtime_cycles=" in out
        document = json.loads(out_path.read_text())
        walks = [e for e in document["traceEvents"] if e["name"] == "walk"]
        assert walks
        assert all(e["ph"] == "X" for e in walks)

    def test_trace_requires_a_subcommand(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run(capsys, "trace", "--out", str(tmp_path / "t.json"))


class TestLint:
    def test_repo_is_clean_with_baseline(self, capsys):
        code, out, _ = run(capsys, "lint")
        assert code == 0
        assert "0 finding(s)" in out

    def test_violation_fails_the_run(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("frame.kind = FrameKind.PAGE_TABLE\n")
        code, out, _ = run(capsys, "lint", str(bad))
        assert code == 1
        assert "PVOPS002" in out

    def test_json_format(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        code, out, _ = run(capsys, "lint", str(bad), "--format", "json")
        assert code == 1
        document = json.loads(out)
        assert document["version"] == 1
        assert [f["rule"] for f in document["findings"]] == ["DET001"]

    def test_no_baseline_surfaces_grandfathered_findings(self, capsys):
        code, out, _ = run(capsys, "lint", "--no-baseline")
        assert code == 1
        assert "PVOPS002" in out

    def test_rule_subset(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\npage.entries[0] = 0\n")
        code, out, _ = run(capsys, "lint", str(bad), "--rules", "PROV001")
        assert code == 1
        assert "PROV001" in out and "DET001" not in out

    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lint", "--rules", "NOPE999")
        assert code == 2
        assert "unknown rule" in err

    def test_explain_prints_the_rule_contract(self, capsys):
        code, out, _ = run(capsys, "lint", "--explain", "DETFLOW001")
        assert code == 0
        assert out.startswith("DETFLOW001 (whole-program):")
        assert "Sanctioned wrappers" in out
        assert "# lint: allow[DETFLOW001]" in out

    def test_explain_covers_per_file_rules_too(self, capsys):
        code, out, _ = run(capsys, "lint", "--explain", "DET001")
        assert code == 0
        assert out.startswith("DET001 (per-file):")

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lint", "--explain", "NOPE999")
        assert code == 2
        assert "DETFLOW001" in err  # the message lists the vocabulary

    def test_stats_and_cache_warm_on_the_second_run(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text(
            "# dataflow: sink[determinism] -- replayed payload\n"
            "def record(payload):\n"
            "    return payload\n"
            "import os\n"
            "def emit():\n"
            "    return record({'pid': os.getpid()})\n"
        )
        cache = tmp_path / "cache"
        stats = tmp_path / "stats.json"
        args = (
            "lint", str(bad), "--whole-program", "--no-baseline",
            "--cache-dir", str(cache), "--stats", str(stats),
        )
        code, cold_out, _ = run(capsys, *args)
        assert code == 1 and "DETFLOW001" in cold_out
        cold = json.loads(stats.read_text())
        assert cold["summary_misses"] == 1 and cold["summary_hits"] == 0
        code, warm_out, _ = run(capsys, *args)
        assert code == 1 and warm_out == cold_out
        warm = json.loads(stats.read_text())
        assert warm["summary_hits"] == 1 and warm["summary_misses"] == 0

    def test_no_cache_disables_the_summary_cache(self, capsys, tmp_path):
        import json

        stats = tmp_path / "stats.json"
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        code, _, _ = run(
            capsys, "lint", str(bad), "--whole-program", "--no-baseline",
            "--no-cache", "--stats", str(stats),
        )
        assert code == 0
        document = json.loads(stats.read_text())
        assert document["cache_dir"] is None

    def test_json_report_carries_dataflow_stats(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        code, out, _ = run(
            capsys, "lint", str(bad), "--whole-program", "--no-baseline",
            "--no-cache", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["dataflow"]["modules"] == 1

    def test_write_baseline_round_trip(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("frame.kind = FrameKind.PAGE_TABLE\n")
        baseline = tmp_path / "baseline.json"
        code, _, err = run(
            capsys, "lint", str(bad), "--baseline", str(baseline), "--write-baseline"
        )
        assert code == 0 and baseline.exists()
        code, out, _ = run(capsys, "lint", str(bad), "--baseline", str(baseline))
        assert code == 0
        assert "1 baselined" in out


class TestPerfReportFile:
    """``perf --json`` prints the report instead of writing it: a file
    appears only when ``--out`` names one, so a reduced-scale run never
    overwrites the committed ``BENCH_*.json``."""

    ARGS = ("perf", "--accesses", "300", "--repeat", "1", "--scenario", "redis-faults")

    def test_json_writes_no_default_file(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *self.ARGS, "--json")
        assert code == 0
        assert json.loads(out)["scenarios"]["redis-faults"]["metrics_equal"]
        assert list(tmp_path.iterdir()) == []

    def test_json_with_out_writes_that_file(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *self.ARGS, "--json", "--out", "report.json")
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert json.loads((tmp_path / "report.json").read_text()) == json.loads(out)

    def test_table_mode_still_writes_default_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert "report written to BENCH_engine.json" in out
        assert (tmp_path / "BENCH_engine.json").is_file()

    def test_fleet_json_writes_no_default_file(self, capsys, tmp_path, monkeypatch):
        import json

        import repro.fleet.bench

        report = {"schema": "repro-bench-fleet/2"}
        monkeypatch.setattr(repro.fleet.bench, "run_fleet_bench", lambda **_: report)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "perf", "--fleet", "--json")
        assert code == 0
        assert json.loads(out) == report
        assert list(tmp_path.iterdir()) == []
