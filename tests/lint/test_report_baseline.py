"""Reporter golden output and baseline round-trip/filtering."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import (
    filter_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
    write_baseline,
)

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

FIXTURE = (
    "import random\n"
    "seed, page = random.random(), PageTablePage(frame, 1)\n"
)


def _result():
    return lint_source(FIXTURE, path="src/repro/fixture.py", module="repro.fixture")


class TestTextReport:
    def test_golden_output(self):
        text = render_text(_result())
        assert text == (
            "src/repro/fixture.py:2:13: DET001 random.random() uses global, "
            "unseeded state; use an explicitly seeded generator owned by the caller\n"
            "src/repro/fixture.py:2:30: PVOPS002 PageTablePage constructed "
            "outside alloc_table; table pages must be created by a PagingOps "
            "backend (or the replication machinery) from PageTablePageCache "
            "frames\n"
            "2 finding(s) in 1 file(s) [DET001: 1, PVOPS002: 1]"
        )

    def test_baselined_count_shown(self):
        result = _result()
        text = render_text(result, new_findings=result.findings[:1])
        assert "1 finding(s) in 1 file(s), 1 baselined [DET001: 1]" in text


class TestJsonReport:
    def test_document_shape(self):
        result = _result()
        document = json.loads(render_json(result))
        assert document["version"] == 1
        assert document["files_checked"] == 1
        assert document["summary"] == {"total": 2, "new": 2, "baselined": 0}
        rules = [f["rule"] for f in document["findings"]]
        assert rules == ["DET001", "PVOPS002"]
        first = document["findings"][0]
        assert first["path"] == "src/repro/fixture.py"
        assert first["line"] == 2
        assert first["new"] is True
        assert first["context"] == (
            "seed, page = random.random(), PageTablePage(frame, 1)"
        )

    def test_baselined_findings_marked_not_new(self):
        result = _result()
        document = json.loads(render_json(result, new_findings=[]))
        assert document["summary"] == {"total": 2, "new": 0, "baselined": 2}
        assert all(f["new"] is False for f in document["findings"])


class TestSarifReport:
    def test_document_shape(self):
        result = _result()
        document = json.loads(render_sarif(result))
        assert document["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in document["$schema"]
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert "DET001" in rule_ids and "PVOPS002" in rule_ids
        assert len(run["results"]) == 2
        first = run["results"][0]
        assert first["ruleId"] == "DET001"
        assert first["level"] == "error"
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/fixture.py"
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] == 14  # SARIF is 1-based
        assert "repro/v1" in first["partialFingerprints"]

    def test_baseline_state_marks_new_vs_unchanged(self):
        result = _result()
        document = json.loads(render_sarif(result, new_findings=result.findings[:1]))
        states = [r["baselineState"] for r in document["runs"][0]["results"]]
        assert states == ["new", "unchanged"]

    def test_whole_program_rules_carry_descriptions(self):
        result = lint_paths(
            [FIXTURES_DIR / "tlbgen_missing_bump.py"], whole_program=True
        )
        document = json.loads(render_sarif(result))
        driver = document["runs"][0]["tool"]["driver"]
        by_id = {r["id"]: r for r in driver["rules"]}
        assert "TLBGEN001" in by_id
        assert "generation" in by_id["TLBGEN001"]["shortDescription"]["text"]


class TestBaseline:
    def test_round_trip_filters_everything(self, tmp_path):
        result = _result()
        path = tmp_path / "baseline.json"
        write_baseline(result.findings, path)
        baseline = load_baseline(path)
        assert filter_baseline(result.findings, baseline) == []

    def test_new_finding_survives_filtering(self, tmp_path):
        result = _result()
        path = tmp_path / "baseline.json"
        write_baseline(result.findings[:1], path)
        new = filter_baseline(result.findings, load_baseline(path))
        assert [f.rule for f in new] == ["PVOPS002"]

    def test_count_respected(self, tmp_path):
        # One baselined occurrence does not absolve a second identical one.
        doubled = lint_source(
            "frame.kind = FrameKind.PAGE_TABLE\n" * 2,
            path="src/repro/fixture.py",
            module="repro.fixture",
        )
        path = tmp_path / "baseline.json"
        write_baseline(doubled.findings[:1], path)
        new = filter_baseline(doubled.findings, load_baseline(path))
        assert len(new) == 1

    def test_fingerprint_survives_line_drift(self, tmp_path):
        result = _result()
        path = tmp_path / "baseline.json"
        write_baseline(result.findings, path)
        drifted = lint_source(
            "\n\n\n" + FIXTURE, path="src/repro/fixture.py", module="repro.fixture"
        )
        assert filter_baseline(drifted.findings, load_baseline(path)) == []

    def test_dataflow_fingerprint_survives_line_drift(self, tmp_path):
        """A baselined DETFLOW finding keeps matching after code above it
        moves: the fingerprint hangs off (rule, path, context), never the
        line number, and a dataflow finding's context is the *source*
        line, which the drift does not touch."""
        from repro.lint import clear_parse_cache

        source = (FIXTURES_DIR / "detflow_tainted_job_key.py").read_text()
        module = tmp_path / "drift.py"
        module.write_text(source)
        result = lint_paths([module], whole_program=True)
        assert [f.rule for f in result.findings] == ["DETFLOW001"]
        path = tmp_path / "baseline.json"
        write_baseline(result.findings, path)

        clear_parse_cache()
        module.write_text("\n\n\n" + source)
        drifted = lint_paths([module], whole_program=True)
        assert [f.rule for f in drifted.findings] == ["DETFLOW001"]
        assert drifted.findings[0].line == result.findings[0].line + 3
        assert filter_baseline(drifted.findings, load_baseline(path)) == []

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        try:
            load_baseline(path)
        except ValueError as exc:
            assert "version" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_whole_program_findings_round_trip(self, tmp_path):
        """Baselining works for the call-graph rules too: a baselined
        TLBGEN/SHOOT/SPAN/PROV finding filters to nothing, and a fresh
        violation still surfaces against that baseline."""
        result = lint_paths([FIXTURES_DIR], whole_program=True)
        assert {f.rule for f in result.findings} >= {"TLBGEN001", "SHOOT001"}
        path = tmp_path / "baseline.json"
        write_baseline(result.findings, path)
        assert filter_baseline(result.findings, load_baseline(path)) == []
        # Drop one entry: exactly that finding resurfaces as new.
        partial = [f for f in result.findings if f.rule != "SHOOT001"]
        write_baseline(partial, path)
        new = filter_baseline(result.findings, load_baseline(path))
        assert [f.rule for f in new] == ["SHOOT001"]


class TestCliStrictMode:
    """``--no-baseline`` means every finding counts — the seeded fixtures
    must fail the whole-program CLI run (exit 1) and appear in the SARIF
    output; the pristine source tree must pass it clean."""

    def _lint(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def test_seeded_fixtures_fail_strict_whole_program_run(self):
        proc = self._lint(
            str(FIXTURES_DIR), "--whole-program", "--no-baseline"
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        for rule in (
            "TLBGEN001", "TLBGEN002", "SHOOT001", "PROV001", "SPAN001",
            "DETFLOW001", "RES001", "RES002",
        ):
            assert rule in proc.stdout

    def test_seeded_fixtures_render_as_sarif(self):
        proc = self._lint(
            str(FIXTURES_DIR),
            "--whole-program",
            "--no-baseline",
            "--format",
            "sarif",
        )
        assert proc.returncode == 1
        document = json.loads(proc.stdout)
        states = {
            r["baselineState"] for r in document["runs"][0]["results"]
        }
        assert states == {"new"}

    def test_package_passes_baselined_whole_program_run(self):
        proc = self._lint("--whole-program")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_rule_name_is_a_usage_error(self):
        proc = self._lint("--rules", "NOPE999")
        assert proc.returncode == 2
        assert "TLBGEN001" in proc.stderr  # the message lists both vocabularies
