"""The dataflow rules fire on their seeded fixtures — and on the real
fleet code when a real discipline is broken.

Same contract as ``test_rules_protocol.py``: each fixture pairs the
seeded violation with a correct twin, so the rule must fire exactly once
and the conforming code next to it must stay clean. The regression half
mutates pristine copies of the fleet worker pool and result cache and
asserts the rules catch the exact disciplines those modules document.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _findings(path, rule):
    result = lint_paths([path], whole_program=True)
    return [f for f in result.findings if f.rule == rule]


class TestFixturesFire:
    def test_detflow001_pid_taints_the_job_key(self):
        found = _findings(FIXTURES / "detflow_tainted_job_key.py", "DETFLOW001")
        assert len(found) == 1  # keyed_submit_ok must stay clean
        assert "os.getpid()" in found[0].message
        assert "job_key" in found[0].message
        # The finding anchors at the *source*, where the fix goes.
        assert found[0].context == (
            "stamp = os.getpid()  # BUG: process identity re-keys the "
            "cell every run"
        )

    def test_res001_pipe_end_leaks_on_the_raise_edge(self):
        found = _findings(FIXTURES / "res_leaked_pipe.py", "RES001")
        assert len(found) == 1  # connect_ok must stay clean
        assert "send" in found[0].message
        assert "raise" in found[0].message

    def test_res002_tmp_file_neither_published_nor_removed(self):
        found = _findings(FIXTURES / "res_unreleased_tmp.py", "RES002")
        assert len(found) == 1  # publish_ok must stay clean
        assert "tmp" in found[0].message

    def test_suppression_covers_a_dataflow_finding(self, tmp_path):
        source = (FIXTURES / "detflow_tainted_job_key.py").read_text()
        target = "    stamp = os.getpid()"
        assert target in source
        suppressed = source.replace(
            target,
            "    # lint: allow[DETFLOW001] -- fixture: suppression round-trip\n"
            + target,
        )
        module = tmp_path / "suppressed.py"
        module.write_text(suppressed)
        result = lint_paths([module], whole_program=True)
        assert result.findings == []  # suppressed, and no LINT000 either


class TestRealCodeRegression:
    """Acceptance criteria: the pristine fleet modules are clean, and
    deleting the exact discipline each one documents is caught."""

    JOIN_AFTER_TERMINATE = (
        "        self.process.terminate()\n"
        "        self.process.join(timeout=self.grace)\n"
    )
    ATOMIC_PUBLISH = "        os.replace(tmp, path)\n"

    def test_pristine_pool_is_clean(self, tmp_path):
        copy = tmp_path / "pool.py"
        copy.write_text((SRC / "fleet" / "pool.py").read_text())
        result = lint_paths([copy], whole_program=True)
        assert result.findings == []

    def test_dejoined_terminate_is_caught(self, tmp_path):
        source = (SRC / "fleet" / "pool.py").read_text()
        assert self.JOIN_AFTER_TERMINATE in source  # PoolWorker._stop_process
        broken = source.replace(
            self.JOIN_AFTER_TERMINATE, "        self.process.terminate()\n"
        )
        copy = tmp_path / "pool.py"
        copy.write_text(broken)
        found = _findings(copy, "RES001")
        assert len(found) == 1
        assert "terminate" in found[0].message
        assert "join" in found[0].message

    def test_pristine_result_cache_is_clean(self, tmp_path):
        copy = tmp_path / "cache.py"
        copy.write_text((SRC / "fleet" / "cache.py").read_text())
        result = lint_paths([copy], whole_program=True)
        assert result.findings == []

    def test_unpublished_tmp_write_is_caught(self, tmp_path):
        source = (SRC / "fleet" / "cache.py").read_text()
        assert self.ATOMIC_PUBLISH in source
        broken = source.replace(self.ATOMIC_PUBLISH, "")
        copy = tmp_path / "cache.py"
        copy.write_text(broken)
        found = _findings(copy, "RES002")
        assert len(found) == 1
        assert "tmp" in found[0].message


class TestAnnotatedRepoIsClean:
    """The shipped tree, with its sinks and sanitizers annotated, proves
    out: no dataflow findings anywhere in ``src/repro``."""

    def test_whole_tree_has_no_dataflow_findings(self):
        result = lint_paths([SRC], whole_program=True)
        dataflow = [
            f
            for f in result.findings
            if f.rule in ("DETFLOW001", "RES001", "RES002")
        ]
        assert dataflow == []
