"""The interprocedural dataflow engine: taint propagation, summaries,
resource lifecycles, and the incremental summary cache
(:mod:`repro.lint.dataflow`)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.callgraph import build_index
from repro.lint.core import parse_source
from repro.lint.dataflow import (
    IR_SCHEMA,
    ProjectDataflow,
    SummaryCache,
    abi_digest,
    default_cache_dir,
)

SINK = (
    "# dataflow: sink[determinism] -- replayed payload: same seed, same bytes\n"
    "def record(payload):\n"
    "    return payload\n"
)


def _index(*sources: str):
    modules = [
        parse_source(
            textwrap.dedent(src), path=f"src/mod{i}.py", module=f"mod{i}"
        )
        for i, src in enumerate(sources)
    ]
    return build_index(modules)


def _analyze(*sources: str, cache_dir: Path | None = None) -> ProjectDataflow:
    return ProjectDataflow(_index(*sources), cache_dir=cache_dir)


def _with_sink(body: str) -> str:
    return SINK + textwrap.dedent(body)


def _rules_fired(analysis: ProjectDataflow) -> set[str]:
    return {rule for rule, found in analysis.findings.items() if found}


class TestDeterminismTaint:
    def test_direct_flow_into_sink_is_flagged_at_the_source(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                def emit():
                    stamp = time.time()
                    return record({"stamp": stamp})
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert "time.time()" in finding.message
        assert finding.context == "stamp = time.time()"

    def test_taint_crosses_function_returns(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                def moment():
                    return time.time()

                def emit():
                    return record({"stamp": moment()})
                """
            )
        )
        assert len(analysis.findings["DETFLOW001"]) == 1

    def test_sink_reached_through_a_forwarding_helper(self):
        """Transitive sink params: a helper that forwards its argument to
        a marked sink is itself a sink for that argument."""
        analysis = _analyze(
            _with_sink(
                """
                import os

                def forward(value):
                    return record({"value": value})

                def emit():
                    return forward(os.getpid())

                def emit_ok():
                    return forward(42)
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert "os.getpid()" in finding.message

    def test_sanitizer_wrapper_kills_the_taint(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                # dataflow: sanitizes[nondet] -- virtual time, pure function of ticks
                def virtual_now():
                    return time.time()

                def emit():
                    return record({"stamp": virtual_now()})
                """
            )
        )
        assert analysis.findings["DETFLOW001"] == []

    def test_source_marker_injects_taint_into_an_opaque_wrapper(self):
        analysis = _analyze(
            _with_sink(
                """
                # dataflow: source[nondet] -- reads the host's wall clock
                def host_clock():
                    return 0.0

                def emit():
                    return record({"stamp": host_clock()})
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert finding.rule == "DETFLOW001"

    def test_tainted_attribute_read_by_a_marked_to_dict(self):
        analysis = _analyze(
            """
            import time

            class Report:
                def __init__(self):
                    self.stamp = time.time()

                # dataflow: sink[determinism] -- cached payload, same bytes
                def to_dict(self):
                    return {"stamp": self.stamp}
            """
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert finding.context == "self.stamp = time.time()"

    def test_sorted_and_set_pass_nondet_taint_through(self):
        analysis = _analyze(
            _with_sink(
                """
                import time

                def emit():
                    stamps = frozenset({time.time()})
                    return record({"stamps": sorted(set(stamps))})
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert finding.context == "stamps = frozenset({time.time()})"

    def test_taint_without_a_sink_is_not_a_finding(self):
        analysis = _analyze(
            """
            import time

            def local_only():
                return time.time()
            """
        )
        assert _rules_fired(analysis) == set()

    def test_mutual_recursion_converges(self):
        """The summary fixpoint terminates and still sees the flow through
        a recursive cycle."""
        analysis = _analyze(
            _with_sink(
                """
                import time

                def ping(depth):
                    if depth <= 0:
                        return time.time()
                    return pong(depth - 1)

                def pong(depth):
                    return ping(depth)

                def emit():
                    return record({"stamp": ping(3)})
                """
            )
        )
        assert len(analysis.findings["DETFLOW001"]) == 1

    def test_attribute_read_is_revisited_after_a_later_writer(self):
        """``Clock.a_read`` sorts before ``Clock.z_write``, so its first
        visit sees no taint on ``stamp``; the writer -> reader edge must
        bring it back once ``z_write`` taints the attribute."""
        analysis = _analyze(
            _with_sink(
                """
                import time

                class Clock:
                    def a_read(self):
                        return self.stamp

                    def z_write(self):
                        self.stamp = time.time()

                def emit(clock: Clock):
                    return record(clock.a_read())
                """
            )
        )
        (finding,) = analysis.findings["DETFLOW001"]
        assert finding.context == "self.stamp = time.time()"

    def test_sink_description_does_not_depend_on_call_order(self):
        """``a_forward`` reaches two sinks; whichever it calls first, the
        shortest description wins. Through ``b_short`` (solved after
        ``a_forward``'s first visit) the shorter description arrives late
        and must still propagate up to ``c_outer``."""

        def analyze(first: str, second: str) -> str:
            analysis = _analyze(
                f"""
                import time

                # dataflow: sink[determinism] -- replayed payload
                def zz_record_payload(payload):
                    return payload

                # dataflow: sink[determinism] -- replayed payload
                def rec(payload):
                    return payload

                def b_short(value):
                    rec(value)

                def a_forward(value):
                    {first}(value)
                    {second}(value)

                def c_outer(value):
                    a_forward(value)

                def emit():
                    c_outer(time.time())
                """
            )
            (finding,) = analysis.findings["DETFLOW001"]
            return finding.message

        for short in ("rec", "b_short"):
            long_first = analyze("zz_record_payload", short)
            short_first = analyze(short, "zz_record_payload")
            assert long_first == short_first
            assert "determinism sink mod0:rec()" in long_first


class TestResourceLifecycles:
    def test_unclosed_file_handle_is_flagged(self):
        analysis = _analyze(
            """
            def read_broken(path):
                handle = open(path)
                data = handle.read()
                return data
            """
        )
        assert len(analysis.findings["RES001"]) == 1

    def test_with_block_and_close_are_both_clean(self):
        analysis = _analyze(
            """
            def read_with(path):
                with open(path) as handle:
                    return handle.read()

            def read_close(path):
                handle = open(path)
                try:
                    return handle.read()
                finally:
                    handle.close()
            """
        )
        assert analysis.findings["RES001"] == []

    def test_handle_returned_to_the_caller_transfers_ownership(self):
        analysis = _analyze(
            """
            def acquire(path):
                handle = open(path)
                return handle
            """
        )
        assert analysis.findings["RES001"] == []

    def test_release_through_a_resolved_callee_counts(self):
        analysis = _analyze(
            """
            def shutdown(handle):
                handle.close()

            def use(path):
                handle = open(path)
                try:
                    data = handle.read()
                finally:
                    shutdown(handle)
                return data
            """
        )
        assert analysis.findings["RES001"] == []

    def test_terminate_without_join_is_flagged(self):
        analysis = _analyze(
            """
            import multiprocessing as mp

            class Worker:
                def __init__(self, target):
                    self.proc = mp.Process(target=target)

                def stop_broken(self):
                    self.proc.terminate()

                def stop_ok(self):
                    self.proc.terminate()
                    self.proc.join()
            """
        )
        (finding,) = analysis.findings["RES001"]
        assert "join" in finding.message
        assert "terminate" in finding.message


class TestSummaryCache:
    SRC = SINK + (
        "import time\n"
        "def emit():\n"
        "    return record({'stamp': time.time()})\n"
    )

    def test_cold_then_warm_run_is_bit_identical(self, tmp_path):
        cold = _analyze(self.SRC, cache_dir=tmp_path)
        assert cold.stats["summary_misses"] == 1
        assert cold.stats["summary_hits"] == 0
        warm = _analyze(self.SRC, cache_dir=tmp_path)
        assert warm.stats["summary_hits"] == 1
        assert warm.stats["summary_misses"] == 0
        assert [f.fingerprint() for f in warm.findings["DETFLOW001"]] == [
            f.fingerprint() for f in cold.findings["DETFLOW001"]
        ]

    def test_editing_one_module_misses_only_that_module(self, tmp_path):
        other = "def untouched():\n    return 1\n"
        _analyze(self.SRC, other, cache_dir=tmp_path)
        warm = _analyze(self.SRC, other + "# changed\n", cache_dir=tmp_path)
        assert warm.stats["summary_hits"] == 1
        assert warm.stats["summary_misses"] == 1

    def test_corrupt_entry_reads_as_a_miss_and_is_rewritten(self, tmp_path):
        _analyze(self.SRC, cache_dir=tmp_path)
        (entry_path,) = tmp_path.glob("*.json")
        entry = json.loads(entry_path.read_text())
        entry["module"] = "tampered"
        entry_path.write_text(json.dumps(entry))
        rerun = _analyze(self.SRC, cache_dir=tmp_path)
        assert rerun.stats["summary_misses"] == 1
        assert len(rerun.findings["DETFLOW001"]) == 1
        # ...and the rewritten entry checksums clean again.
        assert _analyze(self.SRC, cache_dir=tmp_path).stats["summary_hits"] == 1

    def test_abi_change_invalidates_entries(self, tmp_path):
        index = _index(self.SRC)
        key = "0" * 64
        cache = SummaryCache(tmp_path)
        cache.put(
            key, {"schema": "repro-lint-dataflow/1", "abi": "old", "functions": []}
        )
        assert cache.get(key, abi_digest(index)) is None
        assert cache.misses == 1

    def test_entry_from_an_older_schema_is_a_miss(self, tmp_path):
        _analyze(self.SRC, cache_dir=tmp_path)
        (entry_path,) = tmp_path.glob("*.json")
        entry = json.loads(entry_path.read_text())
        assert entry["schema"] == IR_SCHEMA == "repro-lint-dataflow/3"
        # Re-publish the same entry, validly checksummed, under schema /2.
        del entry["checksum"]
        entry["schema"] = "repro-lint-dataflow/2"
        key = entry_path.stem
        SummaryCache(tmp_path).put(key, entry)
        cache = SummaryCache(tmp_path)
        assert cache.get(key, entry["abi"]) is None
        assert cache.misses == 1 and cache.hits == 0
        rerun = _analyze(self.SRC, cache_dir=tmp_path)
        assert rerun.stats["summary_misses"] == 1
        assert len(rerun.findings["DETFLOW001"]) == 1

    def test_publication_is_atomic_and_sweeps_tmps(self, tmp_path):
        cache = SummaryCache(tmp_path)
        key = "a" * 64
        stale = tmp_path / f"{key}.tmp.99999"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text("torn half-write")
        cache.put(
            key, {"schema": "repro-lint-dataflow/1", "abi": "x", "functions": []}
        )
        assert not list(tmp_path.glob("*.tmp.*"))
        assert (tmp_path / f"{key}.json").exists()

    def test_default_cache_dir_prefers_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv("REPRO_LINT_CACHE_DIR")
        repo = tmp_path / "repo" / "pkg"
        repo.mkdir(parents=True)
        (tmp_path / "repo" / "pyproject.toml").write_text("")
        assert default_cache_dir(repo) == tmp_path / "repo" / ".lint-cache"

