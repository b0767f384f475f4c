"""The concurrency & process-lifecycle rules fire on their seeded
fixtures — and on the real fleet code when a real invariant is broken.

Same contract as ``test_rules_protocol``: every fixture pairs the seeded
violation with a correct twin of the same shape, so each test pins both
halves — the rule fires exactly where seeded, and the conforming code
next to it stays clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
POOL_SOURCE = SRC / "fleet" / "pool.py"
DISPATCHER_SOURCE = SRC / "fleet" / "dispatcher.py"


def _findings(path, rule):
    result = lint_paths([path], whole_program=True)
    return [f for f in result.findings if f.rule == rule]


def _def_line(source: str, name: str) -> int:
    return source.splitlines().index(f"def {name}(conn: Connection) -> None:") + 1


#: The rules that guard the fleet's processes and pipes.
CONCURRENCY_RULES = {"FORK001", "FORK002", "SIG001", "PIPE001", "PIPE002", "RES001"}


class TestFixturesFire:
    def test_fork001_inherited_marked_object(self):
        found = _findings(FIXTURES / "fork_inherited_state.py", "FORK001")
        assert len(found) == 1  # launch_ok (path string only) stays clean
        assert found[0].line == 39
        assert "TraceJournal" in found[0].message
        assert "not-fork-inheritable" in found[0].message
        assert "construct it inside the child" in found[0].message

    def test_fork002_lock_held_across_spawn(self):
        found = _findings(FIXTURES / "fork_lock_across_spawn.py", "FORK002")
        assert len(found) == 2  # publish_ok (release before start) is clean
        assert sorted(f.line for f in found) == [25, 34]
        with_block, acquire_path = sorted(found, key=lambda f: f.line)
        assert "while holding `lock`" in with_block.message
        assert "no .release() on the path" in acquire_path.message
        assert all("inherits a locked mutex" in f.message for f in found)

    def test_fork002_spawn_two_calls_away(self, tmp_path):
        """``outer`` spawns only through ``inner``: the spawn set is a
        fixpoint over the call graph, not just the direct spawners."""
        module = tmp_path / "spawn_chain.py"
        module.write_text(
            textwrap.dedent(
                """
                import threading
                from multiprocessing import Process


                def work() -> None:
                    pass


                def inner() -> None:
                    worker = Process(target=work)
                    worker.start()


                def outer() -> None:
                    inner()


                def seal() -> None:
                    lock = threading.Lock()
                    with lock:
                        outer()
                """
            )
        )
        (found,) = _findings(module, "FORK002")
        assert found.line == 22
        assert "spawns via outer() which spawns" in found.message
        assert "while holding `lock`" in found.message

    def test_sig001_unsafe_transitive_callee(self):
        found = _findings(FIXTURES / "sig_unsafe_handler.py", "SIG001")
        assert len(found) == 1  # handle_ok (flag + adjudicated wake) clean
        assert found[0].line == 20  # the print() inside log_interrupt
        assert "print()" in found[0].message
        assert "handle_broken" in found[0].message  # provenance: the handler
        assert "signal-safe" in found[0].message

    def test_pipe001_unclosed_and_unpaired(self):
        """The lifecycle half is RES001's: the Connection parameter of a
        Process target leaks on the sentinel path. PIPE001 keeps the
        pairing half."""
        path = FIXTURES / "pipe_unclosed_worker.py"
        (lifecycle,) = _findings(path, "RES001")  # worker_ok stays clean
        assert lifecycle.line == 20  # the def line of worker_broken
        assert "Connection parameter `conn`" in lifecycle.message
        assert "worker_broken" in lifecycle.message
        assert "line 24 -> exit" in lifecycle.message
        (pairing,) = _findings(path, "PIPE001")
        assert "sends[orphan]" in pairing.message
        assert "receives[orphan]" in pairing.message

    def test_pipe002_use_after_close_and_double_close(self):
        found = _findings(FIXTURES / "pipe_use_after_close.py", "PIPE002")
        assert len(found) == 2  # drain_ok stays clean
        after_close, double_close = sorted(found, key=lambda f: f.line)
        assert ".recv() after .close()" in after_close.message
        assert "second .close() (double close)" in double_close.message
        assert all("typestate" in f.message for f in found)


class TestRealCodeRegression:
    """Acceptance criterion: deleting the real ``conn.close()`` from a
    pool-shaped worker loop is caught by RES001."""

    def test_pristine_pool_module_is_clean(self, tmp_path):
        copy = tmp_path / "pool.py"
        copy.write_text(POOL_SOURCE.read_text())
        result = lint_paths([copy], whole_program=True)
        concurrency = [
            f
            for f in result.findings
            if f.rule in CONCURRENCY_RULES
        ]
        assert concurrency == []

    def test_removing_worker_conn_close_is_caught(self, tmp_path):
        source = POOL_SOURCE.read_text()
        target = "        conn.close()"
        assert target in source  # _pool_worker_main's finally block
        broken = source.replace(target, "        pass")
        copy = tmp_path / "pool.py"
        copy.write_text(broken)
        found = _findings(copy, "RES001")
        assert len(found) == 1
        assert found[0].line == _def_line(source, "_pool_worker_main")
        assert "_pool_worker_main" in found[0].message
        assert "`conn`" in found[0].message
        assert "can leak" in found[0].message

    def test_pristine_supervisor_module_is_clean(self, tmp_path):
        """The supervision loop (dispatcher) and the workers it supervises
        (pool), linted as one program: clean across the module seam."""
        for source in (DISPATCHER_SOURCE, POOL_SOURCE):
            (tmp_path / source.name).write_text(source.read_text())
        result = lint_paths(
            [tmp_path / "dispatcher.py", tmp_path / "pool.py"],
            whole_program=True,
        )
        concurrency = [
            f
            for f in result.findings
            if f.rule in CONCURRENCY_RULES
        ]
        assert concurrency == []

    def test_removing_worker_entry_close_is_caught(self, tmp_path):
        """The worker entry's close deletion is still caught — exactly
        once — when the dispatcher is linted alongside the pool."""
        source = POOL_SOURCE.read_text()
        target = "    try:\n        conn.close()"
        assert target in source  # _pool_worker_main's exit path
        (tmp_path / "pool.py").write_text(
            source.replace(target, "    try:\n        pass")
        )
        (tmp_path / "dispatcher.py").write_text(DISPATCHER_SOURCE.read_text())
        result = lint_paths(
            [tmp_path / "dispatcher.py", tmp_path / "pool.py"],
            whole_program=True,
        )
        found = [f for f in result.findings if f.rule == "RES001"]
        assert len(found) == 1
        assert found[0].line == _def_line(source, "_pool_worker_main")
        assert "_pool_worker_main" in found[0].message
        assert "`conn`" in found[0].message


class TestConnectionOwnership:
    """RES001 owns Connection lifecycles and PIPE002 runs on the same
    dataflow IR; these pin the edges of what each one flags."""

    def _lint(self, tmp_path, body: str, rule: str):
        module = tmp_path / "conn_module.py"
        module.write_text(
            "from multiprocessing import Process\n"
            "from multiprocessing.connection import Connection\n"
            + textwrap.dedent(body)
        )
        return _findings(module, rule)

    def test_borrowed_connection_parameter_is_not_owned(self, tmp_path):
        """``feed`` only borrows its Connection: not a Process target, so
        leaving it open is the caller's business."""
        body = """
            def feed(conn: Connection, items: list) -> None:
                for item in items:
                    conn.send(item)
            """
        assert self._lint(tmp_path, body, "RES001") == []
        as_target = body + """
            def launch(child: Connection) -> None:
                worker = Process(target=feed, args=(child, []))
                worker.start()
                worker.join()
            """
        (found,) = self._lint(tmp_path, as_target, "RES001")
        assert "Process target conn_module:feed" in found.message

    def test_process_target_raise_edge_is_excused(self, tmp_path):
        """A child main whose only unclosed exit is a raise edge is
        clean: process teardown reaps the fd."""
        body = """
            def check(item: object) -> None:
                if item is None:
                    raise ValueError("no item")

            def child(conn: Connection) -> None:
                check(conn.recv())
                conn.close()

            def launch(end: Connection) -> None:
                worker = Process(target=child, args=(end,))
                worker.start()
                worker.join()
            """
        assert self._lint(tmp_path, body, "RES001") == []

    def test_each_bad_state_after_one_close_is_reported(self, tmp_path):
        """One close, then a branch: recv on one arm, a second close on
        the other. Both arms are bad states, each reported once."""
        body = """
            def shutdown(conn: Connection, drain: bool) -> None:
                conn.close()
                if drain:
                    conn.recv()
                else:
                    conn.close()
            """
        found = self._lint(tmp_path, body, "PIPE002")
        assert [(f.line, f.col) for f in found] == [(7, 8), (9, 8)]
        assert ".recv() after .close()" in found[0].message
        assert "second .close() (double close)" in found[1].message


class TestAdjudication:
    def test_suppression_covers_concurrency_finding(self, tmp_path):
        source = (FIXTURES / "pipe_use_after_close.py").read_text()
        target = "    out.append(conn.recv())  # BUG: typestate is closed here"
        assert target in source
        suppressed = source.replace(
            target,
            "    # lint: allow[PIPE002] -- fixture: suppression round-trip\n"
            + target,
        )
        module = tmp_path / "suppressed.py"
        module.write_text(suppressed)
        found = _findings(module, "PIPE002")
        assert len(found) == 1  # only the double close remains

    def test_signal_safe_flag_adjudicates_callee(self, tmp_path):
        """Removing the ``# concurrency: signal-safe`` flag from the
        adjudicated ``wake`` helper turns the *clean* handler red: the
        flag is load-bearing, not decoration."""
        source = (FIXTURES / "sig_unsafe_handler.py").read_text()
        flag = "# concurrency: signal-safe"
        assert flag in source
        module = tmp_path / "unadjudicated.py"
        module.write_text(source.replace(flag, "# commentary: was signal-safe"))
        found = _findings(module, "SIG001")
        # The seeded print() finding plus os.write inside the no-longer
        # adjudicated wake() called from handle_ok.
        assert len(found) >= 2
        assert any("handle_ok" in f.message for f in found)
