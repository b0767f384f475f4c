"""CFG construction and path-sensitive reachability (repro.lint.flow)."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.flow import (
    Cfg,
    build_cfg,
    executed_exprs,
    find_unprotected_path,
    iter_statements,
)


def _func(source: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(source)).body[0]


def _cfg(source: str) -> tuple[ast.FunctionDef, Cfg]:
    func = _func(source)
    return func, build_cfg(func)


def _nodes_at(cfg: Cfg, line: int) -> set[int]:
    return {
        nid
        for nid, stmt in cfg.nodes.items()
        if getattr(stmt, "lineno", None) == line
    }


class TestCfgShape:
    def test_straight_line_reaches_exit(self):
        _, cfg = _cfg(
            """
            def f(x):
                y = x + 1
                return y
            """
        )
        path = find_unprotected_path(cfg, cfg.entry, set(), inclusive=True)
        assert path is not None and path[-1] == Cfg.EXIT

    def test_return_has_edge_to_exit(self):
        _, cfg = _cfg(
            """
            def f(x):
                return x
            """
        )
        assert Cfg.EXIT in cfg.successors(cfg.entry, include_raise=False)

    def test_every_statement_gets_a_raise_edge(self):
        _, cfg = _cfg(
            """
            def f(x):
                y = x()
                return y
            """
        )
        assert Cfg.RAISE in cfg.raises.get(cfg.entry, set())

    def test_while_true_has_no_fall_through(self):
        _, cfg = _cfg(
            """
            def f(step):
                while True:
                    step()
            """
        )
        loop = cfg.entry
        assert Cfg.EXIT not in cfg.successors(loop, include_raise=False)

    def test_conditional_while_falls_through(self):
        _, cfg = _cfg(
            """
            def f(cond, step):
                while cond:
                    step()
            """
        )
        assert Cfg.EXIT in cfg.successors(cfg.entry, include_raise=False)

    def test_break_exits_the_loop(self):
        _, cfg = _cfg(
            """
            def f(done):
                while True:
                    if done():
                        break
            """
        )
        (brk,) = _nodes_at(cfg, 5)
        assert Cfg.EXIT in cfg.successors(brk, include_raise=False)

    def test_finally_suite_is_duplicated_per_continuation(self):
        func, cfg = _cfg(
            """
            def f(work, close):
                try:
                    return work()
                finally:
                    close()
            """
        )
        close_stmt = func.body[0].finalbody[0]
        # At least the normal, return and raise continuations each get
        # their own copy of the finally suite.
        assert len(cfg.nodes_for(close_stmt)) >= 2

    def test_catch_all_handler_swallows_the_escape_edge(self):
        _, cfg = _cfg(
            """
            def f(work):
                try:
                    work()
                except BaseException:
                    pass
            """
        )
        (body,) = _nodes_at(cfg, 4)
        assert Cfg.RAISE not in cfg.raises.get(body, set())

    def test_narrow_handler_keeps_the_escape_edge(self):
        _, cfg = _cfg(
            """
            def f(work):
                try:
                    work()
                except KeyError:
                    pass
            """
        )
        (body,) = _nodes_at(cfg, 4)
        targets = cfg.raises.get(body, set())
        assert Cfg.RAISE in targets and len(targets) == 2

    def test_describe_terminals(self):
        _, cfg = _cfg(
            """
            def f():
                pass
            """
        )
        assert cfg.describe(Cfg.EXIT) == "exit"
        assert cfg.describe(Cfg.RAISE) == "raise"
        assert cfg.describe(cfg.entry) == "line 3"


class TestReachability:
    def test_sink_on_one_branch_leaves_the_other_unprotected(self):
        _, cfg = _cfg(
            """
            def f(cond, settle):
                if cond:
                    settle()
                x = 1
            """
        )
        sinks = _nodes_at(cfg, 4)
        path = find_unprotected_path(cfg, cfg.entry, sinks, inclusive=True)
        assert path is not None
        # The offending path routes through the else fall-through.
        assert not set(path) & sinks

    def test_sinks_on_all_branches_protect(self):
        _, cfg = _cfg(
            """
            def f(cond, settle):
                if cond:
                    settle()
                else:
                    settle()
            """
        )
        sinks = _nodes_at(cfg, 4) | _nodes_at(cfg, 6)
        assert (
            find_unprotected_path(cfg, cfg.entry, sinks, inclusive=True)
            is None
        )

    def test_finally_sink_protects_exception_paths(self):
        func, cfg = _cfg(
            """
            def f(begin, work, settle):
                begin()
                try:
                    work()
                finally:
                    settle()
            """
        )
        settle_stmt = func.body[1].finalbody[0]
        sinks = set(cfg.nodes_for(settle_stmt))
        (begin,) = _nodes_at(cfg, 3)
        assert (
            find_unprotected_path(
                cfg, begin, sinks, count_exception_paths=True
            )
            is None
        )

    def test_without_finally_the_exception_path_is_flagged(self):
        _, cfg = _cfg(
            """
            def f(begin, work, settle):
                begin()
                work()
                settle()
            """
        )
        sinks = _nodes_at(cfg, 5)
        (begin,) = _nodes_at(cfg, 3)
        path = find_unprotected_path(
            cfg, begin, sinks, count_exception_paths=True
        )
        assert path is not None and path[-1] == Cfg.RAISE
        # ...but is excused when exception paths don't count (TLBGEN).
        assert find_unprotected_path(cfg, begin, sinks) is None

    def test_obligation_calls_own_raise_is_excused(self):
        """If the begin call itself raises, nothing began — even when
        exception paths count."""
        _, cfg = _cfg(
            """
            def f(begin, settle):
                begin()
                settle()
            """
        )
        sinks = _nodes_at(cfg, 4)
        (begin,) = _nodes_at(cfg, 3)
        assert (
            find_unprotected_path(
                cfg, begin, sinks, count_exception_paths=True
            )
            is None
        )

    def test_goals_end_the_path_at_the_first_goal_reached(self):
        """FORK002's question: from ``acquire``, which spawn is reachable
        before a ``release``? The blocked branch's spawn is not, and the
        path stops at the first reachable spawn."""
        _, cfg = _cfg(
            """
            def f(cond, lock, spawn):
                lock.acquire()
                if cond:
                    lock.release()
                    spawn()
                    return
                spawn()
                spawn()
                lock.release()
            """
        )
        (acquire,) = _nodes_at(cfg, 3)
        releases = _nodes_at(cfg, 5) | _nodes_at(cfg, 10)
        spawns = _nodes_at(cfg, 6) | _nodes_at(cfg, 8) | _nodes_at(cfg, 9)
        path = find_unprotected_path(cfg, acquire, releases, goals=spawns)
        assert [cfg.describe(n) for n in path] == ["line 3", "line 4", "line 8"]
        # Block the reachable spawns too: no goal is left to reach.
        blocked = releases | _nodes_at(cfg, 8)
        assert find_unprotected_path(cfg, acquire, blocked, goals=spawns) is None


class TestRaiseEdges:
    """The edges the dataflow rules lean on: ``assert`` and explicit
    ``raise ... from ...`` escape the function, and a ``finally`` suite
    wrapping ``break``/``continue`` is duplicated per continuation."""

    def test_assert_has_raise_and_fall_through_edges(self):
        _, cfg = _cfg(
            """
            def f(x):
                assert x > 0
                return x
            """
        )
        (node,) = _nodes_at(cfg, 3)
        assert Cfg.RAISE in cfg.raises.get(node, set())
        assert _nodes_at(cfg, 4) & cfg.successors(node, include_raise=False)

    def test_raise_from_escapes_with_no_normal_successor(self):
        _, cfg = _cfg(
            """
            def f(x, exc):
                if x:
                    raise ValueError(x) from exc
                return x
            """
        )
        (node,) = _nodes_at(cfg, 4)
        assert cfg.successors(node, include_raise=False) == set()
        assert Cfg.RAISE in cfg.raises.get(node, set())

    def test_finally_wrapping_break_and_continue_is_split_per_continuation(self):
        func, cfg = _cfg(
            """
            def f(items, work, close):
                for item in items:
                    try:
                        if work(item):
                            break
                        continue
                    finally:
                        close()
                return None
            """
        )
        close_stmt = func.body[0].body[0].finalbody[0]
        copies = cfg.nodes_for(close_stmt)
        # break, continue and raise continuations each run their own
        # copy of the finally suite.
        assert len(copies) >= 3
        normal_succs: set[int] = set()
        raise_targets: set[int] = set()
        for copy in copies:
            normal_succs |= cfg.successors(copy, include_raise=False)
            raise_targets |= cfg.raises.get(copy, set())
        assert _nodes_at(cfg, 10) & normal_succs  # break -> loop follow
        assert _nodes_at(cfg, 3) & normal_succs  # continue -> loop header
        assert Cfg.RAISE in raise_targets  # the raise continuation re-raises


class TestStatementHelpers:
    def test_executed_exprs_are_headers_only(self):
        func = _func(
            """
            def f(items, cond):
                for item in items:
                    pass
                if cond:
                    pass
            """
        )
        for_stmt, if_stmt = func.body
        assert executed_exprs(for_stmt) == [for_stmt.iter]
        assert executed_exprs(if_stmt) == [if_stmt.test]

    def test_iter_statements_skips_nested_function_bodies(self):
        func = _func(
            """
            def f():
                def inner():
                    hidden()
                return inner
            """
        )
        stmts = list(iter_statements(func))
        assert any(isinstance(s, ast.FunctionDef) for s in stmts)
        assert not any(
            isinstance(s, ast.Expr)
            and isinstance(s.value, ast.Call)
            for s in stmts
        )

    def test_iter_statements_descends_into_handlers(self):
        func = _func(
            """
            def f(work):
                try:
                    work()
                except KeyError:
                    recover()
            """
        )
        stmts = list(iter_statements(func))
        assert any(isinstance(s, ast.ExceptHandler) for s in stmts)
        calls = [
            s
            for s in stmts
            if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)
        ]
        assert len(calls) == 2  # work() and recover()
