"""Concurrency layer: fork-safety, signal-handler safety, message pairing.

This is the fourth lint layer. The per-file rules see one AST, the
protocol rules see call pairings, the dataflow layer sees value flow —
none of them see *process lifecycle*: what crosses a ``fork``, what runs
inside a signal handler, whether both sides of a cross-process message
protocol exist. The fleet is a real multiprocess system (warm pools,
duplex pipes, SIGTERM -> SIGKILL escalation), so its subtlest bugs live
exactly there. Four rules close the gap, all driven by the same
call-graph (:mod:`repro.lint.callgraph`) + CFG (:mod:`repro.lint.flow`)
infrastructure the earlier layers built:

``FORK001`` — **fork inheritance**: an object of a class marked
``# concurrency: not-fork-inheritable`` (open ``Connection`` holders,
``TraceSession`` sinks, ``ResultCache`` file handles) is captured by a
``Process(target=...)`` closure — passed in ``args=``/``kwargs=`` or as
a bound-method receiver. The child would inherit live OS state (open
fds, buffered writers) that only the parent may own.

``FORK002`` — **lock live across spawn**: a lock/mutex acquired
(``with lock:`` or ``lock.acquire()``) is still held at a spawn point
(``Process(...)``/``.start()``), directly or through a callee that
provably spawns (a least fixpoint over the call graph, like the protocol
layer's must-settle set). A forked child inherits a *locked* mutex with
no owner to release it.

``SIG001`` — **signal-handler safety**: every function registered via
``signal.signal`` — and everything it transitively calls, following the
call graph — performs only operations from a small async-signal-safe
allowlist (``os._exit``, ``os.write``, ``signal.*`` re-arms, plain
assignments). Adjudicated helpers are flagged
``# concurrency: signal-safe -- why``.

``PIPE001`` — **cross-process message pairing**: every
``# protocol: sends[k]`` needs a ``receives[k]`` peer somewhere in the
linted project, so the pool's job/result message protocol cannot
silently lose one side.

Pipe ends themselves are checked on the dataflow IR
(:mod:`repro.lint.dataflow`): ``RES001`` proves every ``Pipe()`` end and
every ``Connection`` parameter of a ``Process`` target (the set
:func:`_process_targets` computes here) is closed or handed off, and
``PIPE002`` proves no path uses a connection after closing it or closes
it twice. Suppress any rule with ``# lint: allow[RULE] -- why``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import (
    FunctionInfo,
    ProjectIndex,
    _Typer,
    _unique_basename,
    least_fixpoint,
)
from repro.lint.core import (
    Finding,
    WholeProgramRule,
    register_whole_program_rule,
)
from repro.lint.flow import (
    Cfg,
    build_cfg,
    executed_exprs,
    find_unprotected_path,
    iter_statements,
)

#: Class flag / function flag names (see ``callgraph._FLAG_RE``).
NOT_FORK_INHERITABLE = "not-fork-inheritable"
SIGNAL_SAFE = "signal-safe"

#: Constructors whose result is a lock-like object (threading and
#: multiprocessing spell them identically).
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}
)

#: Dotted callables a signal handler may invoke (async-signal-safe by
#: POSIX, or signal-module re-arms which CPython defers safely).
_SIGNAL_SAFE_CALLS = frozenset(
    {
        "os._exit",
        "os.write",
        "os.kill",
        "os.getpid",
        "signal.signal",
        "signal.getsignal",
        "signal.alarm",
        "signal.raise_signal",
        "signal.setitimer",
    }
)


# -- module-level alias scan --------------------------------------------------


@dataclass
class _Aliases:
    """Names a module binds to the concurrency-relevant callables."""

    process: set[str] = field(default_factory=set)  # multiprocessing.Process
    signal_mod: set[str] = field(default_factory=set)  # the signal module
    signal_fn: set[str] = field(default_factory=set)  # signal.signal itself
    lock_mods: set[str] = field(default_factory=set)  # threading / mp modules
    lock_ctors: set[str] = field(default_factory=set)  # bare Lock/RLock/...


def _scan_aliases(tree: ast.Module) -> _Aliases:
    al = _Aliases()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "multiprocessing":
                    al.lock_mods.add(bound)
                elif alias.name == "threading":
                    al.lock_mods.add(bound)
                elif alias.name == "signal":
                    al.signal_mod.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "multiprocessing":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "Process":
                        al.process.add(bound)
                    elif alias.name in _LOCK_CTORS:
                        al.lock_ctors.add(bound)
            elif node.module == "threading":
                for alias in node.names:
                    if alias.name in _LOCK_CTORS:
                        al.lock_ctors.add(alias.asname or alias.name)
            elif node.module == "signal":
                for alias in node.names:
                    if alias.name == "signal":
                        al.signal_fn.add(alias.asname or alias.name)
    return al


def _aliases_for(index: ProjectIndex) -> dict[str, _Aliases]:
    cached = getattr(index, "_concurrency_aliases", None)
    if cached is None:
        cached = {
            parsed.path: _scan_aliases(parsed.tree) for parsed in index.modules
        }
        index._concurrency_aliases = cached  # type: ignore[attr-defined]
    return cached


# -- structural detectors -----------------------------------------------------


def _is_process_ctor(call: ast.Call, al: _Aliases) -> bool:
    """``Process(...)`` — bare alias, ``multiprocessing.Process``, or any
    ``<ctx>.Process`` (contexts flow through too many locals to type)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in al.process
    return isinstance(func, ast.Attribute) and func.attr == "Process"


def _is_lock_ctor(call: ast.Call, al: _Aliases) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in al.lock_ctors
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _LOCK_CTORS
        and isinstance(func.value, ast.Name)
        and func.value.id in al.lock_mods
    )


def _is_signal_register(call: ast.Call, al: _Aliases) -> bool:
    """``signal.signal(...)`` / bare ``signal(...)`` from-import."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in al.signal_fn
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "signal"
        and isinstance(func.value, ast.Name)
        and func.value.id in al.signal_mod
    )


def _closure_exprs(call: ast.Call) -> list[ast.AST]:
    """Expressions a ``Process(...)`` ctor captures into the child:
    everything in ``target=``/``args=``/``kwargs=`` (and positionals)."""
    return list(call.args) + [kw.value for kw in call.keywords]


def _handler_expr(call: ast.Call) -> ast.AST | None:
    """The handler argument of a ``signal.signal`` registration."""
    if len(call.args) >= 2:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "handler":
            return kw.value
    return None


def _resolve_function_ref(
    index: ProjectIndex, typer: _Typer, fn: FunctionInfo, expr: ast.AST
) -> list[FunctionInfo]:
    """Functions a bare reference (not a call) may denote — a Name, or a
    bound method ``obj.method`` with a typeable receiver."""
    if isinstance(expr, ast.Name):
        target = _unique_basename(index, expr.id, fn.module)
        return [target] if target is not None else []
    if isinstance(expr, ast.Attribute):
        receiver = typer.infer(expr.value)
        if receiver is not None and receiver[0] == "class":
            return index.method_candidates(receiver[1], expr.attr)
    return []


def _context(index: ProjectIndex, path: str, line: int) -> str:
    parsed = index.modules_by_path.get(path)
    if parsed is not None and 1 <= line <= len(parsed.source_lines):
        return parsed.source_lines[line - 1].strip()
    return ""


def _finding(
    index: ProjectIndex,
    rule: str,
    fn: FunctionInfo,
    anchor: ast.AST,
    message: str,
) -> Finding:
    line = getattr(anchor, "lineno", fn.lineno)
    return Finding(
        rule=rule,
        path=fn.path,
        line=line,
        col=getattr(anchor, "col_offset", 0),
        message=f"{fn.qualname}: {message}",
        context=_context(index, fn.path, line),
    )


def _process_targets(index: ProjectIndex) -> set[str]:
    """Qualnames referenced as ``target=`` of any Process construction —
    the functions that become child-process mains."""
    cached = getattr(index, "_concurrency_targets", None)
    if cached is not None:
        return cached
    aliases = _aliases_for(index)
    targets: set[str] = set()
    for fn in index.functions.values():
        al = aliases.get(fn.path)
        if al is None:
            continue
        typer: _Typer | None = None
        for site in fn.calls:
            if not _is_process_ctor(site.call, al):
                continue
            for kw in site.call.keywords:
                if kw.arg != "target":
                    continue
                if typer is None:
                    typer = _Typer(index, fn)
                for resolved in _resolve_function_ref(
                    index, typer, fn, kw.value
                ):
                    targets.add(resolved.qualname)
    index._concurrency_targets = targets  # type: ignore[attr-defined]
    return targets


# -- FORK001: not-fork-inheritable objects crossing a spawn -------------------


@register_whole_program_rule
class ForkInheritanceRule(WholeProgramRule):
    """FORK001: a not-fork-inheritable object is captured by a
    ``Process(target=...)`` closure.

    Classes whose instances hold live OS state the parent must keep sole
    ownership of — open ``Connection`` ends, ``TraceSession`` sinks with
    buffered file handles, ``ResultCache`` writers — are marked in
    source::

        # concurrency: not-fork-inheritable -- holds an open trace sink
        class TraceSession: ...

    Passing such an object (or a bound method of one) through
    ``target=``/``args=``/``kwargs=`` of a ``Process`` construction makes
    the child inherit the handle: double-closed fds, interleaved writes,
    corrupt caches. Create the resource *inside* the child instead (the
    fleet's ``execute_job`` opens a fresh ``TraceSession`` per job).

    Suppress a deliberate transfer with
    ``# lint: allow[FORK001] -- why`` on the construction line.
    """

    name = "FORK001"
    description = (
        "object marked '# concurrency: not-fork-inheritable' (open "
        "pipes, trace sinks, cache file handles) is captured by a "
        "Process(target=...) closure; create it inside the child instead"
    )

    def run(self, index: ProjectIndex) -> list[Finding]:
        marked = {
            cls.name
            for cls in index.classes.values()
            if NOT_FORK_INHERITABLE in cls.flags
        }
        if not marked:
            return []
        aliases = _aliases_for(index)
        findings: list[Finding] = []
        seen: set[tuple] = set()
        for fn in index.functions.values():
            al = aliases.get(fn.path)
            if al is None:
                continue
            typer: _Typer | None = None
            for site in fn.calls:
                if not _is_process_ctor(site.call, al):
                    continue
                if typer is None:
                    typer = _Typer(index, fn)
                for expr in _closure_exprs(site.call):
                    for sub in ast.walk(expr):
                        if not isinstance(sub, (ast.Name, ast.Attribute)):
                            continue
                        inferred = typer.infer(sub)
                        if (
                            inferred is None
                            or inferred[0] != "class"
                            or inferred[1] not in marked
                        ):
                            continue
                        try:
                            what = ast.unparse(sub)
                        except Exception:  # pragma: no cover
                            what = inferred[1]
                        key = (fn.path, site.stmt.lineno, inferred[1], what)
                        if key in seen:
                            continue
                        seen.add(key)
                        findings.append(
                            _finding(
                                index,
                                self.name,
                                fn,
                                site.stmt,
                                f"`{what}` (a {inferred[1]}, marked "
                                f"# concurrency: {NOT_FORK_INHERITABLE}) is "
                                f"captured by this Process(target=...) "
                                f"closure; the child inherits its live OS "
                                f"state — construct it inside the child "
                                f"instead",
                            )
                        )
        return findings


# -- FORK002: lock held across a spawn point ----------------------------------


@register_whole_program_rule
class LockAcrossSpawnRule(WholeProgramRule):
    """FORK002: a lock/mutex acquisition is live across a spawn point.

    A ``fork`` snapshots the lock *locked* into the child, where no
    thread will ever release it — the classic post-fork deadlock. The
    rule tracks locks created by ``threading``/``multiprocessing``
    ``Lock``/``RLock``/``Semaphore``/``BoundedSemaphore``/``Condition``
    (locals and ``self.x = Lock()`` attributes) and flags:

    * a spawn statement (``Process(...)``-local ``.start()``, or a call
      to a function *proven to spawn* — a least fixpoint over the call
      graph, like the protocol layer's must-settle set) lexically inside
      a ``with lock:`` block;
    * a CFG path from ``lock.acquire()`` that reaches a spawn statement
      before ``lock.release()``.

    Fix by releasing before ``start()`` or creating the lock after the
    fork. Suppress with ``# lint: allow[FORK002] -- why``.
    """

    name = "FORK002"
    description = (
        "lock/mutex acquired (with-block or .acquire()) is still held "
        "at a Process spawn point; the forked child inherits a locked "
        "mutex nobody can release"
    )

    def run(self, index: ProjectIndex) -> list[Finding]:
        aliases = _aliases_for(index)
        lock_attrs = self._lock_attrs(index, aliases)
        spawners = self._spawning_functions(index, aliases)
        findings: list[Finding] = []
        for fn in index.functions.values():
            al = aliases.get(fn.path)
            if al is None:
                continue
            lock_keys = self._lock_keys(fn, al, lock_attrs)
            if not lock_keys:
                continue
            spawn_stmts = self._spawn_stmts(index, fn, al, spawners)
            if not spawn_stmts:
                continue
            findings.extend(
                self._check(index, fn, lock_keys, spawn_stmts)
            )
        return findings

    # -- lock discovery ------------------------------------------------------

    def _lock_attrs(
        self, index: ProjectIndex, aliases: dict[str, _Aliases]
    ) -> dict[str, set[str]]:
        """class name -> attributes assigned a lock constructor."""
        out: dict[str, set[str]] = {}
        for cls in index.classes.values():
            al = aliases.get(cls.path)
            if al is None:
                continue
            for method in cls.methods.values():
                for stmt in iter_statements(method.node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    if not (
                        isinstance(stmt.value, ast.Call)
                        and _is_lock_ctor(stmt.value, al)
                    ):
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            out.setdefault(cls.name, set()).add(target.attr)
        return out

    def _lock_keys(
        self,
        fn: FunctionInfo,
        al: _Aliases,
        lock_attrs: dict[str, set[str]],
    ) -> set[str]:
        """Unparse keys (``lock``, ``self._lock``) naming locks in fn."""
        keys: set[str] = set()
        for stmt in iter_statements(fn.node):
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                if _is_lock_ctor(stmt.value, al):
                    keys.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
        if fn.cls is not None:
            for attr in lock_attrs.get(fn.cls, ()):
                keys.add(f"self.{attr}")
        return keys

    # -- spawn discovery -----------------------------------------------------

    def _direct_spawn_stmts(
        self, index: ProjectIndex, fn: FunctionInfo, al: _Aliases
    ) -> set[int]:
        """ids of statements that directly construct-and-start a child."""
        procvars: set[str] = set()
        for stmt in iter_statements(fn.node):
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.Call) and _is_process_ctor(
                    stmt.value, al
                ):
                    procvars.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
        spawns: set[int] = set()
        for site in fn.calls:
            func = site.call.func
            if not isinstance(func, ast.Attribute) or func.attr != "start":
                continue
            recv = func.value
            if isinstance(recv, ast.Name) and recv.id in procvars:
                spawns.add(id(site.stmt))
            elif isinstance(recv, ast.Call) and _is_process_ctor(recv, al):
                spawns.add(id(site.stmt))  # Process(...).start() chained
            elif isinstance(recv, ast.Attribute):
                spawns.add(id(site.stmt)) if self._attr_is_process(
                    index, fn, recv
                ) else None
        return spawns

    @staticmethod
    def _attr_is_process(
        index: ProjectIndex, fn: FunctionInfo, recv: ast.Attribute
    ) -> bool:
        """``self.process.start()`` — attribute assigned a Process ctor
        anywhere in the class (attr_types can't see non-project classes,
        so match the conventional shape: attr assigned from `.Process(`)."""
        if not (
            isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and fn.cls is not None
        ):
            return False
        infos = index.class_by_name.get(fn.cls, [])
        cls = infos[0] if len(infos) == 1 else None
        if cls is None:
            return False
        for method in cls.methods.values():
            for stmt in iter_statements(method.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                stores_attr = any(
                    isinstance(t, ast.Attribute) and t.attr == recv.attr
                    for t in stmt.targets
                )
                if (
                    stores_attr
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, (ast.Name, ast.Attribute))
                    and (
                        getattr(stmt.value.func, "id", None) == "Process"
                        or getattr(stmt.value.func, "attr", None) == "Process"
                    )
                ):
                    return True
        return False

    def _spawning_functions(
        self, index: ProjectIndex, aliases: dict[str, _Aliases]
    ) -> set[str]:
        """Least fixpoint of "calling this function spawns a process"."""
        spawning = {
            fn.qualname
            for fn in index.functions.values()
            if (al := aliases.get(fn.path)) is not None
            and self._direct_spawn_stmts(index, fn, al)
        }
        graph = index.call_graph()

        def update(qualname: str) -> bool:
            if qualname in spawning or spawning.isdisjoint(graph[qualname]):
                return False
            spawning.add(qualname)
            return True

        least_fixpoint(graph, update)
        return spawning

    def _spawn_stmts(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        al: _Aliases,
        spawners: set[str],
    ) -> dict[int, str]:
        """id(stmt) -> description, for every spawn point in ``fn``:
        direct spawns, calls to spawning functions, and constructions of
        classes whose ``__init__`` spawns."""
        out: dict[int, str] = {}
        for sid in self._direct_spawn_stmts(index, fn, al):
            out[sid] = "a Process .start()"
        for site in fn.calls:
            if any(q in spawners for q in site.resolutions):
                out[id(site.stmt)] = f"{site.callee_repr}() which spawns"
            elif isinstance(site.call.func, ast.Name):
                infos = index.class_by_name.get(site.call.func.id, [])
                cls = infos[0] if len(infos) == 1 else None
                if cls is not None:
                    init = cls.methods.get("__init__")
                    if init is not None and init.qualname in spawners:
                        out[id(site.stmt)] = (
                            f"{site.callee_repr}() whose __init__ spawns"
                        )
        return out

    # -- the check -----------------------------------------------------------

    def _check(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        lock_keys: set[str],
        spawn_stmts: dict[int, str],
    ) -> list[Finding]:
        findings: list[Finding] = []
        cfg: Cfg | None = None
        for stmt in iter_statements(fn.node):
            # `with lock:` — a spawn anywhere in the body is held-across.
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if not any(
                    self._unparse(item.context_expr) in lock_keys
                    for item in stmt.items
                ):
                    continue
                hit = self._spawn_in_body(stmt, spawn_stmts)
                if hit is not None:
                    inner, how = hit
                    findings.append(
                        _finding(
                            index,
                            self.name,
                            fn,
                            inner,
                            f"spawns via {how} while holding "
                            f"`{self._lock_name(stmt, lock_keys)}`; the "
                            f"child inherits a locked mutex — release "
                            f"before spawning",
                        )
                    )
                continue
            # `lock.acquire()` — CFG path to a spawn before `.release()`.
            acquired = self._acquire_key(stmt, lock_keys)
            if acquired is None:
                continue
            if cfg is None:
                cfg = build_cfg(fn.node)
            release_nodes = self._event_nodes(
                fn, cfg, acquired, "release"
            )
            spawn_nodes = {
                node
                for sid in spawn_stmts
                for node in cfg.stmt_nodes.get(sid, [])
            }
            for node in cfg.nodes_for(stmt):
                path = find_unprotected_path(
                    cfg, node, release_nodes, goals=spawn_nodes
                )
                if path is None:
                    continue
                reached = path[-1]
                how = spawn_stmts.get(
                    id(cfg.nodes[reached]), "a spawn point"
                )
                findings.append(
                    _finding(
                        index,
                        self.name,
                        fn,
                        cfg.nodes[reached],
                        f"reached with `{acquired}` still acquired "
                        f"(no .release() on the path from line "
                        f"{stmt.lineno}); spawns via {how} — the child "
                        f"inherits a locked mutex",
                    )
                )
                break
        return findings

    @staticmethod
    def _unparse(expr: ast.AST) -> str:
        try:
            return ast.unparse(expr)
        except Exception:  # pragma: no cover
            return ""

    def _lock_name(self, stmt: ast.With, lock_keys: set[str]) -> str:
        for item in stmt.items:
            name = self._unparse(item.context_expr)
            if name in lock_keys:
                return name
        return "the lock"  # pragma: no cover

    @staticmethod
    def _spawn_in_body(
        stmt: ast.With | ast.AsyncWith, spawn_stmts: dict[int, str]
    ) -> tuple[ast.stmt, str] | None:
        for inner in ast.walk(stmt):
            if isinstance(inner, ast.stmt) and id(inner) in spawn_stmts:
                return inner, spawn_stmts[id(inner)]
        return None

    def _acquire_key(
        self, stmt: ast.stmt, lock_keys: set[str]
    ) -> str | None:
        for root in executed_exprs(stmt):
            if root is None:
                continue
            for sub in ast.walk(root):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "acquire"
                    and self._unparse(sub.func.value) in lock_keys
                ):
                    return self._unparse(sub.func.value)
        return None

    def _event_nodes(
        self, fn: FunctionInfo, cfg: Cfg, key: str, method: str
    ) -> set[int]:
        nodes: set[int] = set()
        for stmt in iter_statements(fn.node):
            for root in executed_exprs(stmt):
                if root is None:
                    continue
                for sub in ast.walk(root):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == method
                        and self._unparse(sub.func.value) == key
                    ):
                        nodes.update(cfg.nodes_for(stmt))
        return nodes


# -- SIG001: async-signal-safe handlers ---------------------------------------


@register_whole_program_rule
class SignalHandlerSafetyRule(WholeProgramRule):
    """SIG001: signal handlers only do async-signal-safe work.

    Every function registered via ``signal.signal(...)`` — and every
    project function it transitively calls, following the call graph —
    may only perform operations from the allowlist (``os._exit``,
    ``os.write``, ``os.kill``, ``signal.*`` re-arms) or plain
    assignments (setting a flag for the main loop to observe). A Python
    handler runs between two arbitrary bytecodes: allocating, locking,
    buffered I/O (``print``/``open``/``logging``) or pipe traffic from
    there deadlocks or corrupts state that was mid-mutation.

    An adjudicated helper is declared in source::

        # concurrency: signal-safe -- only writes one byte to the wakeup fd
        def _notify(fd: int) -> None: ...

    Calls to flagged functions are trusted and their bodies skipped.
    Handlers that are not project functions (``signal.SIG_IGN``,
    ``SIG_DFL``) are out of scope. Suppress one call with
    ``# lint: allow[SIG001] -- why``.
    """

    name = "SIG001"
    description = (
        "a function registered via signal.signal (or one it transitively "
        "calls) performs a non-async-signal-safe operation; set a flag "
        "or adjudicate with '# concurrency: signal-safe'"
    )

    def run(self, index: ProjectIndex) -> list[Finding]:
        aliases = _aliases_for(index)
        findings: list[Finding] = []
        flagged: set[tuple] = set()
        for fn in index.functions.values():
            al = aliases.get(fn.path)
            if al is None:
                continue
            typer: _Typer | None = None
            for site in fn.calls:
                if not _is_signal_register(site.call, al):
                    continue
                hexpr = _handler_expr(site.call)
                if hexpr is None:
                    continue
                if typer is None:
                    typer = _Typer(index, fn)
                for handler in _resolve_function_ref(index, typer, fn, hexpr):
                    registration = f"{fn.path}:{site.stmt.lineno}"
                    findings.extend(
                        self._check_handler(
                            index, handler, registration, flagged
                        )
                    )
        return findings

    def _check_handler(
        self,
        index: ProjectIndex,
        handler: FunctionInfo,
        registration: str,
        flagged: set[tuple],
    ) -> list[Finding]:
        if SIGNAL_SAFE in handler.flags:
            return []
        findings: list[Finding] = []
        visited: set[str] = set()
        stack = [handler]
        while stack:
            fn = stack.pop()
            if fn.qualname in visited:
                continue
            visited.add(fn.qualname)
            for site in fn.calls:
                if site.resolutions:
                    for q in site.resolutions:
                        callee = index.functions[q]
                        if SIGNAL_SAFE in callee.flags:
                            continue  # adjudicated: trusted, body skipped
                        stack.append(callee)
                    continue
                if site.callee_repr in _SIGNAL_SAFE_CALLS:
                    continue
                key = (handler.qualname, fn.path, site.stmt.lineno,
                       site.callee_repr)
                if key in flagged:
                    continue
                flagged.add(key)
                findings.append(
                    _finding(
                        index,
                        self.name,
                        fn,
                        site.stmt,
                        f"call to {site.callee_repr}() is not "
                        f"async-signal-safe but runs inside signal "
                        f"handler {handler.qualname} (registered at "
                        f"{registration}); set a flag for the main loop "
                        f"instead, or mark the callee "
                        f"'# concurrency: {SIGNAL_SAFE}'",
                    )
                )
        return findings


# -- PIPE001: cross-process message pairing ----------------------------------


@register_whole_program_rule
class MessagePairingRule(WholeProgramRule):
    """PIPE001: every cross-process message marker has a peer.

    A function marked ``# protocol: sends[job]`` requires a
    ``receives[job]`` peer somewhere in the linted project (and
    ``receives`` requires ``sends``), extending the protocol layer's
    call-pairing rule across the process boundary: the pool's job/result
    message protocol cannot silently lose one side. Pipe-end lifecycles
    are ``RES001``'s and the pipe typestate is ``PIPE002``'s, both in
    :mod:`repro.lint.dataflow`.

    Suppress with ``# lint: allow[PIPE001] -- why``.
    """

    name = "PIPE001"
    description = (
        "a '# protocol: sends[k]' or 'receives[k]' cross-process message "
        "marker has no peer in the linted project"
    )

    def run(self, index: ProjectIndex) -> list[Finding]:
        senders: dict[str, list[FunctionInfo]] = {}
        receivers: dict[str, list[FunctionInfo]] = {}
        for fn in index.functions.values():
            for key in fn.marker_keys("sends"):
                senders.setdefault(key, []).append(fn)
            for key in fn.marker_keys("receives"):
                receivers.setdefault(key, []).append(fn)
        findings: list[Finding] = []
        for key in sorted(set(senders) - set(receivers)):
            for fn in senders[key]:
                findings.append(
                    _finding(
                        index,
                        self.name,
                        fn,
                        fn.node,
                        f"marked sends[{key}] but no function in the linted "
                        f"project is marked receives[{key}]; the "
                        f"cross-process message protocol is one-sided",
                    )
                )
        for key in sorted(set(receivers) - set(senders)):
            for fn in receivers[key]:
                findings.append(
                    _finding(
                        index,
                        self.name,
                        fn,
                        fn.node,
                        f"marked receives[{key}] but no function in the "
                        f"linted project is marked sends[{key}]; the "
                        f"cross-process message protocol is one-sided",
                    )
                )
        return findings


def prewarm(index: ProjectIndex) -> None:
    """Materialize this layer's shared memos on ``index``.

    The parallel driver calls this in the parent before forking the
    whole-program rule sweep: the per-module alias scan and the
    ``Process(target=...)`` closure set are each computed once here and
    inherited by every rule worker through copy-on-write memory, instead
    of being redundantly recomputed inside each forked shard.
    """
    _aliases_for(index)
    _process_targets(index)
