"""Interprocedural dataflow: determinism taint and resource lifecycles.

This is the third lint layer. The per-file rules (``DET001``–``DET003``)
see *occurrences* — a ``time.perf_counter()`` call, a set iterated — but
not where the value goes. The protocol layer (``TLBGEN``/``SHOOT``/
``SPAN``/``PROV``) sees *call pairings* but not values at all. This
module sees value flow: a fixed-point taint engine over the statement
CFGs of :mod:`repro.lint.flow` and the call graph of
:mod:`repro.lint.callgraph`, with per-function summaries solved by
:func:`repro.lint.callgraph.least_fixpoint` over the call graph plus
attribute writer -> reader edges.

Four rules ride on it:

``DETFLOW001`` — a *nondeterministic value* (wall clock, OS entropy,
``os.getpid()``, ``id()``, an unseeded RNG) reaches a *determinism
sink*: a function marked ``# dataflow: sink[determinism]`` (the fleet's
``job_key``, report ``to_dict`` payloads with replay contracts, the
trace ring's ``_record``). Findings anchor at the **source** — the line
that produced the nondeterminism — because that is where the fix goes.

``RES001`` — an acquired handle (``multiprocessing.Pipe`` ends, a
started ``Process``, a bare ``open()`` file) has a CFG path — raise
edges included — that reaches a terminal without the handle being
released (``.close()`` / ``.join()``), escaping (stored on ``self``,
returned, handed to an unknown callee or a callee whose summary releases
it), or being managed by ``with``. A ``Connection`` parameter of a
``Process`` target is acquired at entry and must be released on every
normal path. The same rule pins the supervisor's reaping discipline:
every ``.terminate()`` / ``.kill()`` must be followed by ``.join()`` on
every normal path.

``RES002`` — a temp file created for atomic publication (a path whose
name contains ``.tmp``, written via ``open()``/``write_text``) must
reach ``os.replace``/``.rename``/``.unlink`` on every **normal** path.
Exception paths are excused: the fleet cache's documented stale-tmp
sweep (``ResultCache.put``) reclaims those, and RES002 verifies exactly
that pairing of disciplines.

``PIPE002`` — a ``Connection`` (a ``Pipe()`` end or a
``Connection``-annotated parameter) is used (``send``/``recv``/``poll``)
or closed again on a path after ``.close()``.

Set-iteration *order* is not tracked here: every place where it could
enter a value — a ``for``/``async for``, a list/dict/generator comprehension,
``list``/``tuple``/``iter``/``enumerate`` or ``str.join`` over a set
expression — is a syntactic site that the per-file ``DET002`` flags.

Sanctioned wrappers are declared in source, next to the code they bless,
with the marker grammar of :mod:`repro.lint.callgraph`::

    # dataflow: sanitizes[nondet] -- virtual time: deterministic by contract
    def tick(self) -> float: ...

``sanitizes[nondet]`` launders taint (the virtual clock, crc32-seeding
helpers); ``source[nondet]`` introduces it at every call site;
``sink[determinism]`` makes a function a sink — every argument flowing
in and every value flowing out of its return must be deterministic.

**The incremental cache.** Whole-program taint costs one CFG + one taint
graph per function, every run. Because module IR depends only on that
module's source plus the *resolution environment* (the class hierarchy
and marker set of the whole project), each module's extracted IR is
cached on disk keyed by ``sha256(module source)`` and validated against
a project-wide **ABI digest** (classes, bases, methods, attribute types,
markers, function signatures). A warm ``lint --whole-program`` re-extracts
only modules whose content changed — everything else loads from cache.
Cache entries are published atomically exactly like the fleet's
``ResultCache``: write to ``<key>.tmp.<pid>``, fsync, ``os.replace``,
then sweep stale tmps; a checksum field detects torn writes. Stats
(hits/misses per run) surface in ``lint --format json`` and
``lint --stats FILE`` and are asserted in CI (warm runs must hit ≥90%).
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.lint.callgraph import (
    FunctionInfo,
    ProjectIndex,
    least_fixpoint,
    parse_annotation,
)
from repro.lint.concurrency import _process_targets
from repro.lint.core import (
    Finding,
    ParsedModule,
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
from repro.lint.parallel import fork_map
from repro.lint.rules_determinism import (
    _BANNED_CALLS,
    _TRACKED_MODULES,
    _canonical,
)

#: Cache entry schema — part of every entry and of the ABI digest, so an
#: engine change invalidates every cached summary at once.
IR_SCHEMA = "repro-lint-dataflow/3"

#: Environment override for the summary-cache directory.
CACHE_ENV = "REPRO_LINT_CACHE_DIR"

#: Default cache directory name, created next to ``lint-baseline.json``.
CACHE_DIRNAME = ".lint-cache"

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

# -- nondeterministic sources -------------------------------------------------
# DET001's banned-call tables, plus the value-flow-only sources the
# per-file rule deliberately ignores (os.getpid is fine to *call*; it is
# only a bug when the pid reaches a replayed payload).

_NONDET_EXTRA: dict[str, frozenset[str]] = {
    "os": frozenset({"getpid", "getppid"}),
    "time": frozenset(),
}

_MP_ALIASES = {"multiprocessing", "multiprocessing.Pipe", "multiprocessing.Process"}

#: Builtins whose result never carries taint from their arguments.
_TAINT_STOPPERS = frozenset(
    {"len", "bool", "isinstance", "issubclass", "range", "type", "repr", "callable"}
)

#: Builtins whose result carries exactly their arguments' taint.
_TAINT_PASSERS = frozenset({"sorted", "set", "frozenset"})

#: Methods that transfer payload over (or probe) an open Connection.
_CONN_USES = frozenset(
    {"send", "recv", "poll", "send_bytes", "recv_bytes", "recv_bytes_into"}
)

#: Method names that mutate their receiver in place (taint carriers, and
#: container-escape sinks for handles).
_MUTATORS = frozenset(
    {"append", "add", "extend", "insert", "update", "setdefault", "appendleft"}
)


def _tracked_aliases(tree: ast.Module) -> dict[str, str]:
    """local name -> canonical dotted module, for source/resource tables."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _TRACKED_MODULES:
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        _TRACKED_MODULES[alias.name]
                    )
                elif alias.name == "multiprocessing":
                    aliases[alias.asname or "multiprocessing"] = "multiprocessing"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "multiprocessing":
                for alias in node.names:
                    if alias.name in ("Pipe", "Process"):
                        aliases[alias.asname or alias.name] = (
                            f"multiprocessing.{alias.name}"
                        )
    return aliases


def _nondet_desc(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Description when ``call`` syntactically produces a nondeterministic
    value, else ``None``. Mirrors DET001's tables plus getpid/id()."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "id":
            return "id() (a per-process memory address)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    owner = _canonical(func.value, aliases)
    if owner is None:
        return None
    attr = func.attr
    # Seeded constructors are the sanctioned pattern; unseeded are sources.
    if owner == "random" and attr == "Random":
        return "random.Random() without a seed" if not call.args and not call.keywords else None
    if owner == "numpy.random" and attr == "default_rng":
        return (
            "np.random.default_rng() without a seed"
            if not call.args and not call.keywords
            else None
        )
    banned = _BANNED_CALLS.get(owner)
    if owner in _BANNED_CALLS and banned is None:
        return f"{owner}.{attr}() (global unseeded state)"
    if banned is not None and attr in banned:
        return f"{owner}.{attr}()"
    if attr in _NONDET_EXTRA.get(owner, ()):
        return f"{owner}.{attr}()"
    return None


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, Any]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    kwonly = [a.arg for a in args.kwonlyargs]
    return {
        "pos": names,
        "kwonly": kwonly,
        "vararg": args.vararg.arg if args.vararg else None,
        "kwarg": args.kwarg.arg if args.kwarg else None,
    }


# -- per-function IR extraction -----------------------------------------------


class _FunctionExtractor:
    """Lowers one function body into the serializable taint/resource IR."""

    def __init__(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        parsed: ParsedModule,
        aliases: dict[str, str],
    ):
        from repro.lint.callgraph import _Typer

        self.index = index
        self.fn = fn
        self.parsed = parsed
        self.aliases = aliases
        self.typer = _Typer(index, fn)
        self.cfg = build_cfg(fn.node)
        self.call_sites = {id(site.call): site for site in fn.calls}
        self.edges: dict[str, set[str]] = {}
        self.calls: list[dict] = []
        self.sources: list[dict] = []
        self.returns: list[dict] = []
        self.res: dict[str, list[dict]] = {
            "acquires": [],
            "releases": [],
            "escapes": [],
            "callpass": [],
            "terminates": [],
            "joins": [],
            "conn_ops": [],
            "rebinds": [],
        }
        self._counter = 0
        self._call_nodes: dict[int, set[str]] = {}  # id(ast.Call) -> dep nodes
        # Names holding ".tmp" paths / mp contexts / mp Process objects /
        # Connections (Pipe() ends and Connection-annotated parameters).
        self.tmpvars: set[str] = set()
        self.ctxvars: set[str] = set()
        self.procvars: set[str] = set()
        self.connvars: set[str] = set()
        self._prescan()

    # -- small helpers --------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}:{self._counter}"

    def _edge(self, dst: str, srcs: Iterable[str]) -> None:
        if srcs:
            self.edges.setdefault(dst, set()).update(srcs)

    def _context(self, line: int) -> str:
        lines = self.parsed.source_lines
        return lines[line - 1].strip() if 1 <= line <= len(lines) else ""

    def _node_ids(self, stmt: ast.stmt) -> list[int]:
        return self.cfg.nodes_for(stmt)

    # -- pre-scan: tmp paths, mp contexts, Process locals ---------------------

    def _prescan(self) -> None:
        for stmt in iter_statements(self.fn.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if any(
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and ".tmp" in sub.value
                for sub in ast.walk(stmt.value)
            ):
                self.tmpvars.update(names)
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if (
                        sub.func.attr == "get_context"
                        and _canonical(sub.func.value, self.aliases)
                        == "multiprocessing"
                    ):
                        self.ctxvars.update(names)
                if self._mp_call_kind(sub) == "process":
                    self.procvars.update(names)
        args = self.fn.node.args
        self.connparams = [
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if parse_annotation(a.annotation) == ("class", "Connection")
        ]
        self.connvars.update(self.connparams)
        for stmt in iter_statements(self.fn.node):
            self.connvars.update(self._pipe_ends(stmt))

    def _pipe_ends(self, stmt: ast.stmt) -> list[str]:
        """Names ``stmt`` unpacks a ``Pipe()`` into (``a, b = Pipe()``)."""
        if not isinstance(stmt, ast.Assign) or self._mp_call_kind(stmt.value) != "pipe":
            return []
        return [
            elt.id
            for target in stmt.targets
            if isinstance(target, (ast.Tuple, ast.List))
            for elt in target.elts
            if isinstance(elt, ast.Name)
        ]

    def _mp_call_kind(self, expr: ast.AST) -> str | None:
        """"pipe"/"process" when ``expr`` constructs that mp object."""
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            target = self.aliases.get(func.id)
            if target == "multiprocessing.Pipe":
                return "pipe"
            if target == "multiprocessing.Process":
                return "process"
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base_is_mp = (
                self.aliases.get(func.value.id) == "multiprocessing"
                or func.value.id in self.ctxvars
            )
            if base_is_mp and func.attr == "Pipe":
                return "pipe"
            if base_is_mp and func.attr == "Process":
                return "process"
        return None

    # -- expression lowering --------------------------------------------------

    def _expr_deps(self, expr: ast.AST) -> set[str]:
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Name):
            return {f"v:{expr.id}"}
        if isinstance(expr, ast.Attribute):
            node = self._attr_node(expr)
            if node is not None:
                return {node}
            return self._expr_deps(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_deps(expr)
        if isinstance(expr, ast.Lambda):
            return set()  # deferred execution; the body runs elsewhere
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            deps: set[str] = set()
            for child in ast.iter_child_nodes(expr):
                deps |= self._expr_deps(child)
            return deps
        if isinstance(expr, ast.comprehension):
            return self._expr_deps(expr.iter) | {
                d for cond in expr.ifs for d in self._expr_deps(cond)
            }
        deps = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                deps |= self._expr_deps(child)
            elif isinstance(child, ast.FormattedValue):
                deps |= self._expr_deps(child.value)
        if isinstance(expr, ast.keyword):
            deps |= self._expr_deps(expr.value)
        return deps

    def _attr_node(self, expr: ast.Attribute) -> str | None:
        """``a:Class.attr`` when the receiver types to a project class."""
        base = self.typer.infer(expr.value)
        if base is not None and base[0] == "class":
            if self.index._unique_class(base[1]) is not None:
                return f"a:{base[1]}.{expr.attr}"
        return None

    def _call_deps(self, call: ast.Call) -> set[str]:
        cached = self._call_nodes.get(id(call))
        if cached is not None:
            return set(cached)
        deps = self._call_deps_uncached(call)
        self._call_nodes[id(call)] = set(deps)
        return deps

    def _call_deps_uncached(self, call: ast.Call) -> set[str]:
        func = call.func
        arg_deps = [self._expr_deps(a) for a in call.args]
        kw_deps = {
            (kw.arg or "**"): self._expr_deps(kw.value) for kw in call.keywords
        }
        all_args: set[str] = set().union(*arg_deps) if arg_deps else set()
        for deps in kw_deps.values():
            all_args |= deps

        # Builtins with special taint behavior.
        if isinstance(func, ast.Name):
            if func.id in _TAINT_STOPPERS:
                return set()
            if func.id in _TAINT_PASSERS:
                return all_args

        desc = _nondet_desc(call, self.aliases)
        if desc is not None:
            node = self._fresh("s")
            self.sources.append(
                {"node": node, "kind": "nondet", "line": call.lineno, "desc": desc}
            )
            return {node}

        site = self.call_sites.get(id(call))
        recv = (
            self._expr_deps(func.value) if isinstance(func, ast.Attribute) else set()
        )
        node = self._fresh("c")
        record = {
            "node": node,
            "refs": sorted(site.resolutions) if site is not None else [],
            "repr": site.callee_repr if site is not None else "<call>",
            "bound": isinstance(func, ast.Attribute),
            "recv": sorted(recv),
            "pos": [sorted(d) for d in arg_deps],
            "kw": {k: sorted(v) for k, v in kw_deps.items()},
            "line": call.lineno,
            "col": call.col_offset,
            "context": self._context(call.lineno),
        }
        self.calls.append(record)
        return {node}

    # -- statement lowering ---------------------------------------------------

    def extract(self) -> dict:
        params = _param_names(self.fn.node)
        for p in params["pos"] + params["kwonly"]:
            self._edge(f"v:{p}", {f"p:{p}"})
        for extra in (params["vararg"], params["kwarg"]):
            if extra:
                self._edge(f"v:{extra}", {f"p:{extra}"})
        # A Connection parameter is owned from entry when the function is
        # a Process target; RES001 decides that against the whole program.
        for name in self.connparams:
            self._acquire(
                self.fn.node, name, "conn-param", "Connection parameter",
                node_ids=[self.cfg.entry],
            )
        for stmt in iter_statements(self.fn.node):
            self._stmt(stmt)
            self._resources(stmt)
        return {
            "qualname": self.fn.qualname,
            "module": self.fn.module,
            "path": self.fn.path,
            "cls": self.fn.cls,
            "name": self.fn.name,
            "line": self.fn.lineno,
            "params": params,
            "edges": {dst: sorted(srcs) for dst, srcs in sorted(self.edges.items())},
            "calls": self.calls,
            "sources": self.sources,
            "returns": self.returns,
            "cfg": _serialize_cfg(self.cfg),
            "res": self.res,
        }

    def _bind_target(self, target: ast.AST, deps: set[str]) -> None:
        if isinstance(target, ast.Name):
            self._edge(f"v:{target.id}", deps)
        elif isinstance(target, ast.Attribute):
            node = self._attr_node(target)
            if node is not None:
                self._edge(node, deps)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, deps)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, deps)
        elif isinstance(target, ast.Subscript):
            # Storing a tainted value into a container taints the container.
            if isinstance(target.value, ast.Name):
                self._edge(f"v:{target.value.id}", deps)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            deps = self._expr_deps(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, deps)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind_target(stmt.target, self._expr_deps(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            deps = self._expr_deps(stmt.value)
            if isinstance(stmt.target, ast.Name):
                deps = deps | {f"v:{stmt.target.id}"}
            self._bind_target(stmt.target, deps)
        elif isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                deps = self._expr_deps(stmt.value)
                self._edge("ret", deps)
                self.returns.append(
                    {"line": stmt.lineno, "context": self._context(stmt.lineno)}
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(stmt.target, self._expr_deps(stmt.iter))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                deps = self._expr_deps(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, deps)
        else:
            for root in executed_exprs(stmt):
                self._expr_deps(root)
        # Mutating method calls taint their receiver with the argument:
        # rows.append(tainted) makes rows tainted.
        for root in executed_exprs(stmt):
            for sub in ast.walk(root if isinstance(root, ast.AST) else stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATORS
                    and isinstance(sub.func.value, ast.Name)
                ):
                    deps: set[str] = set()
                    for arg in sub.args:
                        deps |= self._expr_deps(arg)
                    self._edge(f"v:{sub.func.value.id}", deps)

    # -- resource records -----------------------------------------------------

    def _resources(self, stmt: ast.stmt) -> None:
        is_with = isinstance(stmt, (ast.With, ast.AsyncWith))
        with_exprs = (
            {id(item.context_expr) for item in stmt.items} if is_with else set()
        )
        for root in executed_exprs(stmt):
            for sub in ast.walk(root if isinstance(root, ast.AST) else stmt):
                if isinstance(sub, ast.Call):
                    self._resource_call(stmt, sub, in_with=id(sub) in with_exprs)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._rebind(stmt, stmt.target)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._rebind(stmt, target)
            self._resource_assign(stmt)
        elif isinstance(stmt, (ast.Return,)) and stmt.value is not None:
            for name in _names_in(stmt.value):
                self._escape(stmt, name, "returned")

    def _rebind(self, stmt: ast.stmt, target: ast.AST) -> None:
        """A Connection name bound to a fresh value (PIPE002 stops there)."""
        elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        for elt in elts:
            if isinstance(elt, ast.Name) and elt.id in self.connvars:
                self.res["rebinds"].append(
                    {"node_ids": self._node_ids(stmt), "var": elt.id}
                )

    def _resource_assign(self, stmt: ast.Assign) -> None:
        # A pipe end landing directly on an attribute has escaped at
        # birth — the object owns it now — so only named ends count.
        for name in self._pipe_ends(stmt):
            self._acquire(stmt, name, "pipe", "pipe end")
        # Escape by aliasing/containment: the raw value (or a container
        # holding it) now has a second name we don't track.
        target = stmt.targets[0]
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            for name in _names_in(stmt.value):
                self._escape(stmt, name, "stored")
        elif isinstance(target, ast.Name):
            for name in _container_names(stmt.value):
                self._escape(stmt, name, "aliased")

    def _resource_call(self, stmt: ast.stmt, call: ast.Call, *, in_with: bool) -> None:
        func = call.func
        # open(path) — a file handle, or the tmp-path obligation.
        if isinstance(func, ast.Name) and func.id == "open" and call.args:
            first = call.args[0]
            if isinstance(first, ast.Name) and first.id in self.tmpvars:
                self._acquire(stmt, first.id, "tmpfile", "tmp file on disk")
            if not in_with:
                bound = self._binding_name(stmt, call)
                if bound is not None:
                    self._acquire(stmt, bound, "file", "open file handle")
            return
        # Path.write_text / write_bytes on a tmp path.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("write_text", "write_bytes")
            and isinstance(func.value, ast.Name)
            and func.value.id in self.tmpvars
        ):
            self._acquire(stmt, func.value.id, "tmpfile", "tmp file on disk")
            return
        # proc.start() — a started worker process needs reaping.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "start"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.procvars
        ):
            self._acquire(stmt, func.value.id, "process", "started process")
            return
        if isinstance(func, ast.Attribute):
            recv = func.value
            recv_text = _safe_unparse(recv)
            if func.attr in ("terminate", "kill"):
                self.res["terminates"].append(
                    {
                        "node_ids": self._node_ids(stmt),
                        "recv": recv_text,
                        "word": func.attr,
                        "line": call.lineno,
                        "col": call.col_offset,
                        "context": self._context(call.lineno),
                    }
                )
            if func.attr == "join":
                self.res["joins"].append(
                    {"node_ids": self._node_ids(stmt), "recv": recv_text}
                )
            if isinstance(recv, ast.Name):
                if recv.id in self.connvars and (
                    func.attr == "close" or func.attr in _CONN_USES
                ):
                    self.res["conn_ops"].append(
                        {
                            "node_ids": self._node_ids(stmt),
                            "var": recv.id,
                            "op": func.attr,
                            "line": stmt.lineno,
                            "col": stmt.col_offset,
                        }
                    )
                if func.attr in ("close", "join", "terminate", "kill"):
                    self.res["releases"].append(
                        {
                            "node_ids": self._node_ids(stmt),
                            "var": recv.id,
                            "how": f".{func.attr}()",
                        }
                    )
                if func.attr in ("replace", "rename", "unlink") and recv.id in self.tmpvars:
                    self.res["releases"].append(
                        {
                            "node_ids": self._node_ids(stmt),
                            "var": recv.id,
                            "how": f".{func.attr}()",
                        }
                    )
            # os.replace(tmp, final) / os.rename / os.unlink release the path.
            owner = _canonical(func.value, self.aliases)
            if owner == "os" and func.attr in ("replace", "rename", "unlink", "remove"):
                for arg in call.args[:1]:
                    if isinstance(arg, ast.Name):
                        self.res["releases"].append(
                            {
                                "node_ids": self._node_ids(stmt),
                                "var": arg.id,
                                "how": f"os.{func.attr}()",
                            }
                        )
                return
        # Handing a handle to a callee: resolved project callees get a
        # transitive callpass record; anything unknown takes ownership.
        site = self.call_sites.get(id(call))
        refs = sorted(site.resolutions) if site is not None else []
        arg_names: list[tuple[str, int | None, str | None]] = []
        for i, arg in enumerate(call.args):
            for name in _names_in(arg):
                arg_names.append((name, i, None))
        for kw in call.keywords:
            for name in _names_in(kw.value):
                arg_names.append((name, None, kw.arg or "**"))
        if not arg_names:
            return
        bound = isinstance(call.func, ast.Attribute)
        if refs:
            for name, pos, kw in arg_names:
                self.res["callpass"].append(
                    {
                        "node_ids": self._node_ids(stmt),
                        "var": name,
                        "refs": refs,
                        "pos": pos,
                        "kw": kw,
                        "bound": bound,
                    }
                )
        else:
            for name, _, _ in arg_names:
                self._escape(stmt, name, "passed to an unknown callee")

    def _binding_name(self, stmt: ast.stmt, call: ast.Call) -> str | None:
        """The local name ``stmt`` binds ``call``'s result to, if any."""
        if (
            isinstance(stmt, ast.Assign)
            and stmt.value is call
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            return stmt.targets[0].id
        return None

    def _acquire(
        self,
        stmt: ast.stmt,
        var: str,
        kind: str,
        desc: str,
        node_ids: list[int] | None = None,
    ) -> None:
        line = getattr(stmt, "lineno", self.fn.lineno)
        self.res["acquires"].append(
            {
                "node_ids": self._node_ids(stmt) if node_ids is None else node_ids,
                "var": var,
                "kind": kind,
                "desc": desc,
                "line": line,
                "col": getattr(stmt, "col_offset", 0),
                "context": self._context(line),
            }
        )

    def _escape(self, stmt: ast.stmt, var: str, how: str) -> None:
        self.res["escapes"].append(
            {"node_ids": self._node_ids(stmt), "var": var, "how": how}
        )


def _names_in(expr: ast.AST) -> set[str]:
    """Names whose value ``expr`` may carry on: every name in it except
    a method-call receiver (``f(conn.recv())`` passes the message, not
    ``conn``)."""
    receivers = {
        id(n.func.value)
        for n in ast.walk(expr)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and id(n) not in receivers
    }


def _container_names(expr: ast.AST) -> set[str]:
    """Names aliased by binding ``expr`` to a new name: a bare name, or a
    name sitting directly inside a container display. Arithmetic or call
    results do *not* alias their operands."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        out: set[str] = set()
        for elt in expr.elts:
            out |= _container_names(elt)
        return out
    if isinstance(expr, ast.Dict):
        out = set()
        for value in expr.values:
            out |= _container_names(value)
        return out
    if isinstance(expr, ast.Starred):
        return _container_names(expr.value)
    return set()


def _safe_unparse(expr: ast.AST) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return "<expr>"


def _serialize_cfg(cfg: Cfg) -> dict:
    """The JSON form of ``cfg`` kept in the IR (see :func:`_thaw_cfg`)."""
    return {
        "entry": cfg.entry,
        "lines": {
            str(nid): getattr(node, "lineno", 0) for nid, node in cfg.nodes.items()
        },
        "normal": {str(s): sorted(d) for s, d in cfg.normal.items()},
        "raises": {str(s): sorted(d) for s, d in cfg.raises.items()},
    }


# -- the on-disk summary cache ------------------------------------------------


class SummaryCache:
    """Content-addressed per-module IR cache with atomic publication.

    Same discipline as the fleet's ``ResultCache``, restated here so the
    linter never imports the simulator: write ``<key>.tmp.<pid>``, fsync,
    ``os.replace`` to ``<key>.json``, sweep stale tmps for that key.
    Entries embed a sha256 checksum over their canonical payload; a torn
    or corrupt entry reads as a miss and is rewritten.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str, abi: str) -> dict | None:
        path = self._path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        checksum = entry.pop("checksum", None)
        digest = hashlib.sha256(
            json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        if (
            checksum != digest
            or entry.get("schema") != IR_SCHEMA
            or entry.get("abi") != abi
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = dict(entry)
        payload["checksum"] = hashlib.sha256(
            json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        path = self._path(key)
        tmp = path.parent / f"{key}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        for stale in path.parent.glob(f"{key}.tmp.*"):
            try:
                stale.unlink()
            except OSError:
                pass


def default_cache_dir(anchor: Path | None = None) -> Path | None:
    """``$REPRO_LINT_CACHE_DIR`` if set, else ``<repo root>/.lint-cache``
    when a repo root (a directory holding ``pyproject.toml`` or ``.git``)
    is findable from ``anchor``/cwd; ``None`` otherwise."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    probe = (anchor or Path.cwd()).resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate / CACHE_DIRNAME
    return None


def abi_digest(index: ProjectIndex) -> str:
    """Project-wide resolution-environment digest.

    Module IR bakes in call resolutions and attribute types, which depend
    on *other* modules (the class hierarchy, markers, basenames). Any
    change to that environment invalidates every cached entry at once —
    coarse, but sound, and the common warm case (no change at all) still
    hits on every module.
    """
    shape: dict[str, Any] = {"engine": IR_SCHEMA, "classes": {}, "functions": {}}
    for qualname, cls in sorted(index.classes.items()):
        shape["classes"][qualname] = {
            "bases": sorted(cls.bases),
            "methods": sorted(cls.methods),
            "attrs": {k: repr(v) for k, v in sorted(cls.attr_types.items())},
            "flags": sorted(cls.flags),
        }
    for qualname, fn in sorted(index.functions.items()):
        shape["functions"][qualname] = {
            "params": _param_names(fn.node),
            "markers": sorted((m.verb, m.key) for m in fn.markers),
            "returns": _safe_unparse(fn.node.returns) if fn.node.returns else "",
            "flags": sorted(fn.flags),
        }
    blob = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the interprocedural solver -----------------------------------------------

# Taint tokens: ("nondet", path, line, desc) | ("param", name). Param
# tokens are symbolic placeholders substituted with caller argument taint
# at each call site — that substitution *is* the per-function summary.


def _add_sink(sinks: dict[str, str], param: str, desc: str) -> None:
    """Record that ``param`` reaches the sink ``desc``, keeping the
    shortest description (ties: the lexicographically least) so the
    result does not depend on the order sinks are discovered in."""
    old = sinks.get(param)
    if old is None or (len(desc), desc) < (len(old), old):
        sinks[param] = desc


@dataclass
class _Summary:
    ret_tokens: set[tuple] = field(default_factory=set)
    #: param name -> description of the sink it reaches (see _add_sink).
    sink_params: dict[str, str] = field(default_factory=dict)
    releases: set[str] = field(default_factory=set)
    stores: set[str] = field(default_factory=set)

    def snapshot(self) -> tuple:
        # Descriptions only ever shrink, so including them keeps the
        # fixpoint finite while revisiting readers when one does.
        return (
            frozenset(self.ret_tokens),
            frozenset(self.sink_params.items()),
            frozenset(self.releases),
            frozenset(self.stores),
        )


class ProjectDataflow:
    """The solved whole-program analysis: IRs, summaries, findings."""

    def __init__(self, index: ProjectIndex, cache_dir: Path | None = None):
        self.index = index
        self.cache = SummaryCache(cache_dir) if cache_dir is not None else None
        self.irs: dict[str, dict] = {}
        self.summaries: dict[str, _Summary] = {}
        self.attr_env: dict[str, set[tuple]] = {}
        self.findings: dict[str, list[Finding]] = {
            "DETFLOW001": [],
            "RES001": [],
            "RES002": [],
            "PIPE002": [],
        }
        self.stats: dict[str, Any] = {
            "modules": 0,
            "functions": 0,
            "summary_hits": 0,
            "summary_misses": 0,
            "cache_dir": str(cache_dir) if cache_dir else None,
        }
        self.abi = abi_digest(index)
        self._extract_all()
        self._solve_summaries()
        self._collect_findings()

    # -- extraction / cache ---------------------------------------------------

    def _extract_all(self) -> None:
        by_path: dict[str, list[FunctionInfo]] = {}
        for fn in self.index.functions.values():
            by_path.setdefault(fn.path, []).append(fn)
        # Cache probes stay serial in this process (they're cheap and the
        # cache object owns its hit/miss counters); only the misses — the
        # expensive AST lowering — are sharded across forked workers,
        # which inherit the parsed modules and the index through
        # copy-on-write memory. The parent alone publishes cache entries,
        # so the ``.lint-cache`` write discipline is unchanged.
        misses: list[tuple[str, ParsedModule, list[FunctionInfo]]] = []
        for parsed in sorted(self.index.modules, key=lambda m: m.path):
            self.stats["modules"] += 1
            fns = sorted(by_path.get(parsed.path, []), key=lambda f: f.qualname)
            key = hashlib.sha256(parsed.source.encode()).hexdigest()
            entry = self.cache.get(key, self.abi) if self.cache is not None else None
            if entry is not None:
                self.stats["summary_hits"] += 1
                for ir in entry["functions"]:
                    self.irs[ir["qualname"]] = _thaw_ir(ir)
                self.stats["functions"] += len(entry["functions"])
                continue
            self.stats["summary_misses"] += 1
            misses.append((key, parsed, fns))

        def _extract_module(
            item: tuple[str, ParsedModule, list[FunctionInfo]]
        ) -> list[dict]:
            _, parsed, fns = item
            aliases = _tracked_aliases(parsed.tree)
            return [
                _FunctionExtractor(self.index, fn, parsed, aliases).extract()
                for fn in fns
            ]

        jobs = getattr(self.index, "lint_jobs", 1)
        for (key, parsed, _), extracted in zip(
            misses, fork_map(_extract_module, misses, jobs)
        ):
            self.stats["functions"] += len(extracted)
            if self.cache is not None:
                self.cache.put(
                    key,
                    {
                        "schema": IR_SCHEMA,
                        "abi": self.abi,
                        "module": parsed.module,
                        "path": parsed.path,
                        "functions": extracted,
                    },
                )
            for ir in extracted:
                self.irs[ir["qualname"]] = _thaw_ir(ir)
        if self.cache is not None:
            self.stats["summary_hits"] = self.cache.hits
            self.stats["summary_misses"] = self.cache.misses

    # -- markers --------------------------------------------------------------

    def _marked(self, qualname: str, verb: str, key: str) -> bool:
        fn = self.index.functions.get(qualname)
        return fn is not None and fn.marked(verb, key)

    # -- taint evaluation -----------------------------------------------------

    def _eval(self, ir: dict) -> dict[str, set[tuple]]:
        env: dict[str, set[tuple]] = {}
        params = ir["params"]
        for p in params["pos"] + params["kwonly"]:
            env[f"p:{p}"] = {("param", p)}
        for extra in (params["vararg"], params["kwarg"]):
            if extra:
                env[f"p:{extra}"] = {("param", extra)}
        for src in ir["sources"]:
            env[src["node"]] = {(src["kind"], ir["path"], src["line"], src["desc"])}
        for _ in range(64):
            changed = False
            for call in ir["calls"]:
                new = self._call_tokens(ir, call, env)
                if not new <= env.get(call["node"], set()):
                    env.setdefault(call["node"], set()).update(new)
                    changed = True
            for dst, srcs in ir["edges"].items():
                acc = self._toks(srcs, env)
                if not acc <= env.get(dst, set()):
                    env.setdefault(dst, set()).update(acc)
                    changed = True
            if not changed:
                break
        return env

    def _toks(self, deps: Iterable[str], env: dict[str, set[tuple]]) -> set[tuple]:
        """The taint of ``deps``: attribute nodes from ``attr_env``, the
        rest from the function-local ``env``."""
        out: set[tuple] = set()
        for d in deps:
            out |= (self.attr_env if d.startswith("a:") else env).get(d, set())
        return out

    def _map_args(
        self, call: dict, callee_ir: dict, env: dict[str, set[tuple]]
    ) -> dict[str, set[tuple]]:
        """Caller-side taint per callee parameter name."""
        params = callee_ir["params"]
        pos_params = list(params["pos"])
        mapping: dict[str, set[tuple]] = {}

        def bind(name: str, deps: Iterable[str]) -> None:
            mapping.setdefault(name, set()).update(self._toks(deps, env))

        offset = 0
        if call["bound"] and callee_ir["cls"] is not None and pos_params:
            mapping[pos_params[0]] = self._toks(call["recv"], env)
            offset = 1
        for i, deps in enumerate(call["pos"]):
            idx = i + offset
            if idx < len(pos_params):
                bind(pos_params[idx], deps)
            elif params["vararg"]:
                bind(params["vararg"], deps)
        for kw, deps in call["kw"].items():
            if kw in pos_params or kw in params["kwonly"]:
                bind(kw, deps)
            elif params["kwarg"]:
                bind(params["kwarg"], deps)
            elif kw == "**":
                for p in pos_params + params["kwonly"]:
                    bind(p, deps)
        return mapping

    def _call_tokens(
        self, ir: dict, call: dict, env: dict[str, set[tuple]]
    ) -> set[tuple]:
        all_args: set[tuple] = self._toks(call["recv"], env)
        for deps in call["pos"]:
            all_args |= self._toks(deps, env)
        for deps in call["kw"].values():
            all_args |= self._toks(deps, env)
        refs = call["refs"]
        if not refs:
            return all_args  # unknown callee: conservative pass-through
        out: set[tuple] = set()
        for q in refs:
            if self._marked(q, "sanitizes", "nondet"):
                continue
            if self._marked(q, "source", "nondet"):
                out.add(
                    ("nondet", ir["path"], call["line"], f"{q}() (marked source[nondet])")
                )
                continue
            callee_ir = self.irs.get(q)
            summary = self.summaries.get(q)
            if callee_ir is None or summary is None:
                out |= all_args
                continue
            pmap = self._map_args(call, callee_ir, env)
            for tok in summary.ret_tokens:
                if tok[0] == "param":
                    out |= pmap.get(tok[1], set())
                else:
                    out.add(tok)
        return out

    # -- summary fixpoint -----------------------------------------------------

    def _sink_param_names(self, qualname: str) -> dict[str, str]:
        """Callee params whose taint lands in a sink: every param of a
        ``sink[determinism]``-marked function, plus transitive ones."""
        out: dict[str, str] = {}
        summary = self.summaries.get(qualname)
        if summary is not None:
            out.update(summary.sink_params)
        if self._marked(qualname, "sink", "determinism"):
            ir = self.irs.get(qualname)
            if ir is not None:
                params = ir["params"]
                for p in params["pos"] + params["kwonly"]:
                    _add_sink(out, p, f"{qualname}()")
                for extra in (params["vararg"], params["kwarg"]):
                    if extra:
                        _add_sink(out, extra, f"{qualname}()")
        return out

    def _solve_summaries(self) -> None:
        """Least fixpoint of every summary and of ``attr_env``. A function
        reads the summaries of its callees (``calls`` and ``callpass``
        refs) and the attribute nodes written by other functions."""
        writers: dict[str, set[str]] = {}
        for q, ir in self.irs.items():
            for dst in ir["edges"]:
                if dst.startswith("a:"):
                    writers.setdefault(dst, set()).add(q)
        graph: dict[str, set[str]] = {}
        for q, ir in self.irs.items():
            deps = {r for call in ir["calls"] for r in call["refs"]}
            deps.update(r for rec in ir["res"]["callpass"] for r in rec["refs"])
            for attr in _attr_reads(ir):
                deps |= writers.get(attr, set())
            graph[q] = deps
            self.summaries[q] = _Summary()
        least_fixpoint(graph, self._update_summary)

    def _update_summary(self, qualname: str) -> bool:
        ir = self.irs[qualname]
        summary = self.summaries[qualname]
        before = summary.snapshot()
        env = self._eval(ir)
        # Return summary: concrete + param tokens reaching `ret`.
        summary.ret_tokens |= env.get("ret", set())
        # Attr writes feed the global attribute environment.
        attrs_grew = False
        for dst in ir["edges"]:
            if dst.startswith("a:"):
                tokens = {t for t in env.get(dst, set()) if t[0] == "nondet"}
                if not tokens <= self.attr_env.get(dst, set()):
                    self.attr_env.setdefault(dst, set()).update(tokens)
                    attrs_grew = True
        # Sink-reaching params (transitive through call sites).
        own_sink = self._marked(qualname, "sink", "determinism")
        if own_sink:
            for tok in env.get("ret", set()):
                if tok[0] == "param":
                    _add_sink(summary.sink_params, tok[1], f"{qualname}()")
        for call in ir["calls"]:
            for q in call["refs"]:
                sink_params = self._sink_param_names(q)
                if not sink_params:
                    continue
                callee_ir = self.irs.get(q)
                if callee_ir is None:
                    continue
                pmap = self._map_args(call, callee_ir, env)
                for sp, desc in sink_params.items():
                    for tok in pmap.get(sp, set()):
                        if tok[0] == "param":
                            _add_sink(summary.sink_params, tok[1], desc)
        # Resource effects.
        params = set(
            ir["params"]["pos"]
            + ir["params"]["kwonly"]
            + [p for p in (ir["params"]["vararg"], ir["params"]["kwarg"]) if p]
        )
        for rec in ir["res"]["releases"]:
            if rec["var"] in params:
                summary.releases.add(rec["var"])
        for rec in ir["res"]["escapes"]:
            if rec["var"] in params:
                summary.stores.add(rec["var"])
        for rec in ir["res"]["callpass"]:
            if rec["var"] not in params:
                continue
            for q in rec["refs"]:
                callee = self.summaries.get(q)
                callee_ir = self.irs.get(q)
                if callee is None or callee_ir is None:
                    summary.stores.add(rec["var"])
                    continue
                target = _callpass_target(rec, callee_ir)
                if target is None:
                    continue
                if target in callee.releases:
                    summary.releases.add(rec["var"])
                if target in callee.stores:
                    summary.stores.add(rec["var"])
        return attrs_grew or summary.snapshot() != before

    # -- findings -------------------------------------------------------------

    def _context_for(self, path: str, line: int) -> str:
        parsed = self.index.modules_by_path.get(path)
        if parsed is not None and 1 <= line <= len(parsed.source_lines):
            return parsed.source_lines[line - 1].strip()
        return ""

    def _collect_findings(self) -> None:
        seen: set[tuple] = set()
        # Process targets are a whole-program fact, so they are resolved
        # here rather than baked into any one module's cached IR.
        targets = _process_targets(self.index)
        for qualname in sorted(self.irs):
            ir = self.irs[qualname]
            env = self._eval(ir)
            self._taint_findings(qualname, ir, env, seen)
            self._resource_findings(qualname, ir, targets)
        for rule in self.findings:
            self.findings[rule].sort(key=lambda f: (f.path, f.line, f.col, f.message))

    def _emit_taint(
        self, tok: tuple, sink_desc: str, at: str, seen: set[tuple]
    ) -> None:
        _, path, line, desc = tok
        key = (path, line, sink_desc)
        if key in seen:
            return
        seen.add(key)
        self.findings["DETFLOW001"].append(
            Finding(
                rule="DETFLOW001",
                path=path,
                line=line,
                col=0,
                message=(
                    f"nondeterministic value from {desc} flows into "
                    f"determinism sink {sink_desc} ({at}); replayed payloads "
                    "and cache keys must be pure functions of (config, seed)"
                ),
                context=self._context_for(path, line),
            )
        )

    def _taint_findings(
        self, qualname: str, ir: dict, env: dict[str, set[tuple]], seen: set[tuple]
    ) -> None:
        # Concrete taint reaching the return of a sink-marked function.
        if self._marked(qualname, "sink", "determinism"):
            for tok in env.get("ret", set()):
                if tok[0] == "nondet":
                    self._emit_taint(
                        tok, f"{qualname}()", f"reaches its return", seen
                    )
        # Concrete taint in an argument position that reaches a sink.
        for call in ir["calls"]:
            for q in call["refs"]:
                sink_params = self._sink_param_names(q)
                if not sink_params:
                    continue
                callee_ir = self.irs.get(q)
                if callee_ir is None:
                    continue
                pmap = self._map_args(call, callee_ir, env)
                for sp, desc in sink_params.items():
                    for tok in pmap.get(sp, set()):
                        if tok[0] == "nondet":
                            self._emit_taint(
                                tok,
                                desc,
                                f"via {call['repr']}() at "
                                f"{ir['path']}:{call['line']}",
                                seen,
                            )

    def _resource_findings(
        self, qualname: str, ir: dict, targets: set[str]
    ) -> None:
        if not (ir["res"]["acquires"] or ir["res"]["terminates"]):
            return
        cfg = _thaw_cfg(ir["cfg"])
        self._typestate_findings(qualname, ir, cfg)
        params = set(ir["params"]["pos"] + ir["params"]["kwonly"])
        by_var_sinks: dict[str, set[int]] = {}

        def sinks_for(var: str) -> set[int]:
            if var in by_var_sinks:
                return by_var_sinks[var]
            sinks: set[int] = set()
            for rec in ir["res"]["releases"]:
                if rec["var"] == var:
                    sinks.update(rec["node_ids"])
            for rec in ir["res"]["escapes"]:
                if rec["var"] == var:
                    sinks.update(rec["node_ids"])
            for rec in ir["res"]["callpass"]:
                if rec["var"] != var:
                    continue
                for q in rec["refs"]:
                    callee = self.summaries.get(q)
                    callee_ir = self.irs.get(q)
                    if callee is None or callee_ir is None:
                        sinks.update(rec["node_ids"])
                        continue
                    target = _callpass_target(rec, callee_ir)
                    if target is not None and (
                        target in callee.releases or target in callee.stores
                    ):
                        sinks.update(rec["node_ids"])
            by_var_sinks[var] = sinks
            return sinks

        for acq in ir["res"]["acquires"]:
            # A child main owns its Connection parameter by the pool
            # protocol; any other caller keeps the handles it passed in.
            owned_param = acq["kind"] == "conn-param"
            if owned_param:
                if qualname not in targets:
                    continue
            elif acq["var"] in params:
                continue
            rule = "RES002" if acq["kind"] == "tmpfile" else "RES001"
            # Process teardown reaps a child main's fds; the stale-tmp
            # sweep reclaims tmp files: both excuse raise edges.
            count_exc = acq["kind"] not in ("tmpfile", "conn-param")
            sinks = sinks_for(acq["var"])
            violation = None
            for node in acq["node_ids"]:
                violation = find_unprotected_path(
                    cfg,
                    node,
                    sinks,
                    inclusive=owned_param,
                    count_exception_paths=count_exc,
                )
                if violation is not None:
                    break
            if violation is None:
                continue
            where = _describe_path(ir["cfg"], violation)
            subject = f"{acq['desc']} `{acq['var']}` " + (
                f"of Process target {qualname}" if owned_param else "acquired here"
            )
            if rule == "RES001":
                message = (
                    f"{subject} can leak: "
                    f"a path ({where}) reaches "
                    f"{'a raise or ' if count_exc else ''}function exit "
                    f"without .close()/.join(), an ownership transfer, or a "
                    f"with-block"
                )
            else:
                message = (
                    f"tmp file `{acq['var']}` written here is not published "
                    f"or removed on a normal path ({where}); atomic "
                    f"publication requires os.replace()/unlink() before exit "
                    f"(exception paths are excused by the stale-tmp sweep)"
                )
            self.findings[rule].append(
                Finding(
                    rule=rule,
                    path=ir["path"],
                    line=acq["line"],
                    col=acq["col"],
                    message=message,
                    context=acq["context"],
                )
            )
        # terminate()/kill() must be followed by join() on the same
        # receiver: a signalled worker still needs reaping.
        join_nodes: dict[str, set[int]] = {}
        for rec in ir["res"]["joins"]:
            join_nodes.setdefault(rec["recv"], set()).update(rec["node_ids"])
        for rec in ir["res"]["terminates"]:
            sinks = join_nodes.get(rec["recv"], set())
            violation = None
            for node in rec["node_ids"]:
                violation = find_unprotected_path(cfg, node, sinks)
                if violation is not None:
                    break
            if violation is None:
                continue
            self.findings["RES001"].append(
                Finding(
                    rule="RES001",
                    path=ir["path"],
                    line=rec["line"],
                    col=rec["col"],
                    message=(
                        f"{rec['recv']}.{rec['word']}() is not followed by "
                        f"{rec['recv']}.join() on every path "
                        f"({_describe_path(ir['cfg'], violation)}); a signalled "
                        "worker must still be reaped"
                    ),
                    context=rec["context"],
                )
            )

    def _typestate_findings(self, qualname: str, ir: dict, cfg: Cfg) -> None:
        """PIPE002: no path from a ``.close()`` reaches a use or a second
        close of the same Connection. Each search stops at the first bad
        node it finds; that node then blocks the next search, so every
        bad node reachable from the close is reported once. Rebinds,
        escapes, every call handed the connection and the ``Pipe()``
        acquisition end the search too."""
        res = ir["res"]
        for var in sorted({rec["var"] for rec in res["conn_ops"]}):
            uses: dict[int, str] = {}
            closes: set[int] = set()
            at: dict[int, tuple[int, int]] = {}
            for rec in res["conn_ops"]:
                if rec["var"] != var:
                    continue
                for n in rec["node_ids"]:
                    at[n] = (rec["line"], rec["col"])
                    if rec["op"] == "close":
                        closes.add(n)
                    else:
                        uses[n] = rec["op"]
            if not closes:
                continue
            blockers = {
                n
                for key in ("rebinds", "escapes", "callpass")
                for rec in res[key]
                if rec["var"] == var
                for n in rec["node_ids"]
            }
            # Looping back through the Pipe() acquisition binds a fresh end.
            blockers.update(
                n
                for acq in res["acquires"]
                if acq["var"] == var and acq["kind"] == "pipe"
                for n in acq["node_ids"]
            )
            goals = set(at)
            reported: set[tuple] = set()
            for start in sorted(closes):
                stops = set(blockers)
                while True:
                    path = find_unprotected_path(
                        cfg, start, stops, goals=goals, count_exception_paths=True
                    )
                    if path is None:
                        break
                    node = path[-1]
                    stops.add(node)
                    if node in uses:
                        hit = f".{uses[node]}() after .close()"
                    else:
                        hit = "second .close() (double close)"
                    line, col = at[node]
                    if (line, hit) in reported:
                        continue
                    reported.add((line, hit))
                    self.findings["PIPE002"].append(
                        Finding(
                            rule="PIPE002",
                            path=ir["path"],
                            line=line,
                            col=col,
                            message=(
                                f"{qualname}: Connection `{var}`: {hit} — the "
                                f"typestate open -> send/recv -> closed admits "
                                f"no transition out of closed"
                            ),
                            context=self._context_for(ir["path"], line),
                        )
                    )


def _callpass_target(rec: dict, callee_ir: dict) -> str | None:
    """The callee parameter name a callpass record's argument binds to."""
    params = callee_ir["params"]
    pos_params = list(params["pos"])
    offset = 1 if rec["bound"] and callee_ir["cls"] is not None else 0
    if rec["kw"] is not None:
        if rec["kw"] in pos_params or rec["kw"] in params["kwonly"]:
            return rec["kw"]
        return params["kwarg"]
    idx = rec["pos"] + offset if rec["pos"] is not None else None
    if idx is not None:
        if idx < len(pos_params):
            return pos_params[idx]
        return params["vararg"]
    return None


def _describe_path(cfg: dict, path: list[int]) -> str:
    parts = []
    for node in path:
        if node == Cfg.EXIT:
            parts.append("exit")
        elif node == Cfg.RAISE:
            parts.append("raise")
        else:
            parts.append(f"line {cfg['lines'].get(str(node), '?')}")
    return " -> ".join(parts)


def _thaw_cfg(cfg: dict) -> Cfg:
    """A :class:`Cfg` rebuilt from its serialized form, for path search
    without re-lowering the AST. Only the edges survive: ``nodes`` stays
    empty and messages name lines through :func:`_describe_path`."""
    return Cfg(
        normal={int(k): set(v) for k, v in cfg["normal"].items()},
        raises={int(k): set(v) for k, v in cfg["raises"].items()},
        entry=cfg["entry"],
    )


def _attr_reads(ir: dict) -> set[str]:
    """The ``a:<Class.attr>`` nodes a function's IR reads."""
    deps = [src for srcs in ir["edges"].values() for src in srcs]
    for call in ir["calls"]:
        deps += call["recv"]
        deps += [d for arg in call["pos"] for d in arg]
        deps += [d for arg in call["kw"].values() for d in arg]
    return {d for d in deps if d.startswith("a:")}


def _thaw_ir(ir: dict) -> dict:
    """Normalize a (possibly JSON-roundtripped) IR record in place."""
    ir["edges"] = {dst: list(srcs) for dst, srcs in ir["edges"].items()}
    return ir


# -- entry points -------------------------------------------------------------


def get_dataflow(index: ProjectIndex) -> ProjectDataflow:
    """The (memoized) solved analysis for ``index``. The cache directory
    is read from ``index.dataflow_cache_dir`` when
    :func:`repro.lint.core.lint_paths` set one; direct API users get a
    cacheless in-memory run."""
    analysis = getattr(index, "_dataflow", None)
    if analysis is None:
        cache_dir = getattr(index, "dataflow_cache_dir", None)
        analysis = ProjectDataflow(
            index, Path(cache_dir) if cache_dir is not None else None
        )
        index._dataflow = analysis  # type: ignore[attr-defined]
    return analysis


class _DataflowRule(WholeProgramRule):
    def run(self, index: ProjectIndex) -> list[Finding]:
        return list(get_dataflow(index).findings[self.name])


@register_whole_program_rule
class NondetReachesSinkRule(_DataflowRule):
    """DETFLOW001: a nondeterministic **value** reaches a determinism sink.

    Sources: wall clocks (``time.time``/``perf_counter``/...), OS entropy
    (``os.urandom``, ``secrets.*``, unseeded ``random.Random()`` /
    ``np.random.default_rng()``), process identity (``os.getpid``,
    ``id()``), ``uuid.uuid1/4``, ``datetime.now``. Sinks: functions
    marked ``# dataflow: sink[determinism]`` — the fleet's ``job_key``,
    ``to_dict`` payloads with a replay contract, the trace ring's
    ``_record``.

    Sanctioned wrappers (``# dataflow: sanitizes[nondet]``): the virtual
    clock ``repro.trace.clock.TraceClock`` — virtual timestamps are
    deterministic by construction; derive timing from it, never from
    ``time.*``. Stable digests (``zlib.crc32``, ``hashlib.*``) of
    deterministic inputs are also fine — they carry no taint because
    their inputs carry none.

    Suppress a deliberate flow with
    ``# lint: allow[DETFLOW001] -- why`` on the source line.
    """

    name = "DETFLOW001"
    description = (
        "nondeterministic value (clock/entropy/pid) flows into a "
        "determinism sink (job keys, replayed payloads, the trace ring)"
    )


@register_whole_program_rule
class HandleLeakRule(_DataflowRule):
    """RES001: an acquired handle may leak on some CFG path.

    Acquires: ``multiprocessing.Pipe()`` ends bound to locals, a
    ``Process`` local that gets ``.start()``-ed, a bare ``open()`` bound
    to a local outside ``with``. Every acquire must, on **all** paths —
    raise edges included — reach a release (``.close()``/``.join()``), an
    ownership transfer (returned, stored on an attribute, handed to an
    unknown callee or to a callee whose summary releases/stores that
    parameter), or be managed by ``with``.

    A ``Connection``-annotated parameter of a ``Process(target=...)``
    function is acquired at entry: the child main owns its pipe end by
    the pool protocol. Its raise edges are excused — process teardown
    reaps the fd — so only normal paths must close or hand it off. A
    helper that merely borrows a ``Connection`` has no obligation.

    The same rule checks reaping: every ``.terminate()``/``.kill()``
    must be followed by ``.join()`` on the same receiver on every normal
    path — the supervisor's SIGTERM -> SIGKILL escalation stays honest
    because both signals funnel into a ``join()``.

    Sanctioned patterns: ``with`` blocks; storing the handle on ``self``
    at acquisition (the object's ``close()`` owns it from then on).
    Suppress with ``# lint: allow[RES001] -- why`` on the acquire line.
    """

    name = "RES001"
    description = (
        "acquired handle (pipe end, Process-target Connection parameter, "
        "process, file) can reach function exit or a raise without "
        "close/join/ownership-transfer"
    )


@register_whole_program_rule
class ConnectionTypestateRule(_DataflowRule):
    """PIPE002: no path uses a ``Connection`` after close, or closes it
    twice.

    Tracked connections are ``RES001``'s: ``Pipe()`` ends bound to
    locals and ``Connection``-annotated parameters. The typestate machine
    is *open -> send/recv/poll -> closed*; closed has no outgoing
    transitions. A ``.recv()`` after ``.close()`` raises ``OSError`` at
    runtime — in a pool worker that turns a clean shutdown into a crash
    outcome and a wasted recycle; a double ``.close()`` usually means two
    owners disagree about who ends the connection's life. Re-binding the
    name resets the machine; handing the connection off (an escape or a
    call argument) ends tracking.

    Suppress with ``# lint: allow[PIPE002] -- why``.
    """

    name = "PIPE002"
    description = (
        "a CFG path sends/recvs on a Connection after .close(), or "
        "closes it twice; the pipe typestate admits neither"
    )


@register_whole_program_rule
class TmpFilePublishRule(_DataflowRule):
    """RES002: a ``.tmp`` file must be published or removed on every
    normal path.

    A path whose name contains ``.tmp`` that gets written (``open(tmp,
    'w')``, ``tmp.write_text(...)``) is an atomic-publication intermediate:
    every normal path afterwards must hit ``os.replace(tmp, final)`` (the
    crash-safe publish), ``tmp.rename()``, or ``tmp.unlink()``. Exception
    paths are deliberately excused — the fleet cache's documented
    stale-tmp sweep (``ResultCache.put`` globs ``<key>.tmp.*`` after every
    publish) reclaims leftovers from crashed writers, and this rule is
    the static proof that the sweep discipline and the normal-path
    publish discipline line up.

    Suppress with ``# lint: allow[RES002] -- why`` on the write line.
    """

    name = "RES002"
    description = (
        "tmp file written for atomic publication can exit without "
        "os.replace()/unlink() on a normal path"
    )
