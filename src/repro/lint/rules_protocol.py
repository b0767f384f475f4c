"""Whole-program protocol rules: TLBGEN, SHOOT, PROV, SPAN.

Each rule here is a ~20-line declarative spec over the same engine: the
project call graph (:mod:`repro.lint.callgraph`) says *where obligations
arise* — at the entry of a ``# protocol: mutates[k]`` function, or at
every call site of a ``defers[k]``/``begins[k]`` function — and the CFG
reachability engine (:mod:`repro.lint.flow`) asks whether some path
escapes to a terminal without passing a *sink* (a primitive settle like
a ``generation`` store, a call to a ``settles[k]``/``ends[k]`` function,
or a call to a function *proven* to settle on every path — a least
fixpoint, so e.g. ``TlbHierarchy.invalidate_page`` counts as a
``tlb-generation`` sink for its callers because its own body always
bumps).

The shipped invariants:

* ``TLBGEN001`` — *tlb-generation*: evicting cached translations must
  bump ``TlbHierarchy.generation``, or the vector engine's
  generation-stamped fastpath tokens keep validating stale lookups.
* ``TLBGEN002`` — *translation-visibility*: mapping mutations that leave
  stale TLB entries (munmap/mprotect/replica teardown/migration) must
  reach a shootdown (``flush_all``/``flush_page``) on every normal path.
* ``SHOOT001`` — *shootdown-round*: every IPI round opened by
  ``_begin_round`` reaches ``_complete_round`` (cycle accounting), with
  no early return between them.
* ``PROV001`` — the PV-Ops store contract (§5.2, Listing 1) and the
  static twin of the runtime ``PTESanitizer``: every PTE store, in any
  scope of a module and including through a local alias of
  ``.entries``, must sit inside ``apply_entry_write``; messages carry
  call-graph provenance so a bypass names the syscall path that
  reaches it.
* ``SPAN001`` — *trace-session*: ``start_tracing`` reaches
  ``stop_tracing`` on **all** paths including exceptional ones, and
  ``TraceSession.span(...)``/``tracing(...)`` context managers are
  actually entered with ``with``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.callgraph import CallSite, FunctionInfo, ProjectIndex, least_fixpoint
from repro.lint.core import (
    Finding,
    ParsedModule,
    WholeProgramRule,
    register_whole_program_rule,
)
from repro.lint.flow import (
    _FUNC_TYPES,
    Cfg,
    build_cfg,
    executed_exprs,
    find_unprotected_path,
    iter_statements,
)


@dataclass(frozen=True)
class ProtocolSpec:
    """One must-reach protocol: obligations from markers, sinks by key."""

    key: str  # marker key, e.g. "tlb-generation"
    settle_hint: str  # human phrase for the expected sink
    store_sink_attr: str | None = None  # attr whose store is a primitive sink
    count_exception_paths: bool = False  # flag paths escaping via raise too


class ObligationRule(WholeProgramRule):
    """Engine shared by every marker-driven protocol rule."""

    spec: ProtocolSpec

    def run(self, index: ProjectIndex) -> list[Finding]:
        self._cfgs: dict[str, Cfg] = {}
        must_settle = self._must_settle(index)
        findings: list[Finding] = []
        for fn in index.functions.values():
            if self.spec.key in fn.marker_keys("defers", "begins"):
                continue  # the obligation is its callers' duty, not its own
            cfg = self._cfg(fn)
            sinks = self._sinks(fn, cfg, must_settle)
            if self.spec.key in fn.marker_keys("mutates"):
                path = find_unprotected_path(
                    cfg,
                    cfg.entry,
                    sinks,
                    inclusive=True,
                    count_exception_paths=self.spec.count_exception_paths,
                )
                if path is not None:
                    findings.append(
                        self._finding(
                            index,
                            fn,
                            fn.node,
                            f"mutates[{self.spec.key}] but can finish without "
                            f"settling it — expected {self.spec.settle_hint} "
                            f"on every path ({self._path_text(cfg, path)})",
                        )
                    )
                continue  # the entry obligation subsumes call-site ones
            for site in fn.calls:
                if not self._creates_obligation(index, site):
                    continue
                violation = None
                for node in cfg.nodes_for(site.stmt):
                    violation = find_unprotected_path(
                        cfg,
                        node,
                        sinks,
                        count_exception_paths=self.spec.count_exception_paths,
                    )
                    if violation is not None:
                        break
                if violation is not None:
                    findings.append(
                        self._finding(
                            index,
                            fn,
                            site.stmt,
                            f"call to {site.callee_repr}() defers "
                            f"[{self.spec.key}] to this caller, but a path "
                            f"skips {self.spec.settle_hint} "
                            f"({self._path_text(cfg, violation)})",
                        )
                    )
        return findings

    # -- obligation / sink classification ------------------------------------

    def _creates_obligation(self, index: ProjectIndex, site: CallSite) -> bool:
        return any(
            self.spec.key
            in index.functions[q].marker_keys("defers", "begins")
            for q in site.resolutions
        )

    def _sinks(
        self, fn: FunctionInfo, cfg: Cfg, must_settle: set[str]
    ) -> set[int]:
        sinks: set[int] = set()
        if self.spec.store_sink_attr is not None:
            for stmt in iter_statements(fn.node):
                if self._stores_attr(stmt, self.spec.store_sink_attr):
                    sinks.update(cfg.nodes_for(stmt))
        for site in fn.calls:
            if site.resolutions and all(
                q in must_settle for q in site.resolutions
            ):
                sinks.update(cfg.nodes_for(site.stmt))
        return sinks

    @staticmethod
    def _stores_attr(stmt: ast.stmt, attr: str) -> bool:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        return any(
            isinstance(t, ast.Attribute) and t.attr == attr for t in targets
        )

    def _must_settle(self, index: ProjectIndex) -> set[str]:
        """Least fixpoint of "calling this function settles the key":
        seeded by ``settles``/``ends`` markers, grown by functions whose
        every entry→exit path hits a sink under the current set."""
        settled = {
            fn.qualname
            for fn in index.functions.values()
            if self.spec.key in fn.marker_keys("settles", "ends")
        }

        def update(qualname: str) -> bool:
            fn = index.functions[qualname]
            if qualname in settled:
                return False
            if self.spec.key in fn.marker_keys("defers", "begins"):
                return False  # defers = explicitly does NOT settle
            cfg = self._cfg(fn)
            sinks = self._sinks(fn, cfg, settled)
            if not sinks or find_unprotected_path(
                cfg,
                cfg.entry,
                sinks,
                inclusive=True,
                count_exception_paths=self.spec.count_exception_paths,
            ):
                return False
            settled.add(qualname)
            return True

        least_fixpoint(index.call_graph(), update)
        return settled

    # -- plumbing ------------------------------------------------------------

    def _cfg(self, fn: FunctionInfo) -> Cfg:
        cfg = self._cfgs.get(fn.qualname)
        if cfg is None:
            cfg = self._cfgs[fn.qualname] = build_cfg(fn.node)
        return cfg

    @staticmethod
    def _path_text(cfg: Cfg, path: list[int]) -> str:
        return "unprotected path: " + " -> ".join(
            cfg.describe(node) for node in path
        )

    def _finding(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        anchor: ast.AST,
        detail: str,
    ) -> Finding:
        line = getattr(anchor, "lineno", fn.lineno)
        parsed = index.modules_by_path.get(fn.path)
        context = ""
        if parsed is not None and 1 <= line <= len(parsed.source_lines):
            context = parsed.source_lines[line - 1].strip()
        return Finding(
            rule=self.name,
            path=fn.path,
            line=line,
            col=getattr(anchor, "col_offset", 0),
            message=f"{fn.qualname}: {detail}",
            context=context,
        )


@register_whole_program_rule
class TlbGenerationRule(ObligationRule):
    """TLBGEN001: translation-cache eviction must bump the generation."""

    name = "TLBGEN001"
    description = (
        "TLB residency mutation must reach a TlbHierarchy.generation bump "
        "on every non-exception path (the vector engine's fastpath tokens "
        "validate against it)"
    )
    spec = ProtocolSpec(
        key="tlb-generation",
        settle_hint="a `generation` bump (or a call that provably bumps it)",
        store_sink_attr="generation",
    )


@register_whole_program_rule
class TranslationVisibilityRule(ObligationRule):
    """TLBGEN002: stale-translation producers must reach a shootdown."""

    name = "TLBGEN002"
    description = (
        "a mapping mutation that leaves stale TLB entries (munmap, "
        "mprotect, replica teardown, migration) must reach a TLB "
        "shootdown on every non-exception path"
    )
    spec = ProtocolSpec(
        key="translation-visibility",
        settle_hint="a shootdown (TlbShootdown.flush_all/flush_page)",
    )


@register_whole_program_rule
class ShootdownPairingRule(ObligationRule):
    """SHOOT001: every IPI round issued is completed (acked + charged)."""

    name = "SHOOT001"
    description = (
        "a shootdown round opened by _begin_round must reach "
        "_complete_round on every non-exception path; an early return "
        "leaves the round uncharged and unacked"
    )
    spec = ProtocolSpec(
        key="shootdown-round",
        settle_hint="_complete_round (ack + cycle accounting)",
    )


@register_whole_program_rule
class SpanPairingRule(ObligationRule):
    """SPAN001: trace sessions/spans are closed on every path."""

    name = "SPAN001"
    description = (
        "start_tracing must reach stop_tracing on all paths (including "
        "exceptional ones), and span()/tracing() context managers must "
        "be entered with `with`"
    )
    spec = ProtocolSpec(
        key="trace-session",
        settle_hint="stop_tracing",
        count_exception_paths=True,
    )

    #: (class, method-or-function name) pairs whose return value is a
    #: context manager that MUST be entered (or delegated) to close.
    _CM_FACTORIES = (("TraceSession", "span"), (None, "tracing"))

    def run(self, index: ProjectIndex) -> list[Finding]:
        findings = super().run(index)
        factory_qualnames = {
            fn.qualname
            for fn in index.functions.values()
            if (fn.cls, fn.name) in self._CM_FACTORIES
        }
        for fn in index.functions.values():
            if fn.qualname in factory_qualnames:
                continue
            for site in fn.calls:
                if not set(site.resolutions) & factory_qualnames:
                    continue
                if self._properly_entered(fn, site):
                    continue
                findings.append(
                    self._finding(
                        index,
                        fn,
                        site.stmt,
                        f"{site.callee_repr}() returns a span/tracing "
                        f"context manager that is never entered — use "
                        f"`with {site.callee_repr}(...)` (or bind it and "
                        f"`with` the name) so the span closes on every path",
                    )
                )
        return findings

    @staticmethod
    def _properly_entered(fn: FunctionInfo, site: CallSite) -> bool:
        stmt = site.stmt
        # Directly a with-item: `with session.span(...):` — including
        # wrapped forms like `tracing(s) if traced else nullcontext()`.
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if any(sub is site.call for sub in ast.walk(item.context_expr)):
                    return True
        # Delegated to the caller or an ExitStack.
        if isinstance(stmt, ast.Return):
            return True
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "enter_context"
                and any(site.call is s for a in sub.args for s in ast.walk(a))
            ):
                return True
        # Bound to a name that is later used as a with-item.
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            bound = stmt.targets[0].id
            for other in iter_statements(fn.node):
                if isinstance(other, (ast.With, ast.AsyncWith)):
                    for item in other.items:
                        for sub in ast.walk(item.context_expr):
                            if isinstance(sub, ast.Name) and sub.id == bound:
                                return True
        return False


#: The one blessed writer function. A raw entries store is legal only
#: when the innermost ``def`` around it has this name (the PV-Ops choke
#: point).
BLESSED_WRITER = "apply_entry_write"

_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)


def _is_entries_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "entries"


def _is_listlike(node: ast.AST | None) -> bool:
    """Does ``node`` syntactically build a list (a plausible PTE array)?

    Distinguishes ``page.entries = [0] * 512`` (a table-page array swap,
    in scope) from unrelated attributes that happen to be called
    ``entries`` (e.g. a TLB's integer capacity, out of scope).
    """
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    if isinstance(node, ast.BinOp):
        return _is_listlike(node.left) or _is_listlike(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "GuardedEntries")
    return False


def _entries_store_target(node: ast.AST, value: ast.AST | None = None) -> ast.AST | None:
    """The offending node when ``node`` is an assignment target that hits
    ``X.entries`` storage: ``X.entries[...]``, or ``X.entries`` itself
    being (re)bound to a list."""
    if isinstance(node, ast.Subscript) and _is_entries_attr(node.value):
        return node
    if _is_entries_attr(node) and _is_listlike(value):
        return node
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            hit = _entries_store_target(element, value)
            if hit is not None:
                return hit
    if isinstance(node, ast.Starred):
        return _entries_store_target(node.value, value)
    return None


@register_whole_program_rule
class PteProvenanceRule(WholeProgramRule):
    """PROV001: PTE stores outside ``apply_entry_write``, with provenance.

    Flags ``X.entries[...]`` stores, augmented stores and ``del``,
    list-mutator calls on ``X.entries``, a rebind of ``X.entries`` to a
    list, and stores or mutator calls through a local alias of
    ``X.entries`` — in every scope of a module: functions, nested defs,
    lambdas, class bodies and module level. A store is exempt when the
    innermost enclosing ``def`` is ``apply_entry_write``. Suppress a
    by-design store (hardware A/D bits) with
    ``# lint: allow[PROV001] -- why``.
    """

    name = "PROV001"
    description = (
        "page-table entry store outside apply_entry_write (including via "
        "a local alias of `.entries`); the runtime PTESanitizer would only "
        "catch this when the path is exercised"
    )

    def run(self, index: ProjectIndex) -> list[Finding]:
        self._index = index
        self._indexed = {id(fn.node): fn for fn in index.functions.values()}
        findings: list[Finding] = []
        for parsed in index.modules:
            self._scan(
                parsed, parsed.tree, f"{parsed.module}:<module>", None, None,
                findings,
            )
        return findings

    def _scan(
        self,
        parsed: ParsedModule,
        scope: ast.Module | ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef,
        label: str,
        owner: FunctionInfo | None,
        writer: str | None,
        findings: list[Finding],
    ) -> None:
        """Check ``scope``'s own statements, then every def/class nested
        in it. ``owner`` is the innermost indexed function around the
        scope (its callers give the provenance chain); ``writer`` is the
        innermost enclosing ``def`` name."""
        aliases = self._entry_array_aliases(scope)
        for stmt in iter_statements(scope):
            if isinstance(stmt, _FUNC_TYPES + (ast.ClassDef,)):
                child = self._indexed.get(id(stmt))
                if child is not None:
                    child_label = child.qualname
                elif isinstance(scope, ast.Module):
                    child_label = f"{parsed.module}:{stmt.name}"
                else:
                    sep = ".<locals>." if isinstance(scope, _FUNC_TYPES) else "."
                    child_label = f"{label}{sep}{stmt.name}"
                self._scan(
                    parsed,
                    stmt,
                    child_label,
                    child or owner,
                    stmt.name if isinstance(stmt, _FUNC_TYPES) else writer,
                    findings,
                )
                continue
            if writer == BLESSED_WRITER:
                continue
            hit = self._store_in(stmt, aliases)
            if hit is None:
                continue
            if owner is None:
                reach = "runs at import time"
            else:
                chain = self._index.caller_chain(owner.qualname)
                reach = (
                    "reachable via " + " <- ".join(chain)
                    if chain
                    else "no callers found in the linted sources"
                )
            line = stmt.lineno
            findings.append(
                Finding(
                    rule=self.name,
                    path=parsed.path,
                    line=line,
                    col=stmt.col_offset,
                    message=(
                        f"{label}: raw PTE store bypasses "
                        f"apply_entry_write ({hit}); {reach}"
                    ),
                    context=parsed.source_lines[line - 1].strip(),
                )
            )

    @staticmethod
    def _entry_array_aliases(scope: ast.AST) -> set[str]:
        """Local names bound to somebody's ``.entries`` array — stores
        through these bypass PV-Ops just as surely."""
        aliases: set[str] = set()
        for stmt in iter_statements(scope):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and _is_entries_attr(stmt.value)
            ):
                aliases.add(stmt.targets[0].id)
        return aliases

    @staticmethod
    def _store_in(stmt: ast.stmt, aliases: set[str]) -> str | None:
        def _alias_target(node: ast.AST) -> bool:
            return (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            )

        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            if _entries_store_target(target, value) is not None:
                return "direct `.entries` store"
            if _alias_target(target):
                return f"store through alias `{target.value.id}`"  # type: ignore[union-attr]
        for root in executed_exprs(stmt):
            if root is None:
                continue
            for sub in ast.walk(root):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _LIST_MUTATORS
                ):
                    base = sub.func.value
                    if _is_entries_attr(base) or (
                        isinstance(base, ast.Name) and base.id in aliases
                    ):
                        return f".{sub.func.attr}() on a PTE array"
        return None
