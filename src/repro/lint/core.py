"""Visitor core of the ``repro.lint`` static analyzer.

The machinery here is deliberately small: a :class:`Rule` is an
:class:`ast.NodeVisitor` with a class/function scope stack and a
``report()`` helper; a module-level registry maps rule names
(``PVOPS002``, ``DET001``, ...) to rule classes; :func:`lint_source` runs
every requested rule over one parsed module and then applies per-line
suppressions.

Every file is parsed **once** into a :class:`ParsedModule` and shared:
across rules, across the per-file and whole-program passes, and across
repeated runs in one process (:func:`parse_file` keeps a cache keyed by
``(path, mtime, size)``).

Two rule registries coexist:

* per-file rules (:class:`Rule`, :func:`register_rule`) see one module's
  AST at a time;
* whole-program rules (:class:`WholeProgramRule`,
  :func:`register_whole_program_rule`) run once over a
  :class:`~repro.lint.callgraph.ProjectIndex` of *all* linted files and
  can therefore check cross-module protocol invariants (see
  :mod:`repro.lint.rules_protocol`). They are opt-in:
  ``lint_paths(..., whole_program=True)`` or naming them in ``--rules``.

Suppressions are comments of the form::

    page.entries[i] = v  # lint: allow[PROV001] -- hardware A/D write, no PV-Ops by design

The justification after ``--`` is **required**: an allow-comment without
one does not suppress anything and is itself reported as ``LINT000``.  A
suppression on its own comment line applies to the next code line, so
long statements can keep their annotation above them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.callgraph import ProjectIndex

#: Meta-rule name for malformed suppressions (missing justification).
META_RULE = "LINT000"

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative posix path when resolvable, else as given
    line: int  # 1-based
    col: int  # 0-based, as ast reports it
    message: str
    #: The stripped source line — the stable part of a baseline fingerprint
    #: (survives line-number drift from unrelated edits).
    context: str = ""

    def fingerprint(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.context)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class LintResult:
    """Findings from one lint run plus per-file bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()
    #: Incremental-analysis cache stats from the dataflow layer
    #: (modules, functions, summary_hits, summary_misses, cache_dir);
    #: ``None`` when no dataflow rule ran.
    dataflow_stats: dict | None = None
    #: Wall-clock phase breakdown in seconds (parse, per_file, index,
    #: dataflow, whole_program, total) plus the shard count under
    #: ``jobs``; ``None`` for entry points that don't time themselves
    #: (:func:`lint_source`). Timings never feed the findings or the
    #: SARIF output, so ``--jobs N`` stays byte-identical to serial.
    timings: dict | None = None

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked

    def sorted_findings(self) -> list[Finding]:
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        )

    @property
    def ok(self) -> bool:
        return not self.findings


# -- shared parsing -----------------------------------------------------------


@dataclass
class ParsedModule:
    """One parsed source file, shared by every rule and analysis pass."""

    path: str  # display path, as findings report it
    module: str  # dotted module name, e.g. "repro.kernel.pvops"
    source: str
    source_lines: list[str]
    tree: ast.Module


#: Count of real ``ast.parse`` calls — observable evidence that the parse
#: cache works (see ``tests/lint/test_parse_cache.py``).
PARSE_CALLS = 0

#: resolved path -> ((mtime_ns, size), parsed module).
_PARSE_CACHE: dict[Path, tuple[tuple[int, int], ParsedModule]] = {}


def parse_source(
    source: str, *, path: str = "<string>", module: str | None = None
) -> ParsedModule:
    """Parse ``source`` once into a shareable :class:`ParsedModule`.

    Raises :class:`SyntaxError` like :func:`ast.parse`.
    """
    global PARSE_CALLS
    PARSE_CALLS += 1
    tree = ast.parse(source, filename=path)
    if module is None:
        module = _module_name(Path(path)) if path != "<string>" else "<string>"
    return ParsedModule(
        path=path,
        module=module,
        source=source,
        source_lines=source.splitlines(),
        tree=tree,
    )


def parse_file(file_path: Path) -> ParsedModule:
    """Parse ``file_path``, reusing the cached AST while the file is
    unchanged (same mtime and size)."""
    resolved = file_path.resolve()
    stat = resolved.stat()
    signature = (stat.st_mtime_ns, stat.st_size)
    cached = _PARSE_CACHE.get(resolved)
    if cached is not None and cached[0] == signature:
        return cached[1]
    parsed = parse_source(
        resolved.read_text(encoding="utf-8"),
        path=_display_path(file_path),
        module=_module_name(file_path),
    )
    _PARSE_CACHE[resolved] = (signature, parsed)
    return parsed


def clear_parse_cache() -> None:
    """Drop all cached ASTs (tests that rewrite files in place)."""
    _PARSE_CACHE.clear()


class Rule(ast.NodeVisitor):
    """Base class for lint rules: scope tracking + finding collection.

    Subclasses set ``name``/``description`` and implement ``visit_*``
    handlers. Handlers that override :meth:`visit_ClassDef` or
    :meth:`visit_FunctionDef` must call ``super()`` so the scope stacks
    stay correct.
    """

    name: str = ""
    description: str = ""

    def __init__(self, module: str, path: str, source_lines: list[str]):
        self.module = module  # dotted module name, e.g. "repro.kernel.pvops"
        self.path = path
        self.source_lines = source_lines
        self.findings: list[Finding] = []
        self.class_stack: list[str] = []
        self.func_stack: list[str] = []

    # -- scope tracking ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @property
    def current_function(self) -> str | None:
        return self.func_stack[-1] if self.func_stack else None

    @property
    def current_class(self) -> str | None:
        return self.class_stack[-1] if self.class_stack else None

    def qualname(self) -> str:
        return ".".join(self.class_stack + self.func_stack) or "<module>"

    # -- reporting -----------------------------------------------------------

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        context = ""
        if 1 <= line <= len(self.source_lines):
            context = self.source_lines[line - 1].strip()
        self.findings.append(
            Finding(
                rule=self.name,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                context=context,
            )
        )


#: name -> rule class. Populated by :func:`register_rule`.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a per-file rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in RULE_REGISTRY or cls.name in WHOLE_PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name}")
    RULE_REGISTRY[cls.name] = cls
    return cls


class WholeProgramRule:
    """Base class for rules that need the project-wide view.

    Unlike :class:`Rule`, a whole-program rule does not visit one AST; it
    receives the :class:`~repro.lint.callgraph.ProjectIndex` of every
    linted file at once and returns findings anywhere in the project.
    """

    name: str = ""
    description: str = ""

    def run(self, index: "ProjectIndex") -> list[Finding]:
        raise NotImplementedError


#: name -> whole-program rule class. Populated by
#: :func:`register_whole_program_rule`.
WHOLE_PROGRAM_REGISTRY: dict[str, type[WholeProgramRule]] = {}


def register_whole_program_rule(
    cls: type[WholeProgramRule],
) -> type[WholeProgramRule]:
    """Class decorator adding a whole-program rule to the registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in RULE_REGISTRY or cls.name in WHOLE_PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name}")
    WHOLE_PROGRAM_REGISTRY[cls.name] = cls
    return cls


# -- suppressions -------------------------------------------------------------


@dataclass(frozen=True)
class _Allow:
    rules: frozenset[str]
    justified: bool
    standalone: bool  # the whole line is the comment


def _parse_allows(source_lines: list[str]) -> dict[int, _Allow]:
    """line (1-based) -> allow-comment found on that line."""
    allows: dict[int, _Allow] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        why = (match.group("why") or "").strip()
        allows[lineno] = _Allow(
            rules=rules,
            justified=bool(why),
            standalone=text.strip().startswith("#"),
        )
    return allows


def apply_suppressions(
    findings: list[Finding],
    source_lines: list[str],
    path: str,
    *,
    report_unjustified: bool = True,
) -> list[Finding]:
    """Drop findings covered by a justified allow-comment on the same line
    or on a standalone comment line directly above; report unjustified
    allow-comments as ``LINT000``.

    The whole-program pass runs this a second time over files the
    per-file pass already checked; it passes ``report_unjustified=False``
    so each malformed allow-comment is reported exactly once.
    """
    allows = _parse_allows(source_lines)
    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        for lineno in (finding.line, finding.line - 1):
            allow = allows.get(lineno)
            if allow is None or finding.rule not in allow.rules:
                continue
            if lineno == finding.line - 1 and not allow.standalone:
                continue  # trailing comment of the previous statement
            if allow.justified:
                suppressed = True
            break
        if not suppressed:
            kept.append(finding)
    if report_unjustified:
        for lineno, allow in sorted(allows.items()):
            if not allow.justified:
                kept.append(
                    Finding(
                        rule=META_RULE,
                        path=path,
                        line=lineno,
                        col=0,
                        message=(
                            "suppression without justification: write "
                            "'# lint: allow[RULE] -- <why this site is exempt>'"
                        ),
                        context=source_lines[lineno - 1].strip(),
                    )
                )
    return kept


#: Backward-compatible alias (pre-whole-program name).
_apply_suppressions = apply_suppressions


# -- running ------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Dotted module name for ``path``, anchored at a ``repro`` component."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro":
            return ".".join(parts[anchor:])
    return ".".join(parts[-1:]) or "<unknown>"


def _display_path(path: Path) -> str:
    """Stable, repo-relative-ish posix path for reports and baselines."""
    resolved = path.resolve()
    for anchor in ("src", "tests"):
        try:
            index = resolved.parts.index(anchor)
        except ValueError:
            continue
        return "/".join(resolved.parts[index:])
    return path.as_posix()


def resolve_rules(names: Iterable[str] | None = None) -> tuple[type[Rule], ...]:
    """Per-file rule classes for ``names`` (all registered when ``None``)."""
    if names is None:
        return tuple(RULE_REGISTRY[n] for n in sorted(RULE_REGISTRY))
    missing = sorted(set(names) - set(RULE_REGISTRY))
    if missing:
        known = ", ".join(sorted(RULE_REGISTRY) + sorted(WHOLE_PROGRAM_REGISTRY))
        raise KeyError(f"unknown rule(s) {', '.join(missing)}; known: {known}")
    return tuple(RULE_REGISTRY[n] for n in sorted(set(names)))


def rule_names() -> tuple[str, ...]:
    """Every registered per-file rule name, sorted."""
    return tuple(sorted(RULE_REGISTRY))


def whole_program_rule_names() -> tuple[str, ...]:
    """Every registered whole-program rule name, sorted."""
    return tuple(sorted(WHOLE_PROGRAM_REGISTRY))


def split_rule_names(
    names: Iterable[str] | None,
) -> tuple[list[str] | None, list[str] | None]:
    """Split requested rule names into (per-file, whole-program) lists.

    ``None`` means "no explicit selection" for both halves. Unknown names
    raise :class:`KeyError` naming both vocabularies.
    """
    if names is None:
        return None, None
    requested = set(names)
    per_file = sorted(requested & set(RULE_REGISTRY))
    whole = sorted(requested & set(WHOLE_PROGRAM_REGISTRY))
    missing = sorted(requested - set(per_file) - set(whole))
    if missing:
        known = ", ".join(sorted(RULE_REGISTRY) + sorted(WHOLE_PROGRAM_REGISTRY))
        raise KeyError(f"unknown rule(s) {', '.join(missing)}; known: {known}")
    return per_file, whole


def _run_rules(
    parsed: ParsedModule, rule_classes: tuple[type[Rule], ...]
) -> list[Finding]:
    """Run per-file rules over one shared AST."""
    findings: list[Finding] = []
    for cls in rule_classes:
        rule = cls(
            module=parsed.module, path=parsed.path, source_lines=parsed.source_lines
        )
        rule.visit(parsed.tree)
        findings.extend(rule.findings)
    return findings


def _syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule=META_RULE,
        path=path,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"syntax error: {exc.msg}",
    )


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    rules: Iterable[str] | None = None,
) -> LintResult:
    """Run per-file rules over one source string (the test-fixture entry
    point). Whole-program rules need a project index; use
    :func:`lint_paths` with ``whole_program=True`` for those."""
    rule_classes = resolve_rules(rules)
    rules_run = tuple(cls.name for cls in rule_classes)
    try:
        parsed = parse_source(source, path=path, module=module)
    except SyntaxError as exc:
        return LintResult(
            findings=[_syntax_error_finding(path, exc)],
            files_checked=1,
            rules_run=rules_run,
        )
    findings = _run_rules(parsed, rule_classes)
    findings = apply_suppressions(findings, parsed.source_lines, path)
    return LintResult(findings=findings, files_checked=1, rules_run=rules_run)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: list[Path] = []
    for path in paths:
        if path.is_dir():
            seen.extend(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            seen.append(path)
    yield from sorted(set(seen))


def _clock() -> float:
    """Wall clock for the ``--stats`` phase breakdown only."""
    import time

    return time.perf_counter()  # lint: allow[DET001] -- phase timings are real time


def lint_paths(
    paths: Iterable[Path | str],
    rules: Iterable[str] | None = None,
    *,
    whole_program: bool = False,
    dataflow_cache_dir: Path | str | None = None,
    jobs: int = 1,
) -> LintResult:
    """Lint every python file under ``paths``.

    ``whole_program=True`` additionally builds the project index over all
    files and runs every whole-program rule; explicitly naming a
    whole-program rule in ``rules`` opts in for that rule alone.

    ``dataflow_cache_dir`` enables the dataflow layer's incremental
    summary cache (per-module IR keyed by content hash — see
    :mod:`repro.lint.dataflow`). ``None`` analyzes in memory only; the
    CLI passes :func:`repro.lint.dataflow.default_cache_dir` by default.

    ``jobs`` shards the three parallel phases — per-file rule visits,
    dataflow IR extraction, and the whole-program rule sweep — across
    that many forked workers (:mod:`repro.lint.parallel`). Workers
    inherit the parsed ASTs and the project index through copy-on-write
    memory and send back only findings, so results are byte-identical to
    ``jobs=1``; parsing, cache publication, the interprocedural summary
    solve, and suppression handling stay in this process.
    """
    from repro.lint.parallel import fork_map

    per_file_selected, whole_selected = split_rule_names(rules)
    if whole_selected is None:
        whole_selected = list(whole_program_rule_names()) if whole_program else []
    rule_classes = resolve_rules(per_file_selected)
    result = LintResult(
        rules_run=tuple(cls.name for cls in rule_classes) + tuple(whole_selected or ())
    )
    timings: dict = {"jobs": jobs}
    started = _clock()
    parsed_modules: list[ParsedModule] = []
    for file_path in iter_python_files(Path(p) for p in paths):
        result.files_checked += 1
        try:
            parsed = parse_file(file_path)
        except SyntaxError as exc:
            result.findings.append(
                _syntax_error_finding(_display_path(file_path), exc)
            )
            continue
        parsed_modules.append(parsed)
    timings["parse"] = _clock() - started

    def _per_file(parsed: ParsedModule) -> list[Finding]:
        return apply_suppressions(
            _run_rules(parsed, rule_classes), parsed.source_lines, parsed.path
        )

    phase = _clock()
    if rule_classes:
        for findings in fork_map(_per_file, parsed_modules, jobs):
            result.findings.extend(findings)
    timings["per_file"] = _clock() - phase

    if whole_selected:
        # Imported here: callgraph imports Finding/ParsedModule from this
        # module, so a top-level import would be a cycle.
        from repro.lint.callgraph import build_index

        phase = _clock()
        index = build_index(parsed_modules)
        if dataflow_cache_dir is not None:
            index.dataflow_cache_dir = Path(dataflow_cache_dir)  # type: ignore[attr-defined]
        index.lint_jobs = jobs  # type: ignore[attr-defined]
        timings["index"] = _clock() - phase

        # Dataflow-backed rules all read one shared solved analysis.
        # Solve it here, in the parent, before sharding the rule sweep:
        # the forked rule workers then inherit the summaries through COW
        # memory instead of each re-solving the fixed point, and the
        # summary cache sees exactly one writer (this process).
        phase = _clock()
        needs_dataflow = any(
            WHOLE_PROGRAM_REGISTRY[name].__module__ == "repro.lint.dataflow"
            for name in whole_selected
        )
        if needs_dataflow:
            from repro.lint.dataflow import get_dataflow

            get_dataflow(index)
        if jobs > 1 and any(
            WHOLE_PROGRAM_REGISTRY[name].__module__ == "repro.lint.concurrency"
            for name in whole_selected
        ):
            from repro.lint.concurrency import prewarm

            prewarm(index)
        timings["dataflow"] = _clock() - phase

        def _run_whole(name: str) -> list[Finding]:
            return WHOLE_PROGRAM_REGISTRY[name]().run(index)

        phase = _clock()
        by_path: dict[str, list[Finding]] = {}
        for findings in fork_map(_run_whole, list(whole_selected), jobs):
            for finding in findings:
                by_path.setdefault(finding.path, []).append(finding)
        timings["whole_program"] = _clock() - phase
        analysis = getattr(index, "_dataflow", None)
        if analysis is not None:
            result.dataflow_stats = dict(analysis.stats)
        for path, findings in by_path.items():
            parsed_for_path = index.modules_by_path.get(path)
            lines = parsed_for_path.source_lines if parsed_for_path else []
            result.findings.extend(
                apply_suppressions(
                    findings, lines, path, report_unjustified=False
                )
            )
    result.findings = result.sorted_findings()
    timings["total"] = _clock() - started
    result.timings = timings
    return result


# Built-in rules register themselves on import; placed last so the rule
# modules can import the framework above without a cycle.
from repro.lint import concurrency  # noqa: E402,F401
from repro.lint import dataflow  # noqa: E402,F401
from repro.lint import rules_determinism  # noqa: E402,F401
from repro.lint import rules_fault  # noqa: E402,F401
from repro.lint import rules_protocol  # noqa: E402,F401
from repro.lint import rules_pvops  # noqa: E402,F401

ALL_RULES: tuple[str, ...] = rule_names()
WHOLE_PROGRAM_RULES: tuple[str, ...] = whole_program_rule_names()
