"""Determinism rules.

The whole simulator is a pure function of ``(configuration, seed)`` — the
fault-injection work of PR 1 turned "same seed, same faults" into a
regression-testable contract, and every chaos scenario, workload trace and
property test relies on it.  Two things silently break it:

``DET001`` — wall-clock or globally-seeded entropy: module-level
``random.*`` calls, ``np.random.default_rng()`` *without* a seed,
``time.time()``-style clocks, ``os.urandom``, ``uuid.uuid4``.  All
randomness must come from an explicitly seeded generator that the caller
threads through (``random.Random(seed)``, ``np.random.default_rng(seed)``).

``DET002`` — iterating an unordered container (``set``/``frozenset``
expressions) straight into an ordering-sensitive sink (a ``for`` or
``async for`` loop, a comprehension,
``list``/``tuple``/``enumerate``/``iter``/``join``).  Set iteration order
depends on ``PYTHONHASHSEED`` for str/tuple elements, so the same seed can
produce a different call sequence run-to-run.  Wrap the container in
``sorted(...)`` at the point of iteration.  These sinks are the only
places set order can enter a value, so ``DET002`` is the one set-order
rule; the dataflow layer does not track order.

``DET003`` — builtin ``hash()`` used as a value.  ``hash()`` of a str /
bytes / anything containing one is salted per *process* (PYTHONHASHSEED
again), so deriving an RNG seed, a cache key that outlives the process,
or any persisted number from it silently breaks "same seed, same run"
across invocations — the exact bug that made every workload's address
stream unreproducible until PR 4.  Use a stable digest instead
(``zlib.crc32(name.encode())``, ``hashlib.sha256``).  ``__hash__``
implementations are exempt: in-process hashing for dict/set membership
is what the builtin is *for*.

Both rules are syntactic: they see ``set(...)`` expressions, not values
whose *type* happens to be a set — the reviewer and the
:class:`~repro.lint.sanitizer.PTESanitizer` cover the rest.
"""

from __future__ import annotations

import ast

from repro.lint.core import Rule, register_rule

#: module-alias targets we track through ``import x as y``.
_TRACKED_MODULES = {
    "random": "random",
    "numpy": "numpy",
    "numpy.random": "numpy.random",
    "time": "time",
    "os": "os",
    "uuid": "uuid",
    "secrets": "secrets",
    "datetime": "datetime",
}

#: ``module -> banned attribute calls`` (``*`` = every attribute).
_BANNED_CALLS: dict[str, frozenset[str] | None] = {
    "random": None,  # every module-level random.* call (global RNG state)
    "numpy.random": None,  # np.random.shuffle etc. use the global generator
    "secrets": None,
    "time": frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
         "perf_counter_ns", "process_time"}
    ),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "datetime": frozenset({"now", "utcnow", "today"}),
}

_ORDER_INSENSITIVE_SINKS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "frozenset", "set"}
)
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


def _canonical(expr: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical module for ``expr`` when it names a tracked module,
    following one attribute hop (``np.random`` -> ``numpy.random``).
    ``aliases`` maps local names to canonical dotted modules."""
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _canonical(expr.value, aliases)
        if base is not None:
            dotted = f"{base}.{expr.attr}"
            if dotted in _TRACKED_MODULES:
                return dotted
    return None


class _AliasTracker(Rule):
    """Shared import-alias bookkeeping for the determinism rules."""

    def __init__(self, module: str, path: str, source_lines: list[str]):
        super().__init__(module, path, source_lines)
        #: local name -> canonical dotted module ("np" -> "numpy").
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in _TRACKED_MODULES:
                self.aliases[alias.asname or alias.name.split(".")[0]] = (
                    _TRACKED_MODULES[alias.name]
                )
        self.generic_visit(node)


@register_rule
class UnseededEntropyRule(_AliasTracker):
    """DET001: entropy or wall-clock that is not derived from the run seed."""

    name = "DET001"
    description = (
        "unseeded entropy breaks 'same seed, same run'; thread an explicit "
        "random.Random(seed) / np.random.default_rng(seed) through instead"
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = _canonical(func.value, self.aliases)
            if owner is not None:
                self._check_module_call(node, owner, func.attr)
        self.generic_visit(node)

    def _check_module_call(self, node: ast.Call, owner: str, attr: str) -> None:
        # Explicitly seeded constructors are the *sanctioned* pattern.
        if owner == "random" and attr == "Random":
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "random.Random() without a seed draws from OS entropy; "
                    "pass the run seed explicitly",
                )
            return
        if owner == "numpy.random" and attr == "default_rng":
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "np.random.default_rng() without a seed is fresh OS "
                    "entropy every run; pass the run seed explicitly",
                )
            return
        banned = _BANNED_CALLS.get(owner)
        if banned is None and owner in _BANNED_CALLS:
            self.report(
                node,
                f"{owner}.{attr}() uses global, unseeded state; "
                "use an explicitly seeded generator owned by the caller",
            )
        elif banned is not None and attr in banned:
            self.report(
                node,
                f"{owner}.{attr}() is nondeterministic across runs; "
                "simulation state must be a function of (config, seed)",
            )


def _is_unordered_expr(node: ast.AST) -> bool:
    """True for expressions that *syntactically* produce a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        ) and _is_unordered_expr(node.func.value):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered_expr(node.left) or _is_unordered_expr(node.right)
    return False


@register_rule
class UnorderedIterationRule(Rule):
    """DET002: unordered-container iteration feeding an order-sensitive sink."""

    name = "DET002"
    description = (
        "iteration order of a set depends on PYTHONHASHSEED; wrap the "
        "container in sorted(...) before iterating"
    )

    def _flag(self, node: ast.AST, sink: str) -> None:
        self.report(
            node,
            f"set expression feeds {sink}: iteration order varies with "
            "PYTHONHASHSEED, so the same seed may replay differently; "
            "iterate sorted(...) instead",
        )

    def visit_For(self, node: ast.For | ast.AsyncFor) -> None:
        if _is_unordered_expr(node.iter):
            self._flag(node.iter, "a for-loop")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comp(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        # Building a *set* from a set is order-insensitive; list/dict/
        # generator comprehensions bake the order into their output.
        if not isinstance(node, ast.SetComp):
            for comp in node.generators:
                if _is_unordered_expr(comp.iter):
                    self._flag(comp.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_CALLS
            and node.args
            and _is_unordered_expr(node.args[0])
        ):
            self._flag(node, f"{func.id}(...)")
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and _is_unordered_expr(node.args[0])
        ):
            self._flag(node, "str.join(...)")
        self.generic_visit(node)


@register_rule
class SaltedHashRule(Rule):
    """DET003: builtin ``hash()`` is salted per process."""

    name = "DET003"
    description = (
        "builtin hash() of a str is salted per process (PYTHONHASHSEED); "
        "derive seeds and persisted keys from a stable digest "
        "(zlib.crc32, hashlib) instead"
    )

    def __init__(self, module: str, path: str, source_lines: list[str]):
        super().__init__(module, path, source_lines)
        self._in_dunder_hash = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        exempt = node.name == "__hash__"
        self._in_dunder_hash += exempt
        self.generic_visit(node)
        self._in_dunder_hash -= exempt

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "hash"
            and not self._in_dunder_hash
        ):
            self.report(
                node,
                "hash() is salted per process for str/bytes, so the value "
                "differs run-to-run; use zlib.crc32 / hashlib for a stable "
                "digest",
            )
        self.generic_visit(node)
