"""PV-Ops page-table lifecycle rule.

``PVOPS002`` — page-table *pages* have a managed lifecycle: frames come
from the per-socket :class:`~repro.mem.pagecache.PageTablePageCache`
(§5.1) and enter/leave a tree through ``alloc_table``/``release_table``.
Constructing a :class:`~repro.paging.pagetable.PageTablePage` or tagging
a frame ``FrameKind.PAGE_TABLE`` anywhere else escapes OOM accounting,
fault injection and replica reclaim.

The other half of the PV-Ops contract — every PTE *store* goes through
``PagingOps.apply_entry_write`` — is the whole-program rule ``PROV001``
(:mod:`repro.lint.rules_protocol`).
"""

from __future__ import annotations

import ast

from repro.lint.core import Rule, register_rule

#: Functions allowed to construct table pages / tag PAGE_TABLE frames.
TABLE_LIFECYCLE_FUNCTIONS = frozenset({"alloc_table", "release_table"})

#: Modules that *are* the managed lifecycle (the page-cache itself).
PVOPS002_MODULE_ALLOWLIST = frozenset({"repro.mem.pagecache"})


def _kind_is_page_table(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "PAGE_TABLE"
        and isinstance(node.value, ast.Name)
        and node.value.id == "FrameKind"
    )


@register_rule
class TablePageLifecycleRule(Rule):
    """PVOPS002: page-table page alloc/free outside the managed lifecycle."""

    name = "PVOPS002"
    description = (
        "page-table page allocation bypasses the managed lifecycle; draw "
        "frames from PageTablePageCache inside alloc_table/release_table"
    )

    def _allowed_here(self) -> bool:
        if self.module in PVOPS002_MODULE_ALLOWLIST:
            return True
        return self.current_function in TABLE_LIFECYCLE_FUNCTIONS

    def visit_Call(self, node: ast.Call) -> None:
        if self._allowed_here():
            self.generic_visit(node)
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "PageTablePage":
            self.report(
                node,
                "PageTablePage constructed outside alloc_table; table pages "
                "must be created by a PagingOps backend (or the replication "
                "machinery) from PageTablePageCache frames",
            )
        if isinstance(func, ast.Attribute) and func.attr in (
            "alloc_frame",
            "alloc_huge_frame",
        ):
            for keyword in node.keywords:
                if keyword.arg == "kind" and _kind_is_page_table(keyword.value):
                    self.report(
                        node,
                        "page-table frame allocated directly from the node "
                        "allocator; use PageTablePageCache.alloc so the "
                        "per-socket reserve and fault injection apply (§5.1)",
                    )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._allowed_here() and _kind_is_page_table(node.value):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "kind":
                    self.report(
                        node,
                        "frame retagged as FrameKind.PAGE_TABLE outside "
                        "alloc_table; page-table frames enter the system "
                        "through the PageTablePageCache",
                    )
        self.generic_visit(node)
