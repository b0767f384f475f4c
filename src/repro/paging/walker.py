"""The hardware page-table walker.

On a TLB miss the walker chases the radix tree from CR3 to the leaf. Two
properties matter for the paper and are modelled exactly:

* every level touched is a *memory access to the node holding that table
  page* — the walker reports the per-level cache-line addresses and NUMA
  nodes so the engine can charge local/remote latency (and consult the LLC
  and paging-structure caches);
* the walker sets accessed (and, for writes, dirty) bits *directly in the
  entries it walked*, bypassing the OS's PV-Ops interface — which is why
  Mitosis must OR A/D bits across replicas when the OS reads them (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paging.levels import HUGE_LEAF_LEVEL, LEAF_LEVEL, level_index
from repro.paging.pagetable import PageTablePage, PageTableTree, Translation
from repro.paging.pte import (
    FLAGS_MASK,
    PFN_MASK,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    pte_flags,
    pte_huge,
    pte_pfn,
    pte_present,
)
from repro.units import CACHE_LINE_SIZE


@dataclass(frozen=True)
class LevelAccess:
    """One memory reference made by the walker.

    Attributes:
        level: Table level read (root..1).
        pfn: Table page read.
        node: NUMA node the table page lives on.
        line_addr: Physical cache-line address of the PTE fetched; the key
            the LLC model caches walks under.
    """

    level: int
    pfn: int
    node: int
    line_addr: int


@dataclass(frozen=True)
class WalkResult:
    """Outcome of one hardware walk."""

    accesses: tuple[LevelAccess, ...]
    translation: Translation | None
    #: VA of the fault when ``translation`` is None.
    fault_va: int | None = None

    @property
    def faulted(self) -> bool:
        return self.translation is None


class HardwareWalker:
    """Walks one tree's tables exactly as the MMU would."""

    def __init__(self, tree: PageTableTree):
        self.tree = tree

    def walk(
        self,
        va: int,
        socket: int,
        is_write: bool = False,
        start: tuple[PageTablePage, int] | None = None,
        set_ad_bits: bool = True,
    ) -> WalkResult:
        """Translate ``va`` for a core on ``socket``.

        Args:
            va: Virtual address being translated.
            socket: Socket of the walking core — selects which CR3 (and
                hence which replica) the walk starts from.
            is_write: Whether the triggering access is a store (sets dirty).
            start: ``(table_page, level)`` to resume from when the
                paging-structure cache already resolved the upper levels.
            set_ad_bits: Hardware A/D updates (disable for pure lookups).

        Returns:
            A :class:`WalkResult` listing each level's memory reference and
            the final translation (``None`` -> page fault).
        """
        if start is not None:
            page, level = start
        else:
            root_pfn = self.tree.ops.root_pfn_for_socket(self.tree, socket)
            page = self.tree.registry[root_pfn]
            level = self.tree.geometry.root_level
        accesses: list[LevelAccess] = []
        while True:
            index = level_index(va, level)
            line = (page.pfn << 12) + (index * 8 & ~(CACHE_LINE_SIZE - 1))
            accesses.append(LevelAccess(level=level, pfn=page.pfn, node=page.node, line_addr=line))
            entry = page.entries[index]
            if not pte_present(entry):
                return WalkResult(tuple(accesses), None, fault_va=va)
            is_leaf = level == LEAF_LEVEL or (level == HUGE_LEAF_LEVEL and pte_huge(entry))
            if set_ad_bits:
                new_entry = entry | PTE_ACCESSED
                if is_write and is_leaf:
                    new_entry |= PTE_DIRTY
                if new_entry != entry:
                    # lint: allow[PROV001] -- hardware A/D store: the MMU writes the walked replica directly, outside PV-Ops (§5.4)
                    page.entries[index] = new_entry
                    entry = new_entry
            if is_leaf:
                offset_bits = 21 if level == HUGE_LEAF_LEVEL else 12
                pfn = pte_pfn(entry) + ((va >> 12) & ((1 << (offset_bits - 12)) - 1))
                return WalkResult(
                    tuple(accesses),
                    Translation(pfn=pfn, flags=pte_flags(entry), level=level),
                )
            if level == LEAF_LEVEL:  # pragma: no cover - guarded above
                return WalkResult(tuple(accesses), None, fault_va=va)
            page = self.tree.registry[pte_pfn(entry)]
            level -= 1

    def walk_into(
        self,
        va: int,
        socket: int,
        is_write: bool,
        out_levels: list[int],
        out_pfns: list[int],
        out_nodes: list[int],
        out_lines: list[int],
        start: tuple[PageTablePage, int] | None = None,
    ) -> tuple[int, Translation | None]:
        """Allocation-free twin of :meth:`walk` for the batch engine.

        Writes each level's (level, table pfn, node, cache-line address)
        into the caller-owned output lists at indices ``0..n-1`` and
        returns ``(n, translation)`` with ``translation is None`` meaning
        a page fault at ``va``. The lists must be at least
        ``geometry.root_level`` long; entries beyond ``n`` are stale.

        Semantics are identical to ``walk(set_ad_bits=True)`` — same tree
        traversal, same hardware A/D stores — minus the per-level
        :class:`LevelAccess` and :class:`WalkResult` allocations, which
        dominate the scalar walker's cost on walk-heavy streams
        (docs/performance.md). ``tests/paging`` pins the twin against the
        reference walk.
        """
        if start is not None:
            page, level = start
        else:
            root_pfn = self.tree.ops.root_pfn_for_socket(self.tree, socket)
            page = self.tree.registry[root_pfn]
            level = self.tree.geometry.root_level
        registry = self.tree.registry
        line_mask = ~(CACHE_LINE_SIZE - 1)
        n = 0
        while True:
            index = (va >> (12 + 9 * (level - 1))) & 511
            frame = page.frame
            pfn = frame.pfn
            out_levels[n] = level
            out_pfns[n] = pfn
            out_nodes[n] = frame.node
            out_lines[n] = (pfn << 12) + (index * 8 & line_mask)
            n += 1
            entry = page.entries[index]
            if not entry & PTE_PRESENT:
                return n, None
            is_leaf = level == LEAF_LEVEL or (level == HUGE_LEAF_LEVEL and entry & PTE_HUGE)
            new_entry = entry | PTE_ACCESSED
            if is_write and is_leaf:
                new_entry |= PTE_DIRTY
            if new_entry != entry:
                # lint: allow[PROV001] -- hardware A/D store: the MMU writes the walked replica directly, outside PV-Ops (§5.4)
                page.entries[index] = new_entry
                entry = new_entry
            if is_leaf:
                offset_mask = 511 if level == HUGE_LEAF_LEVEL else 0
                leaf_pfn = ((entry & PFN_MASK) >> 12) + ((va >> 12) & offset_mask)
                return n, Translation(leaf_pfn, entry & FLAGS_MASK, level)
            page = registry[(entry & PFN_MASK) >> 12]
            level -= 1
