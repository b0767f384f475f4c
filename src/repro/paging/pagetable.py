"""Radix page-tables manipulated through a pluggable ops backend.

The paper implements Mitosis as a *PV-Ops backend*: every page-table page
allocation/release and every PTE write in the kernel goes through an
indirection table (Listing 1), and the Mitosis backend propagates writes to
all replicas. This module mirrors that split:

* :class:`PageTableTree` owns the radix-tree *logic* — descending, creating
  missing levels, mapping/unmapping/protecting, translating;
* every physical effect (allocating a table page, writing an entry, reading
  an entry's hardware bits) is delegated to a :class:`PagingOps` backend.
  The native backend lives in :mod:`repro.kernel.pvops`; the replicating
  backend in :mod:`repro.mitosis.backend`.

A :class:`PageTablePage` is a real 512-entry table of integer PTEs backed by
a physical :class:`~repro.mem.frame.Frame`, so NUMA placement, dumps and the
hardware walker all see the same concrete structure the kernel would.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.errors import InvalidMappingError
from repro.mem.frame import Frame
from repro.trace.session import current_session
from repro.paging.levels import (
    GEOMETRY_4LEVEL,
    HUGE_LEAF_LEVEL,
    LEAF_LEVEL,
    PagingGeometry,
    level_index,
    level_span,
)
from repro.paging.pte import (
    PTE_ACCESSED,
    PTE_HUGE,
    PTE_PRESENT,
    TABLE_FLAGS,
    make_pte,
    pte_flags,
    pte_huge,
    pte_pfn,
    pte_present,
)
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, PTES_PER_TABLE


class PageTablePage:
    """One 4 KiB page-table page: 512 integer PTEs on a physical frame."""

    __slots__ = ("frame", "level", "entries", "valid_count", "primary")

    def __init__(self, frame: Frame, level: int, primary: "PageTablePage | None" = None):
        self.frame = frame
        self.level = level
        # lint: allow[PROV001] -- table birth: the entry array is created empty here, before any backend can write it
        self.entries: list[int] = [0] * PTES_PER_TABLE
        self.valid_count = 0
        #: ``None`` for the primary copy; for a Mitosis replica, the primary
        #: page it mirrors.
        self.primary = primary

    @property
    def pfn(self) -> int:
        return self.frame.pfn

    @property
    def node(self) -> int:
        """NUMA node this table page physically lives on."""
        return self.frame.node

    @property
    def is_replica(self) -> bool:
        return self.primary is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "replica" if self.is_replica else "primary"
        return (
            f"<PageTablePage L{self.level} pfn={self.pfn} node={self.node} "
            f"valid={self.valid_count} {role}>"
        )


class PteLocation(NamedTuple):
    """Address of one PTE: which table page, which slot."""

    page: PageTablePage
    index: int


class Translation(NamedTuple):
    """Result of a software address translation."""

    pfn: int
    flags: int
    level: int

    @property
    def page_size(self) -> int:
        return HUGE_PAGE_SIZE if self.level == HUGE_LEAF_LEVEL else PAGE_SIZE


class LeafRun(NamedTuple):
    """One leaf table's share of a VA range (see :meth:`PageTableTree.leaf_runs`).

    ``path`` runs from the root to the first entry in range. Its last
    element's page is an L1 table, or the L2 table holding a 2 MiB leaf;
    entries ``[path[-1].index, stop)`` of that table lie in the range.
    """

    va: int  # VA mapped by the first entry in range
    path: list[PteLocation]
    stop: int

    @property
    def table(self) -> PageTablePage:
        return self.path[-1].page

    @property
    def huge(self) -> bool:
        """True for a 2 MiB leaf (a single L2 entry)."""
        return self.table.level != LEAF_LEVEL

    def present(self) -> list[int]:
        """Indices of the present entries in range."""
        entries = self.table.entries
        return [i for i in range(self.path[-1].index, self.stop) if entries[i] & PTE_PRESENT]

    def va_of(self, index: int) -> int:
        return self.va + (index - self.path[-1].index) * level_span(self.table.level)


@dataclass
class OpsStats:
    """Physical-effect counters a backend maintains; the syscall layer turns
    these into the cycle estimates of Table 5."""

    pte_writes: int = 0
    pte_reads: int = 0
    ring_hops: int = 0
    tables_allocated: int = 0
    tables_released: int = 0

    def snapshot(self) -> "OpsStats":
        return OpsStats(
            pte_writes=self.pte_writes,
            pte_reads=self.pte_reads,
            ring_hops=self.ring_hops,
            tables_allocated=self.tables_allocated,
            tables_released=self.tables_released,
        )

    def delta(self, earlier: "OpsStats") -> "OpsStats":
        """Counters accumulated since ``earlier``."""
        return OpsStats(
            pte_writes=self.pte_writes - earlier.pte_writes,
            pte_reads=self.pte_reads - earlier.pte_reads,
            ring_hops=self.ring_hops - earlier.ring_hops,
            tables_allocated=self.tables_allocated - earlier.tables_allocated,
            tables_released=self.tables_released - earlier.tables_released,
        )


class PagingOps(abc.ABC):
    """Backend interface for all physical page-table effects (PV-Ops).

    Backends must route every entry mutation through
    :meth:`apply_entry_write` so valid-entry counts stay correct on every
    physical copy.
    """

    def __init__(self) -> None:
        self.stats = OpsStats()

    @abc.abstractmethod
    def alloc_table(self, tree: "PageTableTree", level: int, node_hint: int) -> PageTablePage:
        """Allocate (and register) a table page for ``level``.

        ``node_hint`` is the socket of the thread triggering the allocation;
        placement policy decides where the page really lands.
        """

    @abc.abstractmethod
    def release_table(self, tree: "PageTableTree", page: PageTablePage) -> None:
        """Free a table page (and any replicas)."""

    @abc.abstractmethod
    def set_pte(self, tree: "PageTableTree", page: PageTablePage, index: int, value: int) -> None:
        """Write one PTE, propagating to all physical copies."""

    def set_ptes(
        self, tree: "PageTableTree", page: PageTablePage, writes: list[tuple[int, int]]
    ) -> None:
        """Write ``(index, value)`` leaf entries of one table, in order.

        Values are leaf entries (4 KiB PTEs, 2 MiB leaves or zero), never
        table pointers. Counters and stores equal one :meth:`set_pte` per
        write; backends override this to resolve their copies once per
        table instead of once per entry.
        """
        for index, value in writes:
            self.set_pte(tree, page, index, value)

    @abc.abstractmethod
    def read_pte(self, tree: "PageTableTree", page: PageTablePage, index: int) -> int:
        """Read one PTE as the OS must see it (A/D bits ORed across copies,
        §5.4)."""

    @abc.abstractmethod
    def clear_ad_bits(self, tree: "PageTableTree", page: PageTablePage, index: int) -> None:
        """Reset accessed/dirty in *all* physical copies (§5.4)."""

    def scan_accessed(
        self, tree: "PageTableTree", page: PageTablePage, indices: list[int], clear: bool
    ) -> list[bool]:
        """Accessed bit of each entry in ``indices`` as the OS sees it; with
        ``clear``, the A/D bits of each accessed entry are reset in every
        copy (the reclaim clock's second chance).

        Counters equal one :meth:`read_pte` per index plus one
        :meth:`clear_ad_bits` per cleared entry.
        """
        accessed = []
        for index in indices:
            young = bool(self.read_pte(tree, page, index) & PTE_ACCESSED)
            if young and clear:
                self.clear_ad_bits(tree, page, index)
            accessed.append(young)
        return accessed

    @abc.abstractmethod
    def root_pfn_for_socket(self, tree: "PageTableTree", socket: int) -> int:
        """The value a context switch loads into CR3 on ``socket`` (§5.3)."""

    def read_pte_local(self, page: PageTablePage, index: int) -> int:
        """Read one PTE from the given copy only — no replica traversal.

        Correct whenever the caller does not need hardware A/D bits (they
        are the only field that differs between replicas): protection
        changes, pointer extraction, present checks.
        """
        self.stats.pte_reads += 1
        return page.entries[index]

    @staticmethod
    def apply_entry_write(page: PageTablePage, index: int, value: int) -> int:
        """Physically store ``value`` at ``page.entries[index]``; maintains
        the valid-entry count and returns the old value.

        This is the PV-Ops choke point — every physical entry store in
        the simulator funnels through here, which makes it the one place
        a ``pvops.entry_writes`` trace counter can observe them all.
        Counter-only (no event objects): this site is far too hot for
        per-write events, and with tracing disabled it costs exactly one
        ``is None`` test.
        """
        old = page.entries[index]
        page.entries[index] = value
        page.valid_count += int(pte_present(value)) - int(pte_present(old))
        session = current_session()
        if session is not None:
            session.count("pvops.entry_writes")
        return old


class PageTableTree:
    """A process' page-table, possibly replicated across sockets.

    The tree always exposes a *primary* copy (``root``); with the native
    backend that is the only copy, with the Mitosis backend each socket in
    the replication mask additionally holds a replica kept consistent by the
    backend.
    """

    def __init__(
        self,
        ops: PagingOps,
        geometry: PagingGeometry = GEOMETRY_4LEVEL,
        node_hint: int = 0,
    ):
        self.ops = ops
        self.geometry = geometry
        #: pfn -> PageTablePage for every live table page, replicas included.
        #: This doubles as the ``struct page`` lookup the walker and the
        #: replica ring rely on.
        self.registry: dict[int, PageTablePage] = {}
        self.root = ops.alloc_table(self, geometry.root_level, node_hint)

    # -- lookup helpers -------------------------------------------------------

    def page_by_pfn(self, pfn: int) -> PageTablePage:
        return self.registry[pfn]

    def walk_path(self, va: int) -> list[PteLocation]:
        """Primary-copy path from the root towards ``va``'s leaf entry.

        Stops early at a non-present entry or a huge-page leaf. The last
        element is the deepest meaningful PTE.
        """
        self.geometry.check_va(va)
        path: list[PteLocation] = []
        page = self.root
        for level in range(self.geometry.root_level, 0, -1):
            index = level_index(va, level)
            path.append(PteLocation(page, index))
            entry = page.entries[index]
            if level == LEAF_LEVEL or not pte_present(entry) or pte_huge(entry):
                break
            page = self.registry[pte_pfn(entry)]
        return path

    def leaf_location(self, va: int) -> PteLocation | None:
        """The PTE mapping ``va`` (4 KiB or 2 MiB leaf), or ``None``."""
        location = self.walk_path(va)[-1]
        entry = location.page.entries[location.index]
        if not pte_present(entry):
            return None
        if location.page.level == LEAF_LEVEL or pte_huge(entry):
            return location
        return None  # present mid-level entry but nothing mapped below

    def translate(self, va: int) -> Translation | None:
        """Software translation of ``va`` (ignores TLBs), or ``None``."""
        location = self.leaf_location(va)
        if location is None:
            return None
        entry = location.page.entries[location.index]
        offset_bits = 21 if location.page.level == HUGE_LEAF_LEVEL else 12
        base_pfn = pte_pfn(entry)
        pfn = base_pfn + ((va >> 12) & ((1 << (offset_bits - 12)) - 1))
        return Translation(pfn=pfn, flags=pte_flags(entry), level=location.page.level)

    # -- mapping operations ----------------------------------------------------

    def map_page(
        self,
        va: int,
        data_pfn: int,
        flags: int,
        huge: bool = False,
        node_hint: int = 0,
    ) -> None:
        """Install a leaf mapping ``va -> data_pfn``.

        Args:
            va: Page-aligned virtual address (2 MiB aligned when ``huge``).
            data_pfn: Physical frame (head frame for huge pages).
            flags: PTE flag bits (present is added automatically).
            huge: Map a 2 MiB page at L2 instead of a 4 KiB page at L1.
            node_hint: Socket of the faulting thread; guides the placement
                of any newly created table pages (this is what makes
                page-table placement "first touch", §3.1 observation 1).

        Raises:
            InvalidMappingError: misaligned VA, or the range is already
                mapped (possibly at a different page size).
        """
        self.geometry.check_va(va)
        size = HUGE_PAGE_SIZE if huge else PAGE_SIZE
        if va % size:
            raise InvalidMappingError(f"va 0x{va:x} not aligned to {size}")
        leaf_level = HUGE_LEAF_LEVEL if huge else LEAF_LEVEL
        page = self._descend(va, leaf_level, node_hint)
        index = level_index(va, leaf_level)
        if pte_present(page.entries[index]):
            raise InvalidMappingError(f"va 0x{va:x} is already mapped")
        leaf_flags = flags | PTE_PRESENT | (PTE_HUGE if huge else 0)
        self.ops.set_pte(self, page, index, make_pte(data_pfn, leaf_flags))

    def _descend(self, va: int, leaf_level: int, node_hint: int) -> PageTablePage:
        """The ``leaf_level`` table covering ``va``, creating missing tables
        on the way down (placed by the backend from ``node_hint``)."""
        page = self.root
        for level in range(self.geometry.root_level, leaf_level, -1):
            index = level_index(va, level)
            entry = page.entries[index]
            if not pte_present(entry):
                child = self.ops.alloc_table(self, level - 1, node_hint)
                self.ops.set_pte(self, page, index, make_pte(child.pfn, TABLE_FLAGS))
                page = child
            elif pte_huge(entry):
                raise InvalidMappingError(
                    f"va 0x{va:x} already covered by a 2 MiB mapping at L{level}"
                )
            else:
                page = self.registry[pte_pfn(entry)]
        return page

    def leaf_table(self, va: int, node_hint: int = 0) -> PageTablePage:
        """The L1 table of the 2 MiB span holding ``va``: one descent that
        finds it, or creates it and any missing table above it.

        Raises:
            InvalidMappingError: the span is mapped by a 2 MiB page.
        """
        self.geometry.check_va(va)
        return self._descend(va, LEAF_LEVEL, node_hint)

    def map_leaves(self, table: PageTablePage, va: int, pfns: list[int], flags: int) -> None:
        """Map consecutive 4 KiB pages ``va, va + 4 KiB, ...`` to ``pfns``
        in one backend write; ``table`` is :meth:`leaf_table` of ``va`` and
        the pages must not leave its span.

        Raises:
            InvalidMappingError: misaligned ``va``, or a page is already
                mapped (nothing is written then).
        """
        if va % PAGE_SIZE:
            raise InvalidMappingError(f"va 0x{va:x} not aligned to {PAGE_SIZE}")
        first = level_index(va, LEAF_LEVEL)
        if first + len(pfns) > PTES_PER_TABLE:
            raise InvalidMappingError(f"{len(pfns)} pages at 0x{va:x} leave one leaf table")
        entries = table.entries
        leaf_flags = flags | PTE_PRESENT
        writes = []
        for offset, pfn in enumerate(pfns):
            if entries[first + offset] & PTE_PRESENT:
                raise InvalidMappingError(f"va 0x{va + offset * PAGE_SIZE:x} is already mapped")
            writes.append((first + offset, make_pte(pfn, leaf_flags)))
        self.ops.set_ptes(self, table, writes)

    def leaf_runs(self, start: int, end: int) -> Iterator[LeafRun]:
        """The leaf tables and 2 MiB leaves overlapping ``[start, end)``, in
        VA order: one descent per table, absent subtrees skipped whole.

        A run may have no present entry in range (an L1 table mapping only
        pages outside it).
        """
        if start < end:
            yield from self._leaf_runs(self.root, 0, start, end, [])

    def _leaf_runs(
        self, page: PageTablePage, va_base: int, start: int, end: int, path: list[PteLocation]
    ) -> Iterator[LeafRun]:
        span = level_span(page.level)
        first = max(start - va_base, 0) // span
        stop = min(-(-(end - va_base) // span), PTES_PER_TABLE)
        if page.level == LEAF_LEVEL:
            yield LeafRun(va_base + first * span, [*path, PteLocation(page, first)], stop)
            return
        for index in range(first, stop):
            entry = page.entries[index]
            if not pte_present(entry):
                continue
            va = va_base + index * span
            location = [*path, PteLocation(page, index)]
            if pte_huge(entry):
                yield LeafRun(va, location, index + 1)
            else:
                yield from self._leaf_runs(self.registry[pte_pfn(entry)], va, start, end, location)

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def clear_leaves(self, run: LeafRun) -> list[int]:
        """Unmap every present entry of ``run`` in one backend write;
        returns the VAs unmapped. Emptied tables stay until :meth:`prune`."""
        present = run.present()
        if present:
            self.ops.set_ptes(self, run.table, [(index, 0) for index in present])
        return [run.va_of(index) for index in present]

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def prune(self, path: list[PteLocation]) -> None:
        """Release the tables along ``path`` left empty, bottom-up (never
        the root), so long-lived processes do not leak page-table memory."""
        for depth in range(len(path) - 1, 0, -1):
            page = path[depth].page
            if page.valid_count > 0:
                break
            parent = path[depth - 1]
            self.ops.set_pte(self, parent.page, parent.index, 0)
            self.ops.release_table(self, page)

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def protect_leaves(self, run: LeafRun, flags: int) -> None:
        """:meth:`protect_page` for every present entry of ``run``, written
        in one backend call."""
        writes = []
        for index in run.present():
            entry = self.ops.read_pte_local(run.table, index)
            keep = PTE_PRESENT | (entry & PTE_HUGE)
            writes.append((index, make_pte(pte_pfn(entry), flags | keep)))
        if writes:
            self.ops.set_ptes(self, run.table, writes)

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def unmap_page(self, va: int) -> Translation:
        """Remove the leaf mapping covering ``va``; returns what it mapped.

        Empty table pages left behind are released bottom-up, so long-lived
        processes do not leak page-table memory.
        """
        path = self.walk_path(va)
        location = path[-1]
        entry = location.page.entries[location.index]
        if not pte_present(entry) or (
            location.page.level != LEAF_LEVEL and not pte_huge(entry)
        ):
            raise InvalidMappingError(f"va 0x{va:x} is not mapped")
        removed = Translation(
            pfn=pte_pfn(entry), flags=pte_flags(entry), level=location.page.level
        )
        self.ops.set_pte(self, location.page, location.index, 0)
        self.prune(path)
        return removed

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def protect_page(self, va: int, flags: int) -> None:
        """Change the flag bits of the leaf mapping covering ``va``
        (read-modify-write, the expensive path of Table 5).

        The read side only needs the PFN and the present/huge bits, which
        are identical in every replica — so it reads one copy; the write
        side is what replication multiplies.
        """
        location = self.leaf_location(va)
        if location is None:
            raise InvalidMappingError(f"va 0x{va:x} is not mapped")
        entry = self.ops.read_pte_local(location.page, location.index)
        keep = PTE_PRESENT | (entry & PTE_HUGE)
        self.ops.set_pte(
            self, location.page, location.index, make_pte(pte_pfn(entry), flags | keep)
        )

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def split_huge_page(self, va: int, node_hint: int = 0) -> None:
        """Shatter the 2 MiB mapping covering ``va`` into 512 4 KiB PTEs
        (THP split; the backing frames are contiguous so data stays put)."""
        location = self.leaf_location(va)
        if location is None or location.page.level != HUGE_LEAF_LEVEL:
            raise InvalidMappingError(f"va 0x{va:x} has no 2 MiB mapping")
        entry = location.page.entries[location.index]
        base_pfn = pte_pfn(entry)
        flags = pte_flags(entry) & ~PTE_HUGE
        child = self.ops.alloc_table(self, LEAF_LEVEL, node_hint)
        for i in range(PTES_PER_TABLE):
            self.ops.set_pte(self, child, i, make_pte(base_pfn + i, flags))
        self.ops.set_pte(self, location.page, location.index, make_pte(child.pfn, TABLE_FLAGS))

    # protocol: defers[translation-visibility] -- caller owns the TLB shootdown
    def collapse_huge_page(self, va: int) -> bool:
        """Merge 512 contiguous 4 KiB PTEs back into one 2 MiB mapping
        (khugepaged's job). Returns ``False`` when the L1 table is not fully
        populated with physically contiguous, uniformly-flagged frames."""
        self.geometry.check_va(va)
        base_va = va & ~(HUGE_PAGE_SIZE - 1)
        path = self.walk_path(base_va)
        location = path[-1]
        if location.page.level != LEAF_LEVEL:
            return False
        table = location.page
        if table.valid_count != PTES_PER_TABLE:
            return False
        first = table.entries[0]
        base_pfn = pte_pfn(first)
        if base_pfn % PTES_PER_TABLE:
            return False
        flags = pte_flags(first)
        for i, entry in enumerate(table.entries):
            if pte_pfn(entry) != base_pfn + i or pte_flags(entry) != flags:
                return False
        parent = path[-2]
        self.ops.set_pte(
            self, parent.page, parent.index, make_pte(base_pfn, flags | PTE_HUGE)
        )
        self.ops.release_table(self, table)
        return True

    # -- introspection ---------------------------------------------------------

    def iter_tables(self) -> Iterator[PageTablePage]:
        """One table page per replica ring, root first (BFS).

        Follows the root's entries, so in a replicated tree each child ring
        is reached through the member its parent entry points at: a
        socket-local copy, which may be a replica rather than the primary.
        """
        queue = [self.root]
        while queue:
            page = queue.pop(0)
            yield page
            if page.level == LEAF_LEVEL:
                continue
            for entry in page.entries:
                if pte_present(entry) and not pte_huge(entry):
                    queue.append(self.registry[pte_pfn(entry)])

    def iter_mappings(self) -> Iterator[tuple[int, Translation]]:
        """All leaf mappings as ``(va, translation)`` in VA order."""
        yield from self._iter_mappings(self.root, 0)

    def _iter_mappings(self, page: PageTablePage, va_base: int) -> Iterator[tuple[int, Translation]]:
        span = level_span(page.level)
        for index, entry in enumerate(page.entries):
            if not pte_present(entry):
                continue
            va = va_base + index * span
            if page.level == LEAF_LEVEL or pte_huge(entry):
                yield va, Translation(pfn=pte_pfn(entry), flags=pte_flags(entry), level=page.level)
            else:
                yield from self._iter_mappings(self.registry[pte_pfn(entry)], va)

    def table_count(self) -> int:
        """Number of primary table pages (Table 4's "PT size" numerator)."""
        return sum(1 for _ in self.iter_tables())

    def total_table_count(self) -> int:
        """All table pages including replicas."""
        return len(self.registry)
