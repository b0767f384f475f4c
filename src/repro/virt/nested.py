"""The hardware 2D page-walker for nested paging (§7.4).

On a virtualized TLB miss, every guest page-table access is itself a
guest-physical address that must be translated through the nested
page-table before DRAM can be read. The classic cost on x86-64: 4 guest
levels, each needing a 4-level nested walk plus the guest PTE read, plus a
final nested walk for the data page — up to 24 memory accesses ("For
x86-64, a nested page-table walk requires up to 24 memory accesses").

Each access is attributed to the *host* NUMA node that physically holds
the line, so remote placement of either the guest or the nested
page-tables shows up exactly where it would on hardware. Per-core nested
TLBs (gPA -> hPA caches) shorten walks the way real nested-TLB/PSC
hardware does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paging.levels import LEAF_LEVEL, level_index
from repro.paging.pte import PTE_ACCESSED, PTE_DIRTY, pte_pfn, pte_present
from repro.paging.walker import HardwareWalker
from repro.tlb.tlb import Tlb
from repro.units import CACHE_LINE_SIZE, PAGE_SHIFT, PAGE_SIZE
from repro.virt.vm import VirtualMachine


@dataclass(frozen=True)
class NestedAccess:
    """One memory reference of a 2D walk.

    Attributes:
        dimension: ``"guest"`` (a gPT entry read) or ``"nested"`` (an nPT
            entry read during gPA translation).
        level: Table level within its dimension.
        host_node: Host NUMA node the referenced line lives on.
        line_addr: Host-physical cache-line address (LLC key).
    """

    dimension: str
    level: int
    host_node: int
    line_addr: int


@dataclass(frozen=True)
class NestedWalkResult:
    accesses: tuple[NestedAccess, ...]
    #: Final host-physical frame, or None on a fault in either dimension.
    host_pfn: int | None
    fault_dimension: str | None = None

    @property
    def faulted(self) -> bool:
        return self.host_pfn is None

    def count(self, dimension: str) -> int:
        return sum(1 for a in self.accesses if a.dimension == dimension)


class NestedTlb:
    """Per-core gPA -> hPA translation cache (nested TLB)."""

    def __init__(self, entries: int = 32, ways: int = 4):
        self._tlb = Tlb(entries, ways, PAGE_SHIFT, name="nested-tlb")

    def lookup(self, gfn: int) -> int | None:
        hit = self._tlb.lookup(gfn << PAGE_SHIFT)
        return hit.pfn if hit is not None else None

    def insert(self, gfn: int, host_pfn: int) -> None:
        from repro.paging.pagetable import Translation

        self._tlb.insert(gfn << PAGE_SHIFT, Translation(pfn=host_pfn, flags=1, level=1))

    def flush(self) -> None:
        # lint: allow[TLBGEN001] -- guest nested TLB: no generation-stamped fastpath reads it, the host hierarchy owns the real generation
        self._tlb.flush()

    @property
    def stats(self):
        return self._tlb.stats


class TwoDimWalker:
    """Walks gPT and nPT together, the way the nested-paging MMU does."""

    def __init__(self, vm: VirtualMachine, nested_tlb: NestedTlb | None = None):
        self.vm = vm
        self.nested_tlb = nested_tlb
        self._npt_walker = HardwareWalker(vm.npt)

    def _nested_translate(
        self, gfn: int, socket: int, accesses: list[NestedAccess], is_write: bool
    ) -> int | None:
        """gPA -> hPA, recording nested-dimension accesses. Returns the
        host pfn or None (nested fault)."""
        if self.nested_tlb is not None:
            cached = self.nested_tlb.lookup(gfn)
            if cached is not None:
                return cached
        result = self._npt_walker.walk(gfn << PAGE_SHIFT, socket, is_write=is_write)
        for access in result.accesses:
            accesses.append(
                NestedAccess(
                    dimension="nested",
                    level=access.level,
                    host_node=access.node,
                    line_addr=access.line_addr,
                )
            )
        if result.translation is None:
            return None
        host_pfn = result.translation.pfn
        if self.nested_tlb is not None:
            self.nested_tlb.insert(gfn, host_pfn)
        return host_pfn

    def walk(self, gva: int, socket: int, is_write: bool = False) -> NestedWalkResult:
        """Translate ``gva`` for a vCPU on host ``socket``.

        The guest walk starts from the guest CR3 of the vCPU's *virtual
        node* (so guest-level Mitosis replicas are honoured), and every
        guest PT page read is first located in host memory through the
        nested dimension (so nested-level Mitosis replicas are honoured
        independently — the paper's two independent levels).
        """
        vm = self.vm
        accesses: list[NestedAccess] = []
        vnode = vm.host_socket_to_vnode(socket)
        gpt = vm.gpt
        g_root = gpt.registry[gpt.ops.root_pfn_for_socket(gpt, vnode)]
        page = g_root
        level = gpt.geometry.root_level
        while True:
            # Locate this guest PT page in host memory (nested dimension).
            host_pfn = self._nested_translate(page.pfn, socket, accesses, is_write=False)
            if host_pfn is None:
                return NestedWalkResult(tuple(accesses), None, fault_dimension="nested")
            index = level_index(gva, level)
            line = (host_pfn << PAGE_SHIFT) + (index * 8 & ~(CACHE_LINE_SIZE - 1))
            accesses.append(
                NestedAccess(
                    dimension="guest",
                    level=level,
                    host_node=vm.kernel.physmem.node_of_pfn(host_pfn),
                    line_addr=line,
                )
            )
            entry = page.entries[index]
            if not pte_present(entry):
                return NestedWalkResult(tuple(accesses), None, fault_dimension="guest")
            new_entry = entry | PTE_ACCESSED
            if is_write and level == LEAF_LEVEL:
                new_entry |= PTE_DIRTY
            if new_entry != entry:
                # lint: allow[PROV001] -- hardware A/D store: the 2D walker updates guest PTEs like an MMU, outside PV-Ops
                page.entries[index] = new_entry
            if level == LEAF_LEVEL:
                data_gfn = pte_pfn(entry)
                break
            page = gpt.registry[pte_pfn(entry)]
            level -= 1
        # Final nested walk: the data page's gPA -> hPA.
        data_host_pfn = self._nested_translate(data_gfn, socket, accesses, is_write=is_write)
        if data_host_pfn is None:
            return NestedWalkResult(tuple(accesses), None, fault_dimension="nested")
        return NestedWalkResult(tuple(accesses), data_host_pfn)

    def max_references(self) -> int:
        """Worst-case memory references for one 2D walk (24 on 4-level)."""
        guest_levels = self.vm.gpt.geometry.root_level
        nested_levels = self.vm.npt.geometry.root_level
        return guest_levels * (nested_levels + 1) + nested_levels
