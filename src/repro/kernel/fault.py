"""The page-fault handler.

All data *and page-table* allocation happens here ("all page-table
allocations are performed by the OS on a page-fault", §5.1): when a thread
on socket *s* touches an unmapped page, the handler places the data page
according to the VMA/process policy with first-toucher ``s``, and the
page-table pages needed along the way are placed by the PV-Ops backend's
page-table policy (also first-touch by default — the root cause of the
skew in §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtectionFault, SegmentationFault
from repro.kernel.costs import WorkCounters
from repro.kernel.process import MappedFrame, MemoryDescriptor, Process
from repro.kernel.thp import ThpController
from repro.kernel.vma import Vma
from repro.mem.physmem import PhysicalMemory
from repro.paging.pte import pte_writable
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE


@dataclass
class FaultResult:
    """What servicing one fault did."""

    va: int
    mapped_bytes: int
    huge: bool
    work: WorkCounters
    #: False when the fault was spurious (already mapped by another thread).
    did_map: bool = True
    #: True for a major fault (swap-in); ``io_cycles`` carries its cost.
    major: bool = False
    io_cycles: float = 0.0


class PageFaultHandler:
    """Demand paging for anonymous memory."""

    def __init__(self, physmem: PhysicalMemory, thp: ThpController):
        self.physmem = physmem
        self.thp = thp
        #: Set by the kernel once the swap manager exists; major faults
        #: route through it.
        self.swap = None
        self.faults_handled = 0

    def handle(
        self,
        process: Process,
        va: int,
        socket: int,
        is_write: bool = False,
        allow_huge: bool = True,
    ) -> FaultResult:
        """Service a fault at ``va`` raised by a thread on ``socket``.

        Raises:
            SegmentationFault: no VMA covers ``va``.
            ProtectionFault: a write hit a read-only mapping.
        """
        mm = process.mm
        vma = mm.vmas.find(va)
        if vma is None:
            raise SegmentationFault(va)
        base = va & ~(PAGE_SIZE - 1)
        if self.swap is not None and base in mm.swapped:
            self.faults_handled += 1
            io = self.swap.swap_in(process, base, socket)
            return FaultResult(
                va=va,
                mapped_bytes=PAGE_SIZE,
                huge=False,
                work=WorkCounters(),
                major=True,
                io_cycles=io,
            )
        existing = mm.frame_at(va)
        if existing is not None:
            translation = mm.tree.translate(va)
            assert translation is not None
            if is_write and not pte_writable(translation.flags):
                raise ProtectionFault(va, "write")
            return FaultResult(va=va, mapped_bytes=0, huge=existing.huge, work=WorkCounters(), did_map=False)

        self.faults_handled += 1
        policy = vma.data_policy or mm.data_policy
        node = policy.choose_node(socket)
        work = WorkCounters()

        if allow_huge and self.thp.eligible(mm, vma, va):
            frame = self.thp.alloc(node)
            if frame is not None:
                base = va & ~(HUGE_PAGE_SIZE - 1)
                with mm.lock():
                    mm.tree.map_page(base, frame.pfn, vma.prot, huge=True, node_hint=socket)
                mm.frames[base] = MappedFrame(va=base, frame=frame, huge=True)
                work.pages_zeroed_2m += 1
                return FaultResult(va=va, mapped_bytes=HUGE_PAGE_SIZE, huge=True, work=work)

        frame = self.physmem.alloc_frame_fallback(node)
        base = va & ~(PAGE_SIZE - 1)
        with mm.lock():
            mm.tree.map_page(base, frame.pfn, vma.prot, huge=False, node_hint=socket)
        mm.frames[base] = MappedFrame(va=base, frame=frame, huge=False)
        work.pages_zeroed_4k += 1
        return FaultResult(va=va, mapped_bytes=PAGE_SIZE, huge=False, work=work)

    def populate(
        self,
        process: Process,
        start: int,
        end: int,
        socket: int,
        allow_huge: bool = True,
    ) -> WorkCounters:
        """Prefault every unmapped page of ``[start, end)`` for a thread on
        ``socket`` (MAP_POPULATE); returns the data-page work.

        Equivalent to write-faulting each page through :meth:`handle` in
        VA order: the same placement decisions and frames in the same
        allocation order (a span's first data frame before its missing
        tables). :meth:`handle` itself takes swapped-out pages and, with
        ``allow_huge``, the first page visited in each 2 MiB window, which
        settles whether THP backs the window. The other pages are mapped a
        leaf table at a time.

        Raises:
            SegmentationFault: a page in range has no VMA.
            OutOfMemoryError: as :meth:`handle`; pages before the failing
                one stay mapped, and no frame is left allocated but unmapped.
        """
        mm = process.mm
        work = WorkCounters()
        settled = None  # the 2 MiB window whose THP fate handle() decided
        pos = start
        while pos < end:
            mapped = mm.frame_at(pos)
            if mapped is not None:
                pos = mapped.va + mapped.frame.nbytes
                continue
            window = pos & ~(HUGE_PAGE_SIZE - 1)
            if (allow_huge and window != settled) or (pos & ~(PAGE_SIZE - 1)) in mm.swapped:
                settled = window
                result = self.handle(process, pos, socket, is_write=True, allow_huge=allow_huge)
                work.pages_zeroed_4k += result.work.pages_zeroed_4k
                work.pages_zeroed_2m += result.work.pages_zeroed_2m
                pos += result.mapped_bytes
                continue
            vma = mm.vmas.find(pos)
            if vma is None:
                raise SegmentationFault(pos)
            limit = min(end, vma.end, window + HUGE_PAGE_SIZE)
            mapped_pages = self._populate_span(process, vma, pos, limit, socket)
            work.pages_zeroed_4k += mapped_pages
            pos += mapped_pages * PAGE_SIZE
        return work

    def _populate_span(
        self, process: Process, vma: Vma, pos: int, limit: int, socket: int
    ) -> int:
        """Fault in the 4 KiB pages from ``pos`` up to ``limit`` (inside one
        2 MiB span and VMA) until one is already mapped or swapped out;
        returns how many were mapped. The span's table is found or created
        once, and all its new PTEs are written in one backend call."""
        mm = process.mm
        policy = vma.data_policy or mm.data_policy
        base = pos & ~(PAGE_SIZE - 1)
        frames = []
        table = None
        va = pos
        try:
            while va < limit:
                page = va & ~(PAGE_SIZE - 1)
                if page in mm.frames or page in mm.swapped:
                    break
                self.faults_handled += 1
                frame = self.physmem.alloc_frame_fallback(policy.choose_node(socket))
                if table is None:
                    try:
                        with mm.lock():
                            table = mm.tree.leaf_table(page, node_hint=socket)
                    except BaseException:
                        self.physmem.free(frame)
                        raise
                frames.append(frame)
                va += PAGE_SIZE
        finally:
            if frames:
                with mm.lock():
                    mm.tree.map_leaves(table, base, [frame.pfn for frame in frames], vma.prot)
                for i, frame in enumerate(frames):
                    page = base + i * PAGE_SIZE
                    mm.frames[page] = MappedFrame(va=page, frame=frame, huge=False)
        return len(frames)
