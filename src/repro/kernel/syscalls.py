"""The VM syscall surface: mmap / munmap / mprotect / mempolicy / migrate.

Each syscall returns the cycles it cost, computed from the physical effects
it caused (PTE writes including replicas, ring hops, table allocations,
data-page zeroing/freeing, shootdowns). Table 5 benchmarks these costs
with Mitosis on and off; Table 6 uses them for end-to-end overhead.

Implemented as a mixin so :class:`repro.kernel.kernel.Kernel` exposes them
as methods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidMappingError
from repro.kernel.costs import WorkCounters, syscall_cycles
from repro.kernel.policy import PlacementPolicy
from repro.kernel.process import Process
from repro.kernel.vma import PROT_DEFAULT, Vma
from repro.paging.pagetable import LeafRun
from repro.units import HUGE_PAGE_SIZE, PAGE_SIZE, page_align_up


@dataclass(frozen=True)
class SyscallResult:
    """Outcome of one VM syscall."""

    value: int
    cycles: float


class VmSyscalls:
    """Syscall implementations; mixed into ``Kernel``.

    Relies on the host class providing ``physmem``, ``sysctl``,
    ``fault_handler``, ``scheduler``, ``shootdown`` and ``cpu_contexts``.
    """

    def sys_mmap(
        self,
        process: Process,
        length: int,
        prot: int = PROT_DEFAULT,
        populate: bool = False,
        fixed_va: int | None = None,
        data_policy: PlacementPolicy | None = None,
        use_huge: bool = True,
        name: str = "anon",
    ) -> SyscallResult:
        """Create an anonymous mapping; returns its VA and the cycle cost.

        ``populate`` is MAP_POPULATE: fault in every page eagerly on the
        calling thread's socket (which makes placement deterministic — how
        the paper pre-allocates working sets for the migration scenario).
        """
        mm = process.mm
        length = page_align_up(length)
        align = HUGE_PAGE_SIZE if (self.sysctl.thp_enabled and use_huge) else PAGE_SIZE
        if fixed_va is None:
            va = mm.vmas.find_free_region(length, align=align)
        else:
            va = fixed_va
        vma = Vma(
            start=va,
            end=va + length,
            prot=prot,
            name=name,
            data_policy=data_policy,
            use_huge=use_huge,
        )
        mm.vmas.insert(vma)
        before = mm.tree.ops.stats.snapshot()
        work = WorkCounters()
        if populate:
            work = self.fault_handler.populate(
                process, va, va + length, process.home_socket,
                allow_huge=self.sysctl.thp_enabled and use_huge,
            )
        delta = mm.tree.ops.stats.delta(before)
        return SyscallResult(value=va, cycles=syscall_cycles(delta, work))

    def sys_munmap(self, process: Process, va: int, length: int) -> SyscallResult:
        """Remove mappings over ``[va, va+length)`` and free their memory."""
        mm = process.mm
        length = page_align_up(length)
        end = va + length
        runs = list(mm.tree.leaf_runs(va, end))
        _reject_partial_huge(runs, va, end, "munmap")
        removed = mm.vmas.remove_range(va, end)
        if not removed:
            raise InvalidMappingError(f"munmap of unmapped range 0x{va:x}+{length:#x}")
        before = mm.tree.ops.stats.snapshot()
        work = WorkCounters()
        for run in runs:
            with mm.lock():
                unmapped = mm.tree.clear_leaves(run)
            if not unmapped:
                continue
            frames = [mm.frames.pop(base).frame for base in unmapped]
            # Free in page-by-page unmap order, which the allocator's free
            # lists (and so later PFNs) depend on: a table emptied by the
            # last entry is released before that entry's frame.
            for frame in frames[:-1]:
                self.physmem.free(frame)
            with mm.lock():
                mm.tree.prune(run.path)
            self.physmem.free(frames[-1])
            work.pages_freed += len(frames) * (512 if run.huge else 1)
        # Pages sitting on the swap device in this range are gone too.
        for base in [b for b in mm.swapped if va <= b < end]:
            entry = mm.swapped.pop(base)
            self.swap.device.free_slot(entry.slot)
        shoot = self.shootdown.flush_all(self.cpu_contexts)
        delta = mm.tree.ops.stats.delta(before)
        return SyscallResult(value=0, cycles=syscall_cycles(delta, work, shoot))

    def sys_mprotect(self, process: Process, va: int, length: int, prot: int) -> SyscallResult:
        """Change protection over ``[va, va+length)``.

        The read-modify-write over every mapped PTE in the range is the
        operation whose cost replication multiplies hardest (Table 5).
        """
        mm = process.mm
        length = page_align_up(length)
        end = va + length
        if not mm.vmas.in_range(va, end):
            raise InvalidMappingError(f"mprotect of unmapped range 0x{va:x}+{length:#x}")
        runs = list(mm.tree.leaf_runs(va, end))
        _reject_partial_huge(runs, va, end, "mprotect")
        mm.vmas.protect_range(va, end, prot)
        before = mm.tree.ops.stats.snapshot()
        for run in runs:
            with mm.lock():
                mm.tree.protect_leaves(run, prot)
        shoot = self.shootdown.flush_all(self.cpu_contexts)
        delta = mm.tree.ops.stats.delta(before)
        return SyscallResult(value=0, cycles=syscall_cycles(delta, WorkCounters(), shoot))

    def sys_set_mempolicy(self, process: Process, policy: PlacementPolicy) -> SyscallResult:
        """Set the process-default data placement policy (numactl)."""
        process.mm.data_policy = policy
        return SyscallResult(value=0, cycles=0.0)

    def sys_migrate_process(
        self,
        process: Process,
        target_socket: int,
        migrate_data: bool = True,
    ) -> SyscallResult:
        """Move a process (and optionally its data) to another socket."""
        self.machine.socket(target_socket)
        before = process.mm.tree.ops.stats.snapshot()
        work = self.scheduler.migrate_process(process, target_socket, migrate_data=migrate_data)
        shoot = self.shootdown.flush_all(self.cpu_contexts)
        delta = process.mm.tree.ops.stats.delta(before)
        return SyscallResult(value=0, cycles=syscall_cycles(delta, work, shoot))


def _reject_partial_huge(runs: list[LeafRun], start: int, end: int, syscall: str) -> None:
    """Refuse a range that splits a 2 MiB page, before anything changes."""
    for run in runs:
        if run.huge and (run.va < start or run.va + HUGE_PAGE_SIZE > end):
            raise InvalidMappingError(
                f"{syscall} range partially covers the 2 MiB page at 0x{run.va:x}"
            )
