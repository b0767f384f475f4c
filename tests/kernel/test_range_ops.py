"""Range-granular populate / mprotect / munmap / reclaim scan.

The kernel maps, reprotects, unmaps and scans a leaf table at a time.
Each test here replays the same operations page by page, through
``PageFaultHandler.handle``, ``map_page``, ``protect_page``, ``unmap_page``
and per-entry ``read_pte``/``clear_ad_bits``, and requires the two to
agree on everything observable: PFNs, dumps, ``OpsStats``, syscall
cycles, fault counts and frame accounting. Under failure they must also
agree on the mapped prefix, and the range path must leak no frame.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidMappingError, OutOfMemoryError
from repro.inject.plan import SITE_ALLOCATOR_OOM, FaultPlan, FaultRule, install_fault_plan
from repro.inject.verify import verify_tree
from repro.kernel.costs import WorkCounters, syscall_cycles
from repro.kernel.kernel import Kernel
from repro.kernel.policy import InterleavePolicy
from repro.kernel.pvops import NativePagingOps
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.kernel.vma import PROT_DEFAULT, Vma
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.lazy import LazyMitosisPagingOps
from repro.mitosis.naive import NaiveMitosisPagingOps
from repro.paging import dump as ptdump
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_ACCESSED, PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import GIB, HUGE_PAGE_SIZE, MIB, PAGE_SIZE

N_SOCKETS = 4
#: The scripted region straddles a 1 GiB boundary, so upper-level tables
#: are created and released too.
REGION = GIB - 3 * MIB
REGION_PAGES = 6 * MIB // PAGE_SIZE

BACKENDS = {"native": None, "mitosis-1": {0}, "mitosis-2": {0, 1}, "mitosis-4": {0, 1, 2, 3}}


def make_kernel(thp: bool, interleave: bool, backend: str):
    machine = Machine.homogeneous(N_SOCKETS, cores_per_socket=1, memory_per_socket=32 * MIB)
    kernel = Kernel(
        machine, sysctl=Sysctl(thp_enabled=thp, mitosis_mode=MitosisMode.PER_PROCESS)
    )
    nodes = machine.node_ids()
    policy = (lambda: InterleavePolicy(nodes)) if interleave else (lambda: None)
    process = kernel.create_process("range", socket=0, pt_policy=policy(), data_policy=policy())
    for socket in nodes[1:]:
        process.add_thread(socket)
    if BACKENDS[backend] is not None:
        kernel.mitosis.set_replication_mask(process, frozenset(BACKENDS[backend]))
    return kernel, process


# -- the page-by-page reference ---------------------------------------------------


def _reject_partial_huge(mm, start: int, end: int) -> None:
    for base, mapped in mm.frames.items():
        if mapped.huge and base < end and base + HUGE_PAGE_SIZE > start:
            if base < start or base + HUGE_PAGE_SIZE > end:
                raise InvalidMappingError(f"partially covers 0x{base:x}")


def _mapped_bases(mm, start: int, end: int) -> list[int]:
    return sorted(
        base for base, mapped in mm.frames.items()
        if base < end and base + mapped.frame.nbytes > start
    )


def per_page_mmap(kernel, process, length: int, fixed_va: int) -> tuple[int, float]:
    """``sys_mmap(populate=True)`` faulting one page at a time."""
    mm = process.mm
    mm.vmas.insert(Vma(start=fixed_va, end=fixed_va + length, prot=PROT_DEFAULT))
    before = mm.tree.ops.stats.snapshot()
    work = WorkCounters()
    pos = fixed_va
    while pos < fixed_va + length:
        result = kernel.fault_handler.handle(
            process, pos, process.home_socket, is_write=True,
            allow_huge=kernel.sysctl.thp_enabled,
        )
        if result.did_map:
            work.pages_zeroed_4k += result.work.pages_zeroed_4k
            work.pages_zeroed_2m += result.work.pages_zeroed_2m
            pos += result.mapped_bytes
        else:
            mapped = mm.frame_at(pos)
            pos = mapped.va + mapped.frame.nbytes
    return fixed_va, syscall_cycles(mm.tree.ops.stats.delta(before), work)


def per_page_munmap(kernel, process, va: int, length: int) -> tuple[int, float]:
    mm = process.mm
    end = va + length
    _reject_partial_huge(mm, va, end)
    if not mm.vmas.remove_range(va, end):
        raise InvalidMappingError("munmap of unmapped range")
    before = mm.tree.ops.stats.snapshot()
    work = WorkCounters()
    for base in _mapped_bases(mm, va, end):
        mapped = mm.frames.pop(base)
        with mm.lock():
            mm.tree.unmap_page(base)
        kernel.physmem.free(mapped.frame)
        work.pages_freed += 512 if mapped.huge else 1
    shoot = kernel.shootdown.flush_all(kernel.cpu_contexts)
    return 0, syscall_cycles(mm.tree.ops.stats.delta(before), work, shoot)


def per_page_mprotect(kernel, process, va: int, length: int, prot: int) -> tuple[int, float]:
    mm = process.mm
    end = va + length
    if not mm.vmas.in_range(va, end):
        raise InvalidMappingError("mprotect of unmapped range")
    _reject_partial_huge(mm, va, end)
    mm.vmas.protect_range(va, end, prot)
    before = mm.tree.ops.stats.snapshot()
    for base in _mapped_bases(mm, va, end):
        with mm.lock():
            mm.tree.protect_page(base, prot)
    shoot = kernel.shootdown.flush_all(kernel.cpu_contexts)
    return 0, syscall_cycles(mm.tree.ops.stats.delta(before), WorkCounters(), shoot)


def per_page_scan_idle(kernel, process, give_second_chance: bool = True) -> list[int]:
    """``SwapManager.scan_idle`` one page (and one ring walk) at a time."""
    tree = process.mm.tree
    idle = []
    for va, mapped in sorted(process.mm.frames.items()):
        if mapped.huge:
            continue
        location = tree.leaf_location(va)
        if not tree.ops.read_pte(tree, location.page, location.index) & PTE_ACCESSED:
            idle.append(va)
        elif give_second_chance:
            tree.ops.clear_ad_bits(tree, location.page, location.index)
            kernel.swap.stats.second_chances += 1
    return idle


def range_op(kernel, process, op: str, va: int, length: int):
    if op == "mmap":
        result = kernel.sys_mmap(process, length, populate=True, fixed_va=va)
    elif op == "mprotect":
        result = kernel.sys_mprotect(process, va, length, PTE_USER)
    else:
        result = kernel.sys_munmap(process, va, length)
    return result.value, result.cycles


def per_page_op(kernel, process, op: str, va: int, length: int):
    if op == "mmap":
        return per_page_mmap(kernel, process, length, va)
    if op == "mprotect":
        return per_page_mprotect(kernel, process, va, length, PTE_USER)
    return per_page_munmap(kernel, process, va, length)


def outcome(apply, *args):
    try:
        return apply(*args)
    except (InvalidMappingError, OutOfMemoryError) as exc:
        return type(exc).__name__


def observable(kernel, process) -> dict:
    """Everything the two paths must agree on."""
    mm = process.mm
    physmem = kernel.physmem
    nodes = kernel.machine.node_ids()
    return {
        "dump": ptdump.dump_tree(mm.tree, physmem, N_SOCKETS).render(),
        "mappings": list(mm.tree.iter_mappings()),
        "ops": mm.tree.ops.stats,
        "frames": {va: (m.frame.pfn, m.huge) for va, m in mm.frames.items()},
        "frame_order": list(mm.frames),
        "pt_bytes": [physmem.page_table_bytes(n) for n in nodes],
        "used": [physmem.stats(n).used_frames for n in nodes],
        "faults": kernel.fault_handler.faults_handled,
        "thp": kernel.thp.stats,
        "vmas": [(v.start, v.end, v.prot) for v in mm.vmas],
    }


def unaccounted_frames(kernel, process) -> int:
    """Allocated frames neither mapped, nor page tables, nor pooled."""
    physmem = kernel.physmem
    nodes = kernel.machine.node_ids()
    used = sum(physmem.stats(n).used_frames for n in nodes)
    data = sum(m.frame.nbytes // PAGE_SIZE for m in process.mm.frames.values())
    pooled = sum(kernel.pagecache.pooled(n) for n in nodes)
    return used - data - len(process.mm.tree.registry) - pooled


# -- equivalence property -------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["mmap", "mmap", "mprotect", "munmap"]),
        st.integers(min_value=0, max_value=REGION_PAGES - 1),
        st.integers(min_value=1, max_value=REGION_PAGES // 2),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("interleave", [False, True], ids=["first-touch", "interleave"])
@pytest.mark.parametrize("thp", [False, True], ids=["4k", "thp"])
@settings(max_examples=15, deadline=None)
@given(script=ops)
def test_range_ops_match_per_page_replay(thp, interleave, backend, script):
    fast = make_kernel(thp, interleave, backend)
    slow = make_kernel(thp, interleave, backend)
    for op, first_page, pages in script:
        va = REGION + first_page * PAGE_SIZE
        length = min(pages, REGION_PAGES - first_page) * PAGE_SIZE
        got = outcome(range_op, *fast, op, va, length)
        want = outcome(per_page_op, *slow, op, va, length)
        assert got == want, (op, hex(va), length)
        assert observable(*fast) == observable(*slow), (op, hex(va), length)
    assert verify_tree(fast[1].mm.tree).ok
    assert unaccounted_frames(*fast) == 0


def test_scan_idle_matches_per_page_scan():
    fast = make_kernel(thp=True, interleave=False, backend="mitosis-4")
    slow = make_kernel(thp=True, interleave=False, backend="mitosis-4")
    for kernel, process in (fast, slow):
        # A 2 MiB page, then 4 KiB pages over a partial leaf table.
        kernel.sys_mmap(process, 3 * MIB, populate=True, fixed_va=GIB - 2 * MIB)
        walker = HardwareWalker(process.mm.tree)
        for i, va in enumerate(range(GIB - 2 * MIB, GIB + 1 * MIB, 3 * PAGE_SIZE)):
            walker.walk(va, socket=i % N_SOCKETS, is_write=bool(i % 2))
    for pass_ in range(2):
        got = fast[0].swap.scan_idle(fast[1])
        want = per_page_scan_idle(*slow)
        assert got == want, pass_
        assert fast[0].swap.stats.second_chances == slow[0].swap.stats.second_chances
        assert observable(*fast) == observable(*slow)
    for _, process in (fast, slow):
        HardwareWalker(process.mm.tree).walk(GIB + 5 * PAGE_SIZE, socket=3)
    idle = fast[0].swap.scan_idle(fast[1], give_second_chance=False)
    assert idle == per_page_scan_idle(*slow, give_second_chance=False)
    assert GIB + 5 * PAGE_SIZE not in idle
    assert observable(*fast) == observable(*slow)


# -- failure atomicity ----------------------------------------------------------------


def _oom_from_call(first_call: int) -> FaultPlan:
    """Every strict allocation from the ``first_call``-th on fails, so the
    nearest-node fallback fails too."""
    plan = FaultPlan(seed=0)
    plan.add(FaultRule(site=SITE_ALLOCATOR_OOM, on_calls=frozenset(range(first_call, 1 << 20))))
    return plan


@pytest.mark.parametrize("backend", ["native", "mitosis-2"])
def test_allocator_oom_mid_table_keeps_prefix(backend):
    fast = make_kernel(thp=False, interleave=False, backend=backend)
    slow = make_kernel(thp=False, interleave=False, backend=backend)
    for kernel, _ in (fast, slow):
        install_fault_plan(kernel, _oom_from_call(700))
    va = GIB - 1 * MIB
    assert outcome(range_op, *fast, "mmap", va, 3 * MIB) == "OutOfMemoryError"
    assert outcome(per_page_op, *slow, "mmap", va, 3 * MIB) == "OutOfMemoryError"
    mapped = len(fast[1].mm.frames)
    assert 0 < mapped % 512 < 511, "the failure should land mid leaf table"
    assert observable(*fast) == observable(*slow)
    assert unaccounted_frames(*fast) == 0
    assert verify_tree(fast[1].mm.tree).ok


def test_pagecache_refill_failure_frees_the_span_frame():
    fast = make_kernel(thp=False, interleave=False, backend="native")
    slow = make_kernel(thp=False, interleave=False, backend="native")
    for kernel, _ in (fast, slow):
        plan = FaultPlan(seed=0)
        # Refills 1-3 build the first span's L3, L2 and L1 tables; the
        # second span crosses 1 GiB, so it needs a new L2 (4) and L1 (5).
        plan.pagecache_oom(node=0, on_calls={5})
        install_fault_plan(kernel, plan)
    va = GIB - 2 * MIB
    assert outcome(range_op, *fast, "mmap", va, 4 * MIB) == "OutOfMemoryError"
    assert outcome(per_page_op, *slow, "mmap", va, 4 * MIB) == "OutOfMemoryError"
    want, got = observable(*slow), observable(*fast)
    assert len(got["frames"]) == 512
    for key in ("frames", "frame_order", "faults", "ops", "dump", "pt_bytes"):
        assert got[key] == want[key], key
    # The faulting page's data frame was allocated before its table; the
    # range path hands it back instead of leaking it.
    assert unaccounted_frames(*fast) == 0


@pytest.mark.parametrize("syscall", ["munmap", "mprotect"])
def test_partial_huge_page_raises_before_any_change(syscall):
    kernel, process = make_kernel(thp=True, interleave=False, backend="mitosis-2")
    va = kernel.sys_mmap(process, 4 * MIB, populate=True, fixed_va=GIB).value
    assert process.mm.frames[va].huge and process.mm.frames[va + 2 * MIB].huge
    before = observable(kernel, process)
    with pytest.raises(InvalidMappingError, match="partially covers the 2 MiB page"):
        range_op(kernel, process, syscall, va, 3 * MIB)  # whole first, half second
    assert observable(kernel, process) == before


# -- backend batches ------------------------------------------------------------------

PAIR = frozenset({0, 1})
PAGING_OPS = {
    "native": NativePagingOps,
    "mitosis": lambda cache: MitosisPagingOps(cache, PAIR),
    "naive": lambda cache: NaiveMitosisPagingOps(cache, PAIR),
    "lazy": lambda cache: LazyMitosisPagingOps(cache, PAIR),
}


def _bare_tree(make_ops) -> PageTableTree:
    machine = Machine.homogeneous(2, cores_per_socket=1, memory_per_socket=8 * MIB)
    return PageTableTree(make_ops(PageTablePageCache(PhysicalMemory(machine))))


def _tree_state(tree: PageTableTree) -> tuple:
    queues = getattr(tree.ops, "queues", {})
    return (
        tree.ops.stats,
        {pfn: list(page.entries) for pfn, page in tree.registry.items()},
        {socket: list(queue) for socket, queue in queues.items()},
    )


@pytest.mark.parametrize("backend", sorted(PAGING_OPS))
def test_backend_batches_match_per_entry_calls(backend):
    """``set_ptes``/``scan_accessed`` through the tree's range methods
    equal ``map_page``/``protect_page``/``unmap_page`` and per-entry A/D
    calls on every shipped backend, counters and lazy queues included."""
    fast, slow = _bare_tree(PAGING_OPS[backend]), _bare_tree(PAGING_OPS[backend])
    va, pages = 2 * MIB + 100 * PAGE_SIZE, 50
    pfns = list(range(5000, 5000 + pages))
    vas = [va + i * PAGE_SIZE for i in range(pages)]

    fast.map_leaves(fast.leaf_table(va), va, pfns, PTE_WRITABLE | PTE_USER)
    for page_va, pfn in zip(vas, pfns):
        slow.map_page(page_va, pfn, PTE_WRITABLE | PTE_USER)
    assert _tree_state(fast) == _tree_state(slow)

    (run,) = fast.leaf_runs(va, va + pages * PAGE_SIZE)
    fast.protect_leaves(run, PTE_USER)
    for page_va in vas:
        slow.protect_page(page_va, PTE_USER)
    assert _tree_state(fast) == _tree_state(slow)

    for tree in (fast, slow):
        walker = HardwareWalker(tree)
        for i in range(0, pages, 3):
            walker.walk(vas[i], socket=i % 2)

    young = fast.ops.scan_accessed(fast, run.table, run.present(), clear=True)
    want = []
    for page_va in vas:
        location = slow.leaf_location(page_va)
        want.append(bool(slow.ops.read_pte(slow, *location) & PTE_ACCESSED))
        if want[-1]:
            slow.ops.clear_ad_bits(slow, *location)
    assert young == want and any(want)
    assert _tree_state(fast) == _tree_state(slow)

    assert fast.clear_leaves(run) == vas
    fast.prune(run.path)
    for page_va in vas:
        slow.unmap_page(page_va)
    assert _tree_state(fast) == _tree_state(slow)
    assert len(fast.registry) == len(getattr(fast.ops, "mask", [0]))  # only the root is left
