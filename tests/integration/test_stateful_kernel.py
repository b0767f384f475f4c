"""Stateful fuzzing of the whole kernel + Mitosis surface.

Hypothesis drives random interleavings of mmap / munmap / mprotect /
process migration / replication-mask changes / page-table migration /
replica shrinking / stepped background replication / injected page-cache
OOM against a reference model, checking after every step:

* translations match the model exactly (for every replica, from every
  socket);
* physical frames are conserved (no leaks, no double use);
* replica rings are well-formed;
* the replica-consistency verifier is clean (socket-local child wiring,
  leaf agreement, published-mask coverage);
* tearing everything down returns the machine to pristine.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.inject import FaultPlan, install_fault_plan, verify_kernel
from repro.kernel.kernel import Kernel
from repro.kernel.sysctl import MitosisMode, Sysctl
from repro.machine.topology import Machine
from repro.mitosis.background import run_to_completion, start_background_replication
from repro.mitosis.replication import replica_sockets
from repro.mitosis.ring import ring_members
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE

N_SOCKETS = 2
REGION_PAGES = 8


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        machine = Machine.homogeneous(
            N_SOCKETS, cores_per_socket=1, memory_per_socket=16 * MIB
        )
        self.kernel = Kernel(machine, sysctl=Sysctl(mitosis_mode=MitosisMode.PER_PROCESS))
        self.process = self.kernel.create_process("fuzz", socket=0)
        self.plan = install_fault_plan(self.kernel, FaultPlan(seed=0))
        #: reference model: page-aligned va -> True (mapped)
        self.model: dict[int, bool] = {}
        #: In-flight background replication, stepped by its own rule.
        self.job = None

    def finish_job(self):
        """Mask-changing operations run on a settled replica set."""
        if self.job is not None:
            try:
                run_to_completion(self.job, max_tables_per_step=4)
            except OutOfMemoryError:
                pass  # every target socket stayed dry; the job gave up
            self.job = None

    # -- operations --------------------------------------------------------------

    @rule(pages=st.integers(min_value=1, max_value=REGION_PAGES))
    def mmap(self, pages):
        vmas = self.process.mm.vmas
        before = {vma.start for vma in vmas}
        try:
            va = self.kernel.sys_mmap(
                self.process, pages * PAGE_SIZE, populate=True, use_huge=False
            ).value
        except OutOfMemoryError:
            # Populate failed part-way: unmap whatever it left behind.
            for vma in [vma for vma in vmas if vma.start not in before]:
                self.kernel.sys_munmap(self.process, vma.start, vma.end - vma.start)
            return
        for i in range(pages):
            self.model[va + i * PAGE_SIZE] = True

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def munmap_one(self, data):
        va = data.draw(st.sampled_from(sorted(self.model)))
        self.kernel.sys_munmap(self.process, va, PAGE_SIZE)
        del self.model[va]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), writable=st.booleans())
    def mprotect_one(self, data, writable):
        va = data.draw(st.sampled_from(sorted(self.model)))
        prot = (PTE_WRITABLE | PTE_USER) if writable else PTE_USER
        self.kernel.sys_mprotect(self.process, va, PAGE_SIZE, prot)

    @rule(target_socket=st.integers(min_value=0, max_value=N_SOCKETS - 1))
    def migrate_process(self, target_socket):
        try:
            self.kernel.sys_migrate_process(self.process, target_socket)
        except OutOfMemoryError:
            return

    @rule(mask=st.sets(st.integers(min_value=0, max_value=N_SOCKETS - 1)))
    def set_replication_mask(self, mask):
        self.finish_job()
        try:
            self.kernel.mitosis.set_replication_mask(self.process, frozenset(mask) or None)
        except OutOfMemoryError:
            return

    @precondition(lambda self: self.process.mm.replicated)
    @rule(destination=st.integers(min_value=0, max_value=N_SOCKETS - 1))
    def migrate_pagetables(self, destination):
        from repro.mitosis.migration import migrate_page_tables

        self.finish_job()
        try:
            migrate_page_tables(self.kernel, self.process, destination)
        except OutOfMemoryError:
            return

    @precondition(lambda self: self.process.mm.replicated)
    @rule(socket=st.integers(min_value=0, max_value=N_SOCKETS - 1))
    def shrink(self, socket):
        from repro.mitosis.replication import shrink_replication

        self.finish_job()
        tree = self.process.mm.tree
        shrink_replication(tree, self.kernel.pagecache, frozenset({socket}))
        # A primary left on the dropped socket keeps it in the root ring,
        # but tables allocated from now on skip it: stop publishing it.
        remaining = replica_sockets(tree) - {socket}
        self.process.mm.replication_mask = remaining if len(remaining) > 1 else None

    @precondition(lambda self: self.job is None and not self.process.mm.replicated)
    @rule(mask=st.sets(st.integers(min_value=0, max_value=N_SOCKETS - 1), min_size=1))
    def start_background(self, mask):
        self.job = start_background_replication(
            self.process.mm.tree,
            self.kernel.pagecache,
            frozenset(mask),
            kernel=self.kernel,
            mm=self.process.mm,
        )

    @precondition(lambda self: self.job is not None)
    @rule(tables=st.integers(min_value=1, max_value=4))
    def step_background(self, tables):
        try:
            self.job.step(tables)
        except OutOfMemoryError:
            self.job = None  # every target socket stayed dry; the job gave up
            return
        if self.job.done:
            self.job = None

    @rule(
        node=st.integers(min_value=0, max_value=N_SOCKETS - 1),
        limit=st.integers(min_value=1, max_value=4),
    )
    def pagecache_oom(self, node, limit):
        self.plan.pagecache_oom(node=node, limit=limit)

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def translations_match_model(self):
        tree = self.process.mm.tree
        walker = HardwareWalker(tree)
        for va in self.model:
            for socket in range(N_SOCKETS):
                result = walker.walk(va, socket, set_ad_bits=False)
                assert result.translation is not None, f"0x{va:x} lost (socket {socket})"
        mapped = {va for va, _ in tree.iter_mappings()}
        assert mapped == set(self.model)

    @invariant()
    def rings_are_well_formed(self):
        tree = self.process.mm.tree
        seen: set[int] = set()
        for page in tree.iter_tables():
            members = ring_members(tree, page)
            nodes = [m.node for m in members]
            assert len(nodes) == len(set(nodes)), "duplicate socket in ring"
            for member in members:
                assert member.pfn not in seen or member.pfn == page.pfn
            seen.update(m.pfn for m in members)
        assert seen == set(tree.registry), "registry / ring mismatch"

    # Mid-job, a parent copy points at its child's primary until the job
    # reaches the parent; only settled replica sets are socket-local.
    @precondition(lambda self: self.job is None)
    @invariant()
    def replicas_verify(self):
        report = verify_kernel(self.kernel)
        assert report.ok, report.render()

    @invariant()
    def full_mm_validation(self):
        from repro.kernel.debug import validate_mm

        validate_mm(self.kernel, self.process)

    @invariant()
    def frame_accounting_consistent(self):
        physmem = self.kernel.physmem
        pt_bytes = physmem.page_table_bytes()
        live_tables = self.process.mm.tree.total_table_count()
        pooled = sum(self.kernel.pagecache.pooled(n) for n in range(N_SOCKETS))
        assert pt_bytes == (live_tables + pooled) * PAGE_SIZE

    def teardown(self):
        self.kernel.destroy_process(self.process)
        self.kernel.pagecache.drain()
        for node in range(N_SOCKETS):
            assert self.kernel.physmem.stats(node).used_frames == 0, "frame leak"


KernelFuzz = KernelMachine.TestCase
KernelFuzz.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
