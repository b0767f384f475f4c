"""Background (incremental) replication: consistency at every step."""

import pytest

from repro.errors import OutOfMemoryError
from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.machine.topology import Machine, Socket
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.mitosis.background import run_to_completion, start_background_replication
from repro.inject.verify import verify_tree
from repro.mitosis.replication import enable_replication, replica_sockets
from repro.mitosis.ring import ring_members
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
MASK = frozenset({0, 1, 2, 3})


@pytest.fixture
def setup(physmem4):
    cache = PageTablePageCache(physmem4)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    mapping = {}
    for i in range(600):  # spans two L1 tables
        pfn = physmem4.alloc_frame(0).pfn
        tree.map_page(i * PAGE_SIZE, pfn, FLAGS)
        mapping[i * PAGE_SIZE] = pfn
    return physmem4, cache, tree, mapping


def translations_correct(tree, mapping, sockets=range(4)):
    walker = HardwareWalker(tree)
    for va, pfn in mapping.items():
        for socket in sockets:
            result = walker.walk(va, socket, set_ad_bits=False)
            if result.translation is None or result.translation.pfn != pfn:
                return False
    return True


class TestBackgroundReplication:
    def test_step_makes_bounded_progress(self, setup):
        physmem, cache, tree, mapping = setup
        job = start_background_replication(tree, cache, MASK)
        total = job.remaining
        assert total == tree.table_count()
        job.step(max_tables=2)
        assert job.remaining == total - 2
        assert not job.done

    def test_consistent_at_every_intermediate_state(self, setup):
        physmem, cache, tree, mapping = setup
        job = start_background_replication(tree, cache, MASK)
        while not job.done:
            job.step(max_tables=1)
            assert translations_correct(tree, mapping)
        assert replica_sockets(tree) == MASK

    def test_completion_matches_eager_replication(self, setup):
        physmem, cache, tree, mapping = setup
        job = start_background_replication(tree, cache, MASK)
        run_to_completion(job)
        # Every socket walks fully locally, as after eager enable.
        walker = HardwareWalker(tree)
        for socket in range(4):
            result = walker.walk(0, socket, set_ad_bits=False)
            assert all(a.node == socket for a in result.accesses)
        assert tree.total_table_count() == 4 * tree.table_count()

    def test_updates_during_job_stay_consistent(self, setup):
        physmem, cache, tree, mapping = setup
        job = start_background_replication(tree, cache, MASK)
        job.step(max_tables=1)
        # Mutate mid-job: new mapping, an unmap, and a protect.
        new_pfn = physmem.alloc_frame(1).pfn
        tree.map_page(0x40000000, new_pfn, FLAGS)  # new subtree -> born replicated
        mapping[0x40000000] = new_pfn
        tree.unmap_page(0)
        del mapping[0]
        run_to_completion(job)
        assert translations_correct(tree, mapping)
        walker = HardwareWalker(tree)
        for socket in range(4):
            result = walker.walk(0x40000000, socket, set_ad_bits=False)
            assert all(a.node == socket for a in result.accesses)

    def test_tables_freed_mid_job_are_skipped(self, setup):
        physmem, cache, tree, mapping = setup
        job = start_background_replication(tree, cache, MASK)
        # Unmap a whole L1 table's worth before it gets replicated.
        for i in range(512):
            tree.unmap_page(i * PAGE_SIZE)
            mapping.pop(i * PAGE_SIZE)
        run_to_completion(job)
        assert translations_correct(tree, mapping)

    def test_cycles_accounted(self, setup):
        physmem, cache, tree, mapping = setup
        job = start_background_replication(tree, cache, MASK)
        cycles = run_to_completion(job)
        assert cycles > 0
        assert job.tables_copied == tree.table_count()

    def test_oom_pauses_job_resumably(self):
        # Socket 1 holds 5 frames; 2 are hogged, the tree needs 4 replicas.
        machine = Machine(sockets=(Socket(0, 1, 32 * MIB), Socket(1, 1, 5 * PAGE_SIZE)))
        physmem = PhysicalMemory(machine)
        cache = PageTablePageCache(physmem)
        tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
        mapping = {}
        for i in range(8):
            pfn = physmem.alloc_frame(0).pfn
            tree.map_page(i * PAGE_SIZE, pfn, FLAGS)
            mapping[i * PAGE_SIZE] = pfn
        hogs = [physmem.alloc_frame(1) for _ in range(2)]

        job = start_background_replication(tree, cache, frozenset({0, 1}))
        with pytest.raises(OutOfMemoryError):
            run_to_completion(job, max_tables_per_step=1)
        # Mid-job state is consistent from both sockets...
        assert translations_correct(tree, mapping, sockets=(0, 1))
        assert 0 < job.remaining < 4
        # ...and the job resumes to completion once memory is freed.
        for hog in hogs:
            physmem.free(hog)
        run_to_completion(job)
        assert replica_sockets(tree) == frozenset({0, 1})
        assert translations_correct(tree, mapping, sockets=(0, 1))


def eager(tree, cache, mask):
    enable_replication(tree, cache, mask)


def background(tree, cache, mask):
    run_to_completion(start_background_replication(tree, cache, mask))


@pytest.mark.parametrize("replicate", [eager, background])
class TestMixedPlacement:
    """Trees whose root sits on another socket than the tables below it,
    as first-touch placement leaves a process that moved after exec."""

    @staticmethod
    def mixed_tree(physmem, root_node, table_node):
        cache = PageTablePageCache(physmem)
        ops = NativePagingOps(cache, pt_policy=FixedNodePolicy(root_node))
        tree = PageTableTree(ops)
        ops.pt_policy = FixedNodePolicy(table_node)
        for i in range(8):
            tree.map_page(i * PAGE_SIZE, physmem.alloc_frame(0).pfn, FLAGS)
        return cache, tree

    @staticmethod
    def assert_covered(tree, mask):
        report = verify_tree(tree)
        assert report.ok, report.render()
        for page in tree.iter_tables():
            assert mask <= {m.node for m in ring_members(tree, page)}

    def test_growing_the_mask_extends_rings_reached_through_replicas(
        self, physmem4, replicate
    ):
        # Once replicated, the root's primary (socket 2) points at the
        # socket-2 *replicas* of the tables below: the walk reaches those
        # rings through a replica, and they still need a copy on socket 3.
        cache, tree = self.mixed_tree(physmem4, root_node=2, table_node=0)
        replicate(tree, cache, frozenset({0, 1, 2}))
        replicate(tree, cache, MASK)
        self.assert_covered(tree, MASK)

    def test_existing_copies_are_rewired_to_new_local_children(self, physmem4, replicate):
        # The root already lives on socket 0; once the tables below get a
        # copy there, the root must point at it.
        cache, tree = self.mixed_tree(physmem4, root_node=0, table_node=1)
        replicate(tree, cache, frozenset({0}))
        self.assert_covered(tree, frozenset({0}))
        result = HardwareWalker(tree).walk(0, 0, set_ad_bits=False)
        assert all(a.node == 0 for a in result.accesses)
