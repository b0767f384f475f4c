"""The replica-consistency verifier: catches exactly the corruptions the
Mitosis invariants forbid, and nothing else."""

import pytest

from repro.inject import verify_kernel, verify_tree
from repro.mitosis.ring import primary_of, ring_members
from repro.paging.pte import PTE_ACCESSED, PTE_DIRTY, make_pte, pte_flags, pte_pfn, pte_present
from repro.units import MIB
from repro.lint.sanitizer import simulated_hardware
from repro.sim.scenario import setup_multisocket


@pytest.fixture
def replicated(kernel2):
    process = kernel2.create_process("app", socket=0)
    kernel2.sys_mmap(process, MIB, populate=True)
    kernel2.mitosis.set_replication_mask(process, frozenset({0, 1}))
    return kernel2, process


def _leaf_ring(tree):
    for primary in tree.iter_tables():
        if primary.level == 1 and primary.valid_count:
            members = ring_members(tree, primary)
            if len(members) > 1:
                return members
    raise AssertionError("no populated replicated leaf ring found")


def _upper_ring(tree):
    for primary in tree.iter_tables():
        if primary.level > 1 and primary.valid_count:
            members = ring_members(tree, primary)
            if len(members) > 1:
                return members
    raise AssertionError("no populated replicated upper ring found")


def _first_present(page):
    for index, entry in enumerate(page.entries):
        if pte_present(entry):
            return index, entry
    raise AssertionError("no present entry")


class TestCleanTrees:
    def test_native_tree_verifies(self, kernel2):
        process = kernel2.create_process("native", socket=0)
        kernel2.sys_mmap(process, MIB, populate=True)
        report = verify_tree(process.mm.tree)
        assert report.ok
        assert report.rings_checked > 0
        assert "OK" in report.render()

    def test_replicated_tree_verifies(self, replicated):
        _, process = replicated
        report = verify_tree(process.mm.tree)
        assert report.ok
        assert report.entries_checked > 0

    def test_verify_kernel_covers_all_processes(self, replicated):
        kernel, _ = replicated
        other = kernel.create_process("other", socket=1)
        kernel.sys_mmap(other, MIB, populate=True)
        solo = verify_tree(other.mm.tree)
        combined = verify_kernel(kernel)
        assert combined.ok
        assert combined.rings_checked > solo.rings_checked

    def test_verifier_leaves_ops_stats_untouched(self, replicated):
        _, process = replicated
        stats = process.mm.tree.ops.stats
        before = stats.snapshot()
        verify_tree(process.mm.tree)
        assert stats.pte_reads == before.pte_reads
        assert stats.ring_hops == before.ring_hops

    def test_diverged_ad_bits_are_legal(self, replicated):
        """Hardware sets A/D in whichever replica it walked (§5.4) — replicas
        legitimately differ in exactly those bits."""
        _, process = replicated
        members = _leaf_ring(process.mm.tree)
        index, entry = _first_present(members[1])
        with simulated_hardware():
            members[1].entries[index] = entry | PTE_ACCESSED | PTE_DIRTY
        assert verify_tree(process.mm.tree).ok


class TestCorruptions:
    def test_leaf_pfn_divergence_detected(self, replicated):
        _, process = replicated
        members = _leaf_ring(process.mm.tree)
        index, entry = _first_present(members[1])
        with simulated_hardware():
            members[1].entries[index] = make_pte(pte_pfn(entry) + 1, pte_flags(entry))
        report = verify_tree(process.mm.tree)
        assert not report.ok
        assert any(v.kind == "leaf-mismatch" for v in report.violations)
        assert "FAIL" in report.render()

    def test_present_bit_divergence_detected(self, replicated):
        _, process = replicated
        members = _leaf_ring(process.mm.tree)
        index, _ = _first_present(members[1])
        with simulated_hardware():
            members[1].entries[index] = 0
        report = verify_tree(process.mm.tree)
        assert any(v.kind == "present-mismatch" for v in report.violations)

    def test_remote_child_with_local_copy_detected(self, replicated):
        """Semantic replication demands socket-local child pointers; wiring
        a replica's entry to the remote primary child must be flagged."""
        _, process = replicated
        tree = process.mm.tree
        members = _upper_ring(tree)
        replica = members[1]
        index, entry = _first_present(replica)
        primary_index, primary_entry = _first_present(members[0])
        assert index == primary_index
        with simulated_hardware():
            replica.entries[index] = make_pte(pte_pfn(primary_entry), pte_flags(entry))
        report = verify_tree(tree)
        assert any(v.kind == "child-wiring" for v in report.violations)

    def test_broken_ring_detected(self, replicated):
        _, process = replicated
        members = _leaf_ring(process.mm.tree)
        members[1].frame.replica_next = 0xDEAD000
        report = verify_tree(process.mm.tree)
        assert any(v.kind == "ring-structure" for v in report.violations)

    def test_published_mask_must_be_covered(self, replicated):
        kernel, process = replicated
        process.mm.replication_mask = frozenset({0, 1, 3})  # lie: no socket-3 copies
        report = verify_kernel(kernel)
        assert any(v.kind == "mask-coverage" for v in report.violations)
        assert verify_kernel(kernel, check_masks=False).ok


class TestMultiSocketReplication:
    """A 4-socket F-A+M tree: upper-level entries point at socket-local
    members, so ``iter_tables`` reaches many rings through a replica. The
    verifier must anchor each ring at its primary and check it once."""

    @pytest.fixture
    def setup(self):
        return setup_multisocket(
            "xsbench", "F-A+M", footprint=4 * MIB, n_sockets=4, seed=11
        )

    def test_rings_reached_through_replicas_verify_clean(self, setup):
        tree = setup.process.mm.tree
        reached = list(tree.iter_tables())
        assert any(page.is_replica for page in reached)
        report = verify_kernel(setup.kernel)
        assert report.ok, report.render()
        assert report.rings_checked == len({primary_of(p).pfn for p in reached})

    def test_corrupted_replica_pte_still_fails(self, setup):
        tree = setup.process.mm.tree
        leaf = next(
            page for page in tree.iter_tables()
            if page.level == 1 and page.is_replica and page.valid_count
        )
        index, entry = _first_present(leaf)
        with simulated_hardware():
            leaf.entries[index] = make_pte(pte_pfn(entry) + 1, pte_flags(entry))
        report = verify_kernel(setup.kernel)
        kinds = {v.kind for v in report.violations}
        assert kinds == {"leaf-mismatch"}
        assert all(v.pfn == primary_of(leaf).pfn for v in report.violations)
