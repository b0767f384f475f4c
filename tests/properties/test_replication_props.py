"""Property-based tests: replication invariants.

For ANY sequence of map/unmap operations and ANY replication mask:

* every replica translates every VA identically (walks from any socket
  agree with the primary);
* every walk from a masked socket touches only that socket's memory;
* enabling then collapsing replication is observationally a no-op;
* background replication, run to completion, equals eager replication.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.policy import FixedNodePolicy
from repro.kernel.pvops import NativePagingOps
from repro.machine.topology import Machine
from repro.mem.pagecache import PageTablePageCache
from repro.mem.physmem import PhysicalMemory
from repro.inject.verify import verify_tree
from repro.mitosis.background import run_to_completion, start_background_replication
from repro.mitosis.replication import collapse_replicas, enable_replication
from repro.mitosis.ring import primary_of, ring_members
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_USER, PTE_WRITABLE
from repro.paging.walker import HardwareWalker
from repro.units import MIB, PAGE_SIZE

FLAGS = PTE_WRITABLE | PTE_USER
N_SOCKETS = 4

vpns = st.integers(min_value=0, max_value=1 << 22)
masks = st.sets(st.integers(min_value=0, max_value=N_SOCKETS - 1), min_size=1).map(frozenset)
ops = st.lists(
    st.tuples(st.sampled_from(["map", "unmap"]), vpns), min_size=1, max_size=40
)


def fresh():
    physmem = PhysicalMemory(
        Machine.homogeneous(N_SOCKETS, cores_per_socket=1, memory_per_socket=64 * MIB)
    )
    cache = PageTablePageCache(physmem)
    tree = PageTableTree(NativePagingOps(cache, pt_policy=FixedNodePolicy(0)))
    return physmem, cache, tree


def apply_ops(physmem, tree, operations, mapping=None):
    mapping = {} if mapping is None else mapping
    for op, vpn in operations:
        if op == "map" and vpn not in mapping:
            pfn = physmem.alloc_frame(vpn % N_SOCKETS).pfn
            tree.map_page(vpn * PAGE_SIZE, pfn, FLAGS)
            mapping[vpn] = pfn
        elif op == "unmap" and vpn in mapping:
            tree.unmap_page(vpn * PAGE_SIZE)
            del mapping[vpn]
    return mapping


@settings(max_examples=25, deadline=None)
@given(ops, masks)
def test_replicas_translate_identically(operations, mask):
    physmem, cache, tree = fresh()
    mapping = apply_ops(physmem, tree, operations[: len(operations) // 2])
    enable_replication(tree, cache, mask)
    apply_ops(physmem, tree, operations[len(operations) // 2 :], mapping)
    walker = HardwareWalker(tree)
    for vpn, pfn in mapping.items():
        for socket in range(N_SOCKETS):
            result = walker.walk(vpn * PAGE_SIZE, socket=socket, set_ad_bits=False)
            assert result.translation is not None
            assert result.translation.pfn == pfn


@settings(max_examples=25, deadline=None)
@given(ops, masks)
def test_walks_from_masked_sockets_are_local(operations, mask):
    physmem, cache, tree = fresh()
    apply_ops(physmem, tree, operations)
    enable_replication(tree, cache, mask)
    walker = HardwareWalker(tree)
    for _, vpn in operations:
        for socket in mask:
            result = walker.walk(vpn * PAGE_SIZE, socket=socket, set_ad_bits=False)
            assert all(a.node == socket for a in result.accesses)


@settings(max_examples=25, deadline=None)
@given(ops, masks)
def test_enable_collapse_is_noop(operations, mask):
    physmem, cache, tree = fresh()
    mapping = apply_ops(physmem, tree, operations)
    tables_before = tree.table_count()
    pt_bytes_before = physmem.page_table_bytes()
    enable_replication(tree, cache, mask | {0})
    collapse_replicas(tree, cache, keep_socket=0)
    assert tree.table_count() == tables_before
    assert physmem.page_table_bytes() == pt_bytes_before
    assert {va // PAGE_SIZE: tr.pfn for va, tr in tree.iter_mappings()} == mapping
    for page in tree.iter_tables():
        assert page.frame.replica_next is None


@settings(max_examples=20, deadline=None)
@given(ops, masks)
def test_replica_memory_accounting(operations, mask):
    """PT bytes grow exactly |new sockets| per-table — the Table 4 story."""
    physmem, cache, tree = fresh()
    apply_ops(physmem, tree, operations)
    tables = tree.table_count()
    pt_before = physmem.page_table_bytes()
    enable_replication(tree, cache, mask)
    new_sockets = len(mask - {0})
    assert physmem.page_table_bytes() == pt_before + new_sockets * tables * PAGE_SIZE


def ring_shapes(tree):
    """Per ring, keyed by its primary's pfn: the level and each copy's
    (socket, valid entries). Replica pfns depend on allocation order, so
    they are left out."""
    shapes = {}
    for page in tree.iter_tables():
        primary = primary_of(page)
        copies = sorted((m.node, m.valid_count) for m in ring_members(tree, primary))
        shapes[primary.pfn] = (primary.level, copies)
    return shapes


@settings(max_examples=25, deadline=None)
@given(ops, masks)
def test_background_replication_matches_eager(operations, mask):
    """Copying the tables in bounded background steps ends where one eager
    ``enable_replication`` does: same rings, same entry counts, same
    writes and allocations, and a clean replica verifier on both."""
    results = []
    for replicate in (
        enable_replication,
        lambda tree, cache, mask: run_to_completion(
            start_background_replication(tree, cache, mask)
        ),
    ):
        physmem, cache, tree = fresh()
        apply_ops(physmem, tree, operations)
        replicate(tree, cache, mask)
        report = verify_tree(tree)
        assert report.ok, report.render()
        stats = tree.ops.stats
        results.append((ring_shapes(tree), stats.pte_writes, stats.tables_allocated))
    assert results[0] == results[1]
