"""The naive replication backend — the design point Mitosis rejects.

§5.2: without the circular replica ring, updating all N replicas requires
*walking each replica's tree* from its root to locate the entry — ~4N
memory references per update on x86-64 instead of the ring's 2N. This
backend propagates updates identically to the optimised one (so it is
drop-in interchangeable and correctness tests can run against it) but
accounts the walk-per-replica cost, so the ablation bench can measure what
the Fig. 8 ring buys on real update streams.
"""

from __future__ import annotations

from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.ring import ring_members
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps


class NaiveMitosisPagingOps(MitosisPagingOps):
    """Replication with walk-per-replica update propagation.

    Each ``set_pte`` locates every replica's entry by a root-to-entry walk
    of that replica (``root_level - page.level`` upper-level PTE reads per
    replica, then the entry write itself) instead of following one ring
    pointer — the paper's "4N memory accesses" for a leaf update on 4-level
    paging.
    """

    # Batches still pay one walk per replica per entry: no ring to share.
    set_ptes = PagingOps.set_ptes
    scan_accessed = PagingOps.scan_accessed

    def set_pte(self, tree: PageTableTree, page: PageTablePage, index: int, value: int) -> None:
        members = ring_members(tree, page)
        super().set_pte(tree, page, index, value)
        # Replace the ring-hop accounting with the naive walk accounting.
        self.stats.ring_hops -= len(members)
        root_level = tree.geometry.root_level
        for member in members:
            self.stats.pte_reads += root_level - member.level

    def clear_ad_bits(self, tree: PageTableTree, page: PageTablePage, index: int) -> None:
        members = ring_members(tree, page)
        super().clear_ad_bits(tree, page, index)
        self.stats.ring_hops -= len(members)
        root_level = tree.geometry.root_level
        for member in members:
            self.stats.pte_reads += root_level - member.level


def naive_update_cost_refs(n_replicas: int, levels: int = 4) -> int:
    """Memory references the naive design pays per leaf update: a full walk
    on every replica (§5.2's '4N memory accesses')."""
    return levels * n_replicas


def ring_update_cost_refs(n_replicas: int) -> int:
    """Memory references the ring design pays: N pointer reads + N writes
    ('the update of all N replicas takes 2N memory references')."""
    return 2 * n_replicas
