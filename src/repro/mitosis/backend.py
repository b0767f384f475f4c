"""The Mitosis PV-Ops backend (§5.2): eager, semantic replication.

Every page-table mutation arriving through the PV-Ops interface is
propagated to all replicas *while still inside the page-table lock's
critical section*, preserving native consistency guarantees (§7.5).

Replication is **semantic**, not bytewise (§2.3): a leaf PTE holds the same
data-frame pointer in every replica, but an upper-level PTE must point at
*that replica's own* copy of the lower-level table — the pointers differ
between replicas everywhere except the leaf level.
"""

from __future__ import annotations

from repro.errors import ReplicationError
from repro.kernel.policy import FirstTouchPolicy, PlacementPolicy
from repro.mem.frame import FrameKind
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.accessed_dirty import clear_ad_everywhere, read_entry_or_ad
from repro.mitosis.ring import (
    alloc_frames,
    link_ring,
    local_copy,
    local_entries,
    ring_members,
    unlink_ring,
)
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.paging.pte import PTE_ACCESSED, pte_huge, pte_present
from repro.trace.session import current_session


class MitosisPagingOps(PagingOps):
    """Replicating backend: one page-table copy per socket in the mask."""

    def __init__(
        self,
        pagecache: PageTablePageCache,
        mask: frozenset[int],
        pt_policy: PlacementPolicy | None = None,
    ):
        super().__init__()
        if not mask:
            raise ReplicationError("replication mask must name at least one socket")
        self.pagecache = pagecache
        #: Sockets that hold a replica.
        self.mask = frozenset(mask)
        #: Placement for the primary copy when its socket is outside the
        #: mask (only relevant while transitioning; normally unused).
        self.pt_policy = pt_policy or FirstTouchPolicy()

    # -- allocation -----------------------------------------------------------

    def alloc_table(self, tree: PageTableTree, level: int, node_hint: int) -> PageTablePage:
        """Allocate one copy per socket in the mask, ring-linked.

        The primary is the copy on the lowest masked socket (deterministic;
        the tree's walk logic uses it, hardware never does).
        """
        sockets = sorted(self.mask)
        copies: list[PageTablePage] = []
        for frame in alloc_frames(self.pagecache, sockets):
            frame.kind = FrameKind.PAGE_TABLE
            copies.append(PageTablePage(frame=frame, level=level))
        primary = copies[0]
        for copy in copies[1:]:
            copy.primary = primary
        link_ring(copies)
        for copy in copies:
            tree.registry[copy.pfn] = copy
        self.stats.tables_allocated += len(copies)
        session = current_session()
        if session is not None:
            session.instant(
                "replicate-table",
                category="mitosis",
                level=level,
                sockets=sockets,
                copies=len(copies),
            )
        return primary

    def release_table(self, tree: PageTableTree, page: PageTablePage) -> None:
        """Free the whole replica ring of ``page``."""
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        unlink_ring(members)
        for member in members:
            del tree.registry[member.pfn]
            self.pagecache.free(member.frame)
        self.stats.tables_released += len(members)
        session = current_session()
        if session is not None:
            session.instant(
                "teardown-table",
                category="mitosis",
                level=page.level,
                copies=len(members),
            )

    # -- updates ---------------------------------------------------------------

    def set_pte(self, tree: PageTableTree, page: PageTablePage, index: int, value: int) -> None:
        """Eagerly propagate one PTE write to every replica.

        Costs 2N memory references for N replicas: N ring-pointer reads and
        N entry writes (the Fig. 8 optimisation over walking each replica
        tree, which would cost 4N).
        """
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        if page.level > LEAF_LEVEL and pte_present(value) and not pte_huge(value):
            for member, member_value in zip(members, local_entries(tree, members, value)):
                self.apply_entry_write(member, index, member_value)
        else:
            for member in members:
                self.apply_entry_write(member, index, value)
        self.stats.pte_writes += len(members)
        # set_pte is the eager-propagation hot path: counters only, no
        # event objects (see docs/observability.md on event volume).
        session = current_session()
        if session is not None:
            session.count("mitosis.set_pte")
            session.count("mitosis.set_pte_replica_writes", float(len(members)))

    def set_ptes(
        self, tree: PageTableTree, page: PageTablePage, writes: list[tuple[int, int]]
    ) -> None:
        """Eagerly propagate a table's leaf writes, resolving its replica
        ring once (the per-table batching Linux's ``set_pte_at`` loops get
        under one page-table lock). Counted as one :meth:`set_pte` per
        write: leaf values need no per-replica rewiring."""
        if not writes:
            return
        members = ring_members(tree, page)
        for index, value in writes:
            for member in members:
                self.apply_entry_write(member, index, value)
        stores = len(members) * len(writes)
        self.stats.ring_hops += stores
        self.stats.pte_writes += stores
        session = current_session()
        if session is not None:
            session.count("mitosis.set_pte", float(len(writes)))
            session.count("mitosis.set_pte_replica_writes", float(stores))

    def read_pte(self, tree: PageTableTree, page: PageTablePage, index: int) -> int:
        """OS-visible read: first copy's entry with all replicas' A/D bits
        ORed in (§5.4's added PV-Ops get function)."""
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        self.stats.pte_reads += len(members)
        return read_entry_or_ad(tree, members, index)

    def clear_ad_bits(self, tree: PageTableTree, page: PageTablePage, index: int) -> None:
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        self.stats.pte_writes += len(members)
        clear_ad_everywhere(tree, members, index)

    def scan_accessed(
        self, tree: PageTableTree, page: PageTablePage, indices: list[int], clear: bool
    ) -> list[bool]:
        """One ring traversal for a table's reclaim scan; counters as one
        :meth:`read_pte` per index plus one :meth:`clear_ad_bits` per
        cleared entry."""
        members = ring_members(tree, page)
        accessed = []
        cleared = 0
        for index in indices:
            young = bool(read_entry_or_ad(tree, members, index) & PTE_ACCESSED)
            if young and clear:
                clear_ad_everywhere(tree, members, index)
                cleared += 1
            accessed.append(young)
        self.stats.ring_hops += len(members) * (len(indices) + cleared)
        self.stats.pte_reads += len(members) * len(indices)
        self.stats.pte_writes += len(members) * cleared
        return accessed

    # -- scheduling -------------------------------------------------------------

    def root_pfn_for_socket(self, tree: PageTableTree, socket: int) -> int:
        """§5.3: the per-socket CR3 array — local replica root when the
        socket has one, the primary root otherwise."""
        return local_copy(ring_members(tree, tree.root), socket).pfn
