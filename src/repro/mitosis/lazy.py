"""Lazy update propagation — the §7.2 library-OS design, implemented.

The paper sketches a Barrelfish-style alternative to eager propagation:
"Updates to page-tables might need to be converted to explicit update
messages to other sockets, which avoid the need for global locks and
propagates updates lazily. On a page-fault, updates can be processed and
applied accordingly. We leave such an implementation to future work, but
believe it to be straightforward."

:class:`LazyMitosisPagingOps` does exactly that:

* a PTE write is applied to the **home replica** (the writer's socket)
  immediately and appended as an *update message* to every other replica's
  queue — no cross-socket stores on the write path;
* a replica drains its queue when one of its sockets faults on a stale
  entry (:meth:`handle_stale_fault`) or at an explicit synchronisation
  point (:meth:`sync_socket`), batching the deferred writes;
* correctness rule, same as hardware TLBs: *missing* state is recoverable
  (fault -> drain -> retry), so unmaps/permission-drops must still be made
  visible eagerly before the shootdown completes — :meth:`set_pte`
  propagates "destructive" updates eagerly and only defers additive ones.

The payoff measured by the ablation bench: the write path touches one
socket instead of N, at the cost of one extra fault per stale entry
actually used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.ring import local_entries, ring_members, swap_ops
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.paging.pte import PTE_WRITABLE, pte_huge, pte_present


@dataclass(frozen=True)
class UpdateMessage:
    """One deferred PTE write destined for one replica."""

    page_pfn: int  # the replica page to update
    index: int
    value: int  # pre-rewired for the target socket


@dataclass
class LazyStats:
    deferred: int = 0
    eager: int = 0
    drained: int = 0
    stale_faults: int = 0


class LazyMitosisPagingOps(MitosisPagingOps):
    """Replication with message-based, fault-driven propagation."""

    def __init__(self, pagecache: PageTablePageCache, mask: frozenset[int]):
        super().__init__(pagecache, mask)
        #: socket -> queue of pending updates for that socket's replicas.
        self.queues: dict[int, deque[UpdateMessage]] = {s: deque() for s in sorted(mask)}
        self.lazy_stats = LazyStats()
        #: The socket whose replica is updated synchronously. The kernel
        #: sets this to the faulting/mutating thread's socket.
        self.home_socket: int = min(mask)

    # -- write path --------------------------------------------------------------

    # Each write decides for itself whether to propagate eagerly.
    set_ptes = PagingOps.set_ptes

    def set_pte(self, tree: PageTableTree, page: PageTablePage, index: int, value: int) -> None:
        members = ring_members(tree, page)
        self.stats.ring_hops += len(members)
        old = members[0].entries[index]
        if self._is_destructive(old, value):
            # Unmap / permission drop: all replicas must see it before the
            # TLB shootdown finishes — propagate eagerly, like the base.
            # Any *queued* update for this entry would resurrect the stale
            # state on a later drain, so purge it first.
            stale = {(member.pfn, index) for member in members}
            for queue in self.queues.values():
                if queue:
                    kept = [m for m in queue if (m.page_pfn, m.index) not in stale]
                    if len(kept) != len(queue):
                        queue.clear()
                        queue.extend(kept)
            self.lazy_stats.eager += 1
            super().set_pte(tree, page, index, value)
            return
        if page.level > LEAF_LEVEL and pte_present(value) and not pte_huge(value):
            values = local_entries(tree, members, value)
        else:
            values = [value] * len(members)
        home = next((m for m in members if m.node == self.home_socket), members[0])
        for member, member_value in zip(members, values):
            if member is home:
                self.apply_entry_write(member, index, member_value)
                self.stats.pte_writes += 1
            else:
                self.queues[member.node].append(
                    UpdateMessage(page_pfn=member.pfn, index=index, value=member_value)
                )
                self.lazy_stats.deferred += 1

    @staticmethod
    def _is_destructive(old: int, new: int) -> bool:
        """True when deferring ``new`` could let another socket use rights
        it should have lost (unmap or write-permission revocation)."""
        if pte_present(old) and not pte_present(new):
            return True
        return bool(old & PTE_WRITABLE) and pte_present(new) and not new & PTE_WRITABLE

    # -- drain paths --------------------------------------------------------------

    def sync_socket(self, tree: PageTableTree, socket: int) -> int:
        """Apply all pending updates for ``socket``; returns how many."""
        queue = self.queues.get(socket)
        if not queue:
            return 0
        drained = 0
        while queue:
            message = queue.popleft()
            target = tree.registry.get(message.page_pfn)
            if target is not None:  # page may have been freed meanwhile
                self.apply_entry_write(target, message.index, message.value)
                self.stats.pte_writes += 1
            drained += 1
        self.lazy_stats.drained += drained
        return drained

    def handle_stale_fault(self, tree: PageTableTree, socket: int) -> int:
        """A hardware walk on ``socket`` faulted: reconcile, then the
        caller retries the walk (the §7.2 page-fault-driven application of
        queued messages). Returns messages applied."""
        self.lazy_stats.stale_faults += 1
        return self.sync_socket(tree, socket)

    def pending(self, socket: int) -> int:
        return len(self.queues.get(socket, ()))


def make_lazy(tree: PageTableTree, pagecache: PageTablePageCache) -> LazyMitosisPagingOps:
    """Swap an (eagerly) replicated tree's backend to lazy propagation."""
    current = tree.ops
    if not isinstance(current, MitosisPagingOps):
        raise TypeError("lazy propagation requires a replicated tree")
    return swap_ops(tree, LazyMitosisPagingOps(pagecache, current.mask))
