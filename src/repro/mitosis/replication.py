"""Building and dissolving page-table replicas on a live tree.

Setting a replication mask on a running process must replicate the
*existing* page-table ("Whenever a new mask is set, Mitosis will walk the
existing page-table and create replicas according to the new bitmask",
§6.2). :func:`enable_replication` performs that walk; \
:func:`collapse_replicas` implements the inverse (used when the mask is
cleared, and by page-table migration's eager-free mode, §5.5).
"""

from __future__ import annotations

from repro.errors import OutOfMemoryError, ReplicationError
from repro.kernel.policy import PlacementPolicy
from repro.kernel.pvops import NativePagingOps
from repro.mem.pagecache import PageTablePageCache
from repro.mitosis.backend import MitosisPagingOps
from repro.mitosis.ring import (
    drop_copies,
    link_ring,
    local_copy,
    new_copy,
    primary_of,
    ring_members,
    swap_ops,
    wire_ring,
)
from repro.paging.pagetable import PageTablePage, PageTableTree
from repro.trace.session import current_session


def replica_sockets(tree: PageTableTree) -> frozenset[int]:
    """Sockets currently holding a copy of the tree's root."""
    return frozenset(member.node for member in ring_members(tree, tree.root))


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def enable_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    mask: frozenset[int],
) -> MitosisPagingOps:
    """Replicate an existing tree onto every socket in ``mask``.

    Copies that already exist are kept; missing ones are allocated, wired
    semantically (upper levels point at same-socket children) and
    ring-linked. The tree's ops backend is swapped to
    :class:`MitosisPagingOps` so subsequent updates stay consistent.
    """
    session = current_session()
    if session is None:
        return _enable_replication(tree, pagecache, mask)
    with session.span("mitosis.enable", category="mitosis", mask=sorted(mask)) as span:
        ops = _enable_replication(tree, pagecache, mask)
        span.set(tables_allocated=ops.stats.tables_allocated)
        return ops


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def _enable_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    mask: frozenset[int],
) -> MitosisPagingOps:
    if not mask:
        raise ReplicationError("empty mask; use collapse_replicas to disable")
    primaries = [primary_of(page) for page in tree.iter_tables()]
    stats = tree.ops.stats

    # Pass 0: reserve every frame the replication will need *before*
    # touching the tree, so a strict per-socket allocation failure (§5.1)
    # leaves the address space exactly as it was.
    needed: dict[int, int] = {}
    for primary in primaries:
        have = {member.node for member in ring_members(tree, primary)}
        for socket in mask - have:
            needed[socket] = needed.get(socket, 0) + 1
    reserved: dict[int, list] = {socket: [] for socket in needed}
    try:
        for socket, count in needed.items():
            for _ in range(count):
                reserved[socket].append(pagecache.alloc(socket))
    except OutOfMemoryError:
        for frames in reserved.values():
            while frames:
                pagecache.free(frames.pop())
        raise

    # Pass 1+2 are guarded: any failure mid-walk (an injected fault, a ring
    # inconsistency) unwinds every freshly created copy — no half-linked
    # rings, no leaked frames, no half-swapped ops backend.
    created: dict[int, PageTablePage] = {}  # new replica pfn -> its primary
    rings: list[list[PageTablePage]] = []
    try:
        # Pass 1: allocate missing copies and re-link every ring. The ring
        # is recorded *before* it is mutated so that a failure inside
        # link_ring still leaves its fresh copies visible to the rollback.
        for primary in primaries:
            members = ring_members(tree, primary)
            rings.append(members)
            have = {member.node for member in members}
            for socket in sorted(mask - have):
                replica = new_copy(tree, primary, reserved[socket].pop())
                members.append(replica)
                created[replica.pfn] = primary
                stats.tables_allocated += 1
            link_ring(members)
        assert all(not frames for frames in reserved.values())

        # Pass 2: establish the semantic-replication invariant on *every*
        # copy, now that all child rings exist.
        for members in rings:
            stats.pte_writes += wire_ring(tree, members, created)
    except Exception:
        # Unwind: survivors that pass 2 rewired to a doomed copy point at
        # its primary again, the new copies leave their rings and go back
        # to the page-cache, and so do unconsumed pass-0 reservations.
        _, freed = drop_copies(tree, pagecache, rings, created)
        stats.tables_allocated -= freed
        for frames in reserved.values():
            while frames:
                pagecache.free(frames.pop())
        session = current_session()
        if session is not None:
            # The fixup arc: correlate with the 'fault' instant that
            # triggered it via the timeline ordering.
            session.instant("enable-rollback", category="mitosis", fresh_copies=len(created))
        raise

    return swap_ops(tree, MitosisPagingOps(pagecache, mask))


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def shrink_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    drop_sockets: frozenset[int],
) -> int:
    """Free the replicas on ``drop_sockets`` without disturbing the rest.

    The §5.5 lazy-deallocation path: replicas kept "in case the process
    gets migrated back" are released when memory becomes scarce. Primary
    copies are never dropped (use :func:`collapse_replicas` to re-root).

    Returns the number of table pages freed. Sockets that lose their copy
    simply fall back to walking the primary, like any unmasked socket.
    """
    session = current_session()
    if session is None:
        return _shrink_replication(tree, pagecache, drop_sockets)
    with session.span(
        "mitosis.shrink", category="mitosis", drop=sorted(drop_sockets)
    ) as span:
        freed = _shrink_replication(tree, pagecache, drop_sockets)
        span.set(freed=freed)
        return freed


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def _shrink_replication(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    drop_sockets: frozenset[int],
) -> int:
    # Decide what goes. Primaries always stay, and every dropped replica
    # is stood in for by its ring's primary (a remote-but-valid fallback,
    # exactly what an unmasked socket walks anyway).
    rings = []
    dropping: dict[int, PageTablePage] = {}
    for page in tree.iter_tables():
        members = ring_members(tree, page)
        rings.append(members)
        for member in members:
            if member.is_replica and member.node in drop_sockets:
                dropping[member.pfn] = primary_of(page)
    repointed, freed = drop_copies(tree, pagecache, rings, dropping)
    tree.ops.stats.pte_writes += repointed
    tree.ops.stats.tables_released += freed
    if isinstance(tree.ops, MitosisPagingOps):
        # New tables keep covering whatever the mask still asks for.
        new_mask = tree.ops.mask - drop_sockets
        tree.ops.mask = new_mask or frozenset({tree.root.node})
        # Downgrade to the native backend only when *every* ring is a
        # singleton (rings are heterogeneous when primaries sit outside
        # the mask, so the root ring alone proves nothing).
        if all(page.frame.replica_next is None for page in tree.registry.values()):
            swap_ops(tree, NativePagingOps(pagecache))
    return freed


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def collapse_replicas(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    keep_socket: int,
    pt_policy: PlacementPolicy | None = None,
) -> NativePagingOps:
    """Dissolve replication, keeping only the copy on ``keep_socket``.

    The kept copy becomes the (single) primary — this is how page-table
    *migration* frees the origin socket's tables eagerly (§5.5). The ops
    backend reverts to :class:`~repro.kernel.pvops.NativePagingOps`.

    Rings need not cover ``keep_socket`` uniformly (masks that exclude a
    table's primary socket leave mixed coverage); missing copies are built
    first, so the collapse is all-or-nothing.

    Raises:
        OutOfMemoryError: ``keep_socket`` cannot hold the missing copies;
            the tree is left exactly as it was.
    """
    session = current_session()
    if session is None:
        return _collapse_replicas(tree, pagecache, keep_socket, pt_policy)
    with session.span(
        "mitosis.collapse", category="mitosis", keep_socket=keep_socket
    ):
        return _collapse_replicas(tree, pagecache, keep_socket, pt_policy)


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def _collapse_replicas(
    tree: PageTableTree,
    pagecache: PageTablePageCache,
    keep_socket: int,
    pt_policy: PlacementPolicy | None = None,
) -> NativePagingOps:
    # Gap-fill: guarantee every ring has a copy on the kept socket before
    # any mutation (enable_replication is idempotent and OOM-atomic).
    enable_replication(tree, pagecache, frozenset({keep_socket}))
    new_root = local_copy(ring_members(tree, tree.root), keep_socket)
    rings = [ring_members(tree, page) for page in tree.iter_tables()]
    doomed: dict[int, PageTablePage] = {}
    for members in rings:
        keep = local_copy(members, keep_socket)
        assert keep.node == keep_socket, "gap-fill guaranteed a copy on the kept socket"
        keep.primary = None
        doomed.update((member.pfn, keep) for member in members if member is not keep)
    _, freed = drop_copies(tree, pagecache, rings, doomed)
    tree.ops.stats.tables_released += freed
    tree.root = new_root
    return swap_ops(tree, NativePagingOps(pagecache, pt_policy=pt_policy))
