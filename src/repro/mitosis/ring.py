"""The circular replica ring (Fig. 8) and its lifecycle.

Updating all replicas of a page-table page must not require walking every
replica tree (that would cost 4N memory accesses per update on an N-socket
machine). Mitosis instead threads a circular linked list through the frame
metadata (``struct page``): from any replica, the others are reached by
chasing ``replica_next`` pointers — 2N references for an N-way update
(N pointer reads + N writes).

The ring is stored exactly where the paper stores it: in
:attr:`repro.mem.frame.Frame.replica_next`, as a PFN. Resolving a PFN back
to a :class:`~repro.paging.pagetable.PageTablePage` goes through the tree's
registry, the simulator's stand-in for Linux's pfn->struct-page conversion.

Every path that builds, rewires or tears down copies goes through the
toolkit below: :func:`local_copy` is the semantic-replication rule (§2.3),
:func:`alloc_frames` and :func:`new_copy` build copies,
:func:`wire_ring` fills and rewires a ring, :func:`drop_copies` removes
copies from rings, and :func:`swap_ops` changes a tree's backend.
"""

from __future__ import annotations

from typing import Collection, TypeVar

from repro.errors import OutOfMemoryError, ReplicationError
from repro.mem.frame import Frame, FrameKind
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTablePage, PageTableTree, PagingOps
from repro.paging.pte import make_pte, pte_flags, pte_huge, pte_pfn, pte_present

OpsT = TypeVar("OpsT", bound=PagingOps)


def link_ring(pages: list[PageTablePage]) -> None:
    """Join ``pages`` into one circular replica ring.

    A single page forms a self-ring (it is "replicated" 1-way), which keeps
    the traversal code uniform.
    """
    if not pages:
        raise ReplicationError("cannot link an empty replica ring")
    seen_nodes = set()
    for page in pages:
        if page.node in seen_nodes:
            raise ReplicationError(f"two replicas on node {page.node}")
        seen_nodes.add(page.node)
    count = len(pages)
    for i, page in enumerate(pages):
        page.frame.replica_next = pages[(i + 1) % count].pfn


def unlink_ring(pages: list[PageTablePage]) -> None:
    """Dissolve a ring (frames stop being replica members)."""
    for page in pages:
        page.frame.replica_next = None


def ring_members(tree: PageTableTree, page: PageTablePage) -> list[PageTablePage]:
    """All replicas in ``page``'s ring, starting at ``page``.

    Returns ``[page]`` when the page is not replicated. Each element after
    the first costs one metadata pointer chase at runtime; callers that
    account cycles count ``len(result)`` ring hops for a full traversal.
    """
    members = [page]
    next_pfn = page.frame.replica_next
    if next_pfn is None:
        return members
    while next_pfn != page.pfn:
        nxt = tree.registry.get(next_pfn)
        if nxt is None:
            raise ReplicationError(
                f"replica ring of pfn {page.pfn} points at unregistered pfn {next_pfn}"
            )
        members.append(nxt)
        if len(members) > 1024:
            raise ReplicationError(f"replica ring of pfn {page.pfn} does not close")
        next_pfn = nxt.frame.replica_next
    return members


def replica_on_socket(
    tree: PageTableTree, page: PageTablePage, socket: int
) -> PageTablePage | None:
    """The ring member living on ``socket``, or ``None``."""
    for member in ring_members(tree, page):
        if member.node == socket:
            return member
    return None


def primary_of(page: PageTablePage) -> PageTablePage:
    """The primary copy of a (possibly replica) page."""
    return page.primary if page.primary is not None else page


def local_copy(ring: list[PageTablePage], socket: int) -> PageTablePage:
    """The copy of ``ring`` that ``socket`` uses: the member on ``socket``,
    else the ring's primary.

    This is semantic replication (§2.3): an upper-level entry in the copy
    on socket *s* points at this copy of its child, and a context switch
    on *s* loads this copy of the root.
    """
    for member in ring:
        if member.node == socket:
            return member
    for member in ring:
        if not member.is_replica:
            return member
    return ring[0]


def local_entries(
    tree: PageTableTree, members: list[PageTablePage], value: int
) -> list[int]:
    """The upper-level entry ``value`` as each of ``members`` stores it:
    pointing at the :func:`local_copy` of the child table for that
    member's socket. ``value`` may name any copy of the child; a pointer
    to no live table is stored unchanged."""
    child = tree.registry.get(pte_pfn(value))
    if child is None:
        return [value] * len(members)
    child_ring = ring_members(tree, child)
    flags = pte_flags(value)
    return [make_pte(local_copy(child_ring, member.node).pfn, flags) for member in members]


def alloc_frames(pagecache, sockets: list[int]) -> list[Frame]:
    """One page-cache frame on each of ``sockets``, in order — all or
    none: a per-socket OOM hands back the frames already taken before it
    propagates, so a failed ring build leaks nothing."""
    frames: list[Frame] = []
    try:
        for socket in sockets:
            frames.append(pagecache.alloc(socket))
    except OutOfMemoryError:
        for frame in frames:
            pagecache.free(frame)
        raise
    return frames


def new_copy(tree: PageTableTree, primary: PageTablePage, frame: Frame) -> PageTablePage:
    """Register an empty copy of ``primary`` in ``frame`` (a page-cache
    frame on the copy's socket). The caller links it into the ring and
    fills it with :func:`wire_ring`."""
    frame.kind = FrameKind.PAGE_TABLE
    copy = PageTablePage(frame=frame, level=primary.level, primary=primary)
    tree.registry[copy.pfn] = copy
    return copy


def wire_ring(tree: PageTableTree, members: list[PageTablePage], fresh: Collection[int]) -> int:
    """Establish semantic replication across one linked ring.

    ``members[0]`` is the source copy. Every copy gets its upper-level
    pointers aimed at socket-local children; the empty new copies whose
    pfn is in ``fresh`` also receive every leaf entry, which is the same
    in every copy. Child rings must already exist.

    Returns the number of entries written.
    """
    source = members[0]
    writes = 0
    if source.level > LEAF_LEVEL:
        for index, entry in enumerate(source.entries):
            if pte_present(entry) and not pte_huge(entry):
                for member, value in zip(members, local_entries(tree, members, entry)):
                    if member.entries[index] != value:
                        PagingOps.apply_entry_write(member, index, value)
                        writes += 1
    new = [member for member in members if member.pfn in fresh]
    if new:
        leaves = [
            (index, entry)
            for index, entry in enumerate(source.entries)
            if pte_present(entry) and (source.level == LEAF_LEVEL or pte_huge(entry))
        ]
        for member in new:
            for index, entry in leaves:
                PagingOps.apply_entry_write(member, index, entry)
            writes += len(leaves)
    return writes


# protocol: defers[translation-visibility] -- caller owns the TLB shootdown after the table change
def drop_copies(
    tree: PageTableTree,
    pagecache,
    rings: list[list[PageTablePage]],
    doomed: dict[int, PageTablePage],
) -> tuple[int, int]:
    """Remove the copies named in ``doomed`` from ``rings``.

    ``doomed`` maps each doomed copy's pfn to the surviving copy of the
    same ring that stands in for it. Surviving upper-level entries that
    point at a doomed copy are repointed at its stand-in first; then every
    ring is relinked from its survivors (a lone survivor leaves the ring)
    and the doomed copies are unregistered and freed to ``pagecache``.

    Returns ``(entries repointed, copies freed)``.
    """
    repointed = 0
    for members in rings:
        if members[0].level == LEAF_LEVEL:
            continue
        for member in members:
            if member.pfn in doomed:
                continue
            for index, entry in enumerate(member.entries):
                if not pte_present(entry) or pte_huge(entry):
                    continue
                stand_in = doomed.get(pte_pfn(entry))
                if stand_in is not None:
                    PagingOps.apply_entry_write(
                        member, index, make_pte(stand_in.pfn, pte_flags(entry))
                    )
                    repointed += 1
    freed = 0
    for members in rings:
        keep = [member for member in members if member.pfn not in doomed]
        unlink_ring(members)
        if len(keep) > 1:
            link_ring(keep)
        for member in members:
            if member.pfn in doomed:
                del tree.registry[member.pfn]
                pagecache.free(member.frame)
                freed += 1
    return repointed, freed


def swap_ops(tree: PageTableTree, ops: OpsT) -> OpsT:
    """Install ``ops`` as the tree's PV-Ops backend, carrying the
    :class:`~repro.paging.pagetable.OpsStats` counters over."""
    ops.stats = tree.ops.stats
    tree.ops = ops
    return ops
