"""Graceful degradation of the replication path.

The paper sidesteps strict-allocation failure with per-socket page-caches
(§5.1) and makes replicas the first memory returned under pressure (§5.5)
— but a production system still has to answer *what happens when the
page-cache runs dry too*. This module is that answer: instead of letting
a per-socket :class:`~repro.errors.OutOfMemoryError` abort the run,

1. :func:`reclaim_replicas` is invoked on the starving node (other
   processes' insurance replicas are exactly the memory §5.5 says to give
   back) and the replication is retried;
2. if the node is still dry, replication *degrades*: the mask shrinks to
   the socket subset that can be satisfied, and a :class:`DegradedState`
   is recorded on the mm so the :class:`~repro.mitosis.daemon.MitosisDaemon`
   can complete the mask later — with exponential backoff — once memory
   frees up.

A degraded process is never broken: sockets without a replica simply walk
a remote copy, like any unmasked socket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import OutOfMemoryError
from repro.mitosis.replication import enable_replication
from repro.mitosis.ring import ring_members
from repro.trace.session import current_session

T = TypeVar("T")


@dataclass
class DegradedState:
    """Recorded on an mm whose replication mask could not be fully built."""

    #: What the caller asked for.
    requested_mask: frozenset[int]
    #: What was actually built.
    achieved_mask: frozenset[int]
    #: Sockets still without replicas (``requested - achieved``).
    missing: frozenset[int]
    #: Human-readable cause (the OOM messages that forced the degradation).
    reason: str
    #: Completion attempts made since the degradation.
    retries: int = 0
    #: Epochs to wait before the next completion attempt (doubles, capped).
    backoff: int = 1
    #: First epoch at which the daemon may retry.
    next_retry_epoch: int = 0

    def describe(self) -> str:
        return (
            f"replicated on {sorted(self.achieved_mask)} of "
            f"{sorted(self.requested_mask)} (missing {sorted(self.missing)})"
        )


def tables_missing_on(tree, node: int) -> int:
    """How many table rings of ``tree`` lack a copy on ``node`` — the frame
    count a completion attempt needs from that node."""
    missing = 0
    for page in tree.iter_tables():
        if all(member.node != node for member in ring_members(tree, page)):
            missing += 1
    return missing


def reclaim_and_retry(kernel, node: int, target_free_frames: int, attempt: Callable[[], T]) -> T:
    """Reclaim replicas on the starving ``node``, then run ``attempt`` once
    more — the first line of defence after a per-socket OOM: other
    processes' replicas there are insurance memory (§5.5).

    Counts the retry, and the rescue when ``attempt`` succeeds; the
    retry's :class:`~repro.errors.OutOfMemoryError` propagates.
    """
    from repro.mitosis.reclaim import reclaim_replicas

    kernel.resilience.retries += 1
    reclaim_replicas(kernel, node, target_free_frames=target_free_frames, aggressive=True)
    result = attempt()
    kernel.resilience.reclaim_rescues += 1
    return result


def enable_replication_resilient(kernel, process, mask) -> frozenset[int]:
    """Replicate ``process`` onto ``mask``, degrading instead of dying.

    Per-socket OOM triggers reclaim-and-retry; sockets that still cannot
    be satisfied are dropped from the attempt and recorded in a
    :class:`DegradedState` on the mm. Returns the achieved mask (empty if
    no socket could be satisfied — the tree is then left untouched).

    ``kernel.resilience`` counters track retries, rescues, degradations
    and recoveries.
    """
    mm = process.mm
    requested = frozenset(mask)
    prior: DegradedState | None = getattr(mm, "degraded", None)
    stats = kernel.resilience
    attempt = set(requested)
    reasons: list[str] = []
    while attempt:
        try:
            enable_replication(mm.tree, kernel.pagecache, frozenset(attempt))
            break
        except OutOfMemoryError as exc:
            if exc.node is None or exc.node not in attempt:
                raise
            node = exc.node
            try:
                reclaim_and_retry(
                    kernel,
                    node,
                    tables_missing_on(mm.tree, node),
                    lambda: enable_replication(mm.tree, kernel.pagecache, frozenset(attempt)),
                )
                break
            except OutOfMemoryError as retry_exc:
                drop = retry_exc.node if retry_exc.node in attempt else node
                attempt.discard(drop)
                reasons.append(f"socket {drop}: {retry_exc}")

    achieved = frozenset(attempt)
    if achieved:
        mm.replication_mask = achieved
    missing = requested - achieved
    if missing:
        is_new = prior is None or prior.requested_mask != requested
        if is_new:
            stats.degradations += 1
        state = DegradedState(
            requested_mask=requested,
            achieved_mask=achieved,
            missing=missing,
            reason="; ".join(reasons),
        )
        if not is_new:
            # An ongoing degradation keeps its retry/backoff bookkeeping.
            state.retries = prior.retries
            state.backoff = prior.backoff
            state.next_retry_epoch = prior.next_retry_epoch
        mm.degraded = state
        session = current_session()
        if session is not None:
            session.instant(
                "degraded",
                category="mitosis",
                requested=sorted(requested),
                achieved=sorted(achieved),
                missing=sorted(missing),
                new=is_new,
            )
    else:
        recovered = prior is not None and prior.requested_mask == requested
        if recovered:
            stats.recoveries += 1
            session = current_session()
            if session is not None:
                session.instant(
                    "recovered",
                    category="mitosis",
                    mask=sorted(achieved),
                    after_retries=prior.retries,
                )
        mm.degraded = None
    kernel.shootdown.flush_all(kernel.cpu_contexts)
    return achieved
