"""Replica-consistency check of a finished cell.

``repro.inject.verify.verify_kernel`` anchors each ring check at the table
``PageTableTree.iter_tables`` yields. That walk follows the root's
entries, and once a multi-node tree is replicated an upper-level entry
points at the child ring's socket-local member, which can be a replica.
The check anchored at a replica then reports the ring's own members as
pointing at "the wrong primary" although the ring is whole. On the
multi-socket ``F+M`` cells every ``verify_kernel`` violation is of that
kind.

So a cell's replicas pass when:

* ``verify_tree`` finds no violation with every ring anchored at its
  primary (the same invariants, each ring checked once), and
* every ``verify_kernel`` violation is that anchoring artifact: a
  ``ring-structure`` violation anchored at a replica, naming that
  replica's own primary. Any other violation, ``mask-coverage`` included,
  fails the cell.

The artifacts are counted and reported, so the defect stays visible until
``iter_tables`` (or the verifier) is fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.inject.verify import verify_kernel, verify_tree
from repro.mitosis.ring import primary_of

_ANCHOR_ARTIFACT = re.compile(
    r"replica pfn \d+ points at primary pfn (\d+), not ring primary (\d+)"
)


class _PrimaryAnchored:
    """A view of a tree whose ``iter_tables`` yields each ring's primary."""

    def __init__(self, tree):
        self._tree = tree

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def iter_tables(self):
        for page in self._tree.iter_tables():
            yield primary_of(page)


@dataclass
class ReplicaCheck:
    rings_checked: int = 0
    #: ``verify_kernel`` violations that are the replica-anchoring artifact.
    anchor_artifacts: int = 0
    #: Every other violation, rendered.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _is_anchor_artifact(violation, tree) -> bool:
    if violation.kind != "ring-structure" or violation.pfn is None:
        return False
    anchor = tree.registry.get(violation.pfn)
    match = _ANCHOR_ARTIFACT.fullmatch(violation.detail)
    return (
        match is not None
        and anchor is not None
        and anchor.is_replica
        and int(match.group(2)) == anchor.pfn
        and int(match.group(1)) == anchor.primary.pfn
    )


def check_replicas(kernel) -> ReplicaCheck:
    """Verify every process' replicas in ``kernel`` (see module doc)."""
    check = ReplicaCheck()
    trees = [process.mm.tree for process in kernel.processes.values()]
    for tree in trees:
        report = verify_tree(_PrimaryAnchored(tree))
        check.rings_checked += report.rings_checked
        check.violations += [v.render() for v in report.violations]
    for violation in verify_kernel(kernel).violations:
        if any(_is_anchor_artifact(violation, tree) for tree in trees):
            check.anchor_artifacts += 1
        else:
            check.violations.append("verify_kernel: " + violation.render())
    return check
