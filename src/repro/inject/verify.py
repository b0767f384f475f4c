"""Replica-consistency verifier: the oracle behind every chaos run.

Fault injection is only useful when something checks the wreckage. This
module walks every replica ring of a tree and asserts the invariants the
Mitosis design promises (§2.3, §5.2, §5.4):

* **ring structure** — rings close, hold at most one copy per socket,
  exactly one primary, and all members sit on the same level;
* **leaf agreement** — leaf PTEs (4 KiB and 2 MiB) are bit-identical in
  every replica *except* the hardware accessed/dirty bits;
* **A/D OR-semantics** — the OS-visible read of an entry equals the
  primary's entry with every replica's A/D bits ORed in, and no replica
  carries A/D bits the OS read would miss;
* **socket-local child wiring** — an upper-level entry in the copy on
  socket *s* points at the child ring's member on socket *s* whenever one
  exists (semantic replication), and every member's target belongs to the
  same child ring.

The verifier is read-only and side-effect-free: ops stats perturbed by the
OS-visible reads are restored before returning, so a chaos scenario can
verify mid-run without skewing its own counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mitosis.ring import primary_of, ring_members
from repro.paging.levels import LEAF_LEVEL
from repro.paging.pagetable import PageTableTree
from repro.paging.pte import PTE_AD_BITS, pte_huge, pte_pfn, pte_present


@dataclass
class Violation:
    """One broken invariant, anchored to a ring (and maybe an entry)."""

    kind: str
    detail: str
    pfn: int | None = None
    index: int | None = None

    def render(self) -> str:
        where = "" if self.pfn is None else f" [pfn {self.pfn}" + (
            f", entry {self.index}]" if self.index is not None else "]"
        )
        return f"{self.kind}{where}: {self.detail}"

    def to_dict(self) -> dict:
        """JSON-safe form (``chaos --json`` and the fleet report)."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "pfn": self.pfn,
            "index": self.index,
        }


@dataclass
class VerifyReport:
    """Outcome of one verification pass."""

    rings_checked: int = 0
    entries_checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-safe form (``chaos --json`` and the fleet report)."""
        return {
            "ok": self.ok,
            "rings_checked": self.rings_checked,
            "entries_checked": self.entries_checked,
            "violations": [v.to_dict() for v in self.violations],
        }

    def merge(self, other: "VerifyReport") -> None:
        self.rings_checked += other.rings_checked
        self.entries_checked += other.entries_checked
        self.violations.extend(other.violations)

    def render(self) -> str:
        if self.ok:
            return (
                f"OK: {self.rings_checked} ring(s), "
                f"{self.entries_checked} entr(ies) consistent"
            )
        lines = [
            f"FAIL: {len(self.violations)} violation(s) in "
            f"{self.rings_checked} ring(s):"
        ]
        lines.extend("  " + violation.render() for violation in self.violations)
        return "\n".join(lines)


def verify_tree(tree: PageTableTree) -> VerifyReport:
    """Check every replica ring of ``tree``; returns a report."""
    report = VerifyReport()
    snapshot = tree.ops.stats.snapshot()
    try:
        for primary in _ring_primaries(tree):
            _verify_ring(tree, primary, report)
    finally:
        # Side-effect freedom: undo the counter noise of our reads.
        stats = tree.ops.stats
        stats.pte_reads = snapshot.pte_reads
        stats.ring_hops = snapshot.ring_hops
    return report


def verify_kernel(kernel, check_masks: bool = True) -> VerifyReport:
    """Verify every process' tree in ``kernel``.

    With ``check_masks`` (default), additionally asserts that each
    replicated process' published :attr:`replication_mask` is really
    covered — every ring has a copy on every masked socket. A process
    carrying a :class:`~repro.mitosis.degrade.DegradedState` publishes its
    *achieved* mask, so a degraded-but-honest process passes.
    """
    report = VerifyReport()
    for process in kernel.processes.values():
        tree = process.mm.tree
        report.merge(verify_tree(tree))
        mask = process.mm.replication_mask
        if not check_masks or not mask:
            continue
        for primary in _ring_primaries(tree):
            have = {member.node for member in ring_members(tree, primary)}
            missing = mask - have
            if missing:
                report.violations.append(
                    Violation(
                        kind="mask-coverage",
                        detail=f"pid {process.pid} publishes mask "
                        f"{sorted(mask)} but ring lacks copies on "
                        f"{sorted(missing)}",
                        pfn=primary.pfn,
                    )
                )
    return report


def _ring_primaries(tree: PageTableTree):
    """Each ring's primary, once. ``iter_tables`` follows the entries the
    walker follows, which in a replicated tree lead to socket-local
    members, so a ring is reached through whichever copy its parent points
    at — often a replica."""
    seen: set[int] = set()
    for page in tree.iter_tables():
        primary = primary_of(page)
        if primary.pfn not in seen:
            seen.add(primary.pfn)
            yield primary


def _verify_ring(tree: PageTableTree, primary, report: VerifyReport) -> None:
    bad = lambda kind, detail, index=None: report.violations.append(  # noqa: E731
        Violation(kind=kind, detail=detail, pfn=primary.pfn, index=index)
    )
    try:
        members = ring_members(tree, primary)
    except Exception as exc:  # broken/unclosed ring
        report.rings_checked += 1
        bad("ring-structure", str(exc))
        return
    report.rings_checked += 1

    # -- structure ---------------------------------------------------------
    nodes = [member.node for member in members]
    if len(set(nodes)) != len(nodes):
        bad("ring-structure", f"duplicate sockets in ring: {sorted(nodes)}")
    primaries = [member for member in members if not member.is_replica]
    if len(primaries) != 1:
        bad("ring-structure", f"{len(primaries)} primaries in ring (want 1)")
    for member in members:
        if member.is_replica and member.primary is not primary:
            bad(
                "ring-structure",
                f"replica pfn {member.pfn} points at primary "
                f"pfn {member.primary.pfn}, not ring primary {primary.pfn}",
            )
        if member.level != primary.level:
            bad(
                "ring-structure",
                f"member pfn {member.pfn} is L{member.level}, "
                f"ring primary is L{primary.level}",
            )
        if tree.registry.get(member.pfn) is not member:
            bad(
                "ring-structure",
                f"member pfn {member.pfn} not (correctly) registered",
            )

    # -- entries -----------------------------------------------------------
    non_leaf = primary.level > LEAF_LEVEL
    for index, entry in enumerate(primary.entries):
        present = pte_present(entry)
        for member in members[1:]:
            if pte_present(member.entries[index]) != present:
                bad(
                    "present-mismatch",
                    f"entry present in primary={present}, differs on "
                    f"socket {member.node}",
                    index,
                )
        if not present:
            continue
        report.entries_checked += 1
        if non_leaf and not pte_huge(entry):
            _verify_child_wiring(tree, members, index, bad)
        else:
            _verify_leaf_agreement(tree, members, index, bad)


def _verify_leaf_agreement(tree, members, index, bad) -> None:
    """Leaf PTEs agree modulo A/D; the OS read ORs all A/D bits in."""
    reference = members[0].entries[index] & ~PTE_AD_BITS
    union_ad = 0
    for member in members:
        value = member.entries[index]
        union_ad |= value & PTE_AD_BITS
        if value & ~PTE_AD_BITS != reference:
            bad(
                "leaf-mismatch",
                f"socket {member.node} holds 0x{value:x}, primary holds "
                f"0x{members[0].entries[index]:x} (beyond A/D bits)",
                index,
            )
    seen = tree.ops.read_pte(tree, members[0], index)
    expected = reference | (members[0].entries[index] & PTE_AD_BITS) | union_ad
    if seen != expected:
        bad(
            "ad-or-semantics",
            f"ops.read_pte returned 0x{seen:x}, expected 0x{expected:x} "
            f"(primary entry with all replicas' A/D bits ORed in)",
            index,
        )


def _verify_child_wiring(tree, members, index, bad) -> None:
    """Upper-level entries point into one child ring, socket-locally."""
    child_pfn = pte_pfn(members[0].entries[index])
    child = tree.registry.get(child_pfn)
    if child is None:
        bad("child-wiring", f"target pfn {child_pfn} is not a live table", index)
        return
    try:
        child_ring = ring_members(tree, child)
    except Exception as exc:
        bad("child-wiring", f"child ring broken: {exc}", index)
        return
    by_node = {member.node: member for member in child_ring}
    ring_pfns = {member.pfn for member in child_ring}
    for member in members:
        target_pfn = pte_pfn(member.entries[index])
        if target_pfn not in ring_pfns:
            bad(
                "child-wiring",
                f"socket {member.node} targets pfn {target_pfn}, outside "
                f"the child ring {sorted(ring_pfns)}",
                index,
            )
            continue
        local = by_node.get(member.node)
        if local is not None and target_pfn != local.pfn:
            bad(
                "child-wiring",
                f"socket {member.node} targets remote child pfn "
                f"{target_pfn} although a socket-local copy "
                f"(pfn {local.pfn}) exists",
                index,
            )
