"""Exception hierarchy for the Mitosis reproduction.

All simulator errors derive from :class:`ReproError` so callers can catch
one base class. The concrete classes mirror the failure modes the paper's
mechanism has to handle: strict allocation failure (§5.1), faults on
unmapped addresses, and misuse of the replication API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all simulator errors."""


class OutOfMemoryError(ReproError):
    """A NUMA node (or the whole machine) cannot satisfy an allocation.

    Strict per-socket allocation for page-table replicas can fail even when
    other sockets have free memory; the paper sidesteps this with per-socket
    page-caches (§5.1), which is why this error carries the node id.
    """

    def __init__(self, node: int | None, nbytes: int, message: str | None = None):
        self.node = node
        self.nbytes = nbytes
        where = "machine" if node is None else f"node {node}"
        super().__init__(message or f"out of memory on {where} (requested {nbytes} bytes)")


class SegmentationFault(ReproError):
    """Access to a virtual address with no VMA backing it."""

    def __init__(self, vaddr: int, message: str | None = None):
        self.vaddr = vaddr
        super().__init__(message or f"segmentation fault at 0x{vaddr:x}")


class ProtectionFault(ReproError):
    """Access violating the permissions of an established mapping."""

    def __init__(self, vaddr: int, access: str, message: str | None = None):
        self.vaddr = vaddr
        self.access = access
        super().__init__(message or f"protection fault at 0x{vaddr:x} ({access})")


class InvalidMappingError(ReproError):
    """A map/unmap/protect request that is malformed (overlap, misalignment...)."""


class ReplicationError(ReproError):
    """Misuse of the replication machinery (bad socket mask, double enable...)."""


class TopologyError(ReproError):
    """Reference to a socket/core/node that does not exist on the machine."""


class PTEWriteBypassError(ReproError):
    """A page-table entry store bypassed the PV-Ops choke point.

    Raised by :class:`repro.lint.sanitizer.PTESanitizer` (debug mode) when
    a store into ``PageTablePage.entries`` does not originate inside
    ``PagingOps.apply_entry_write`` or a hardware walker — the runtime
    twin of the ``PROV001`` static rule.
    """

    def __init__(self, index: int, value: int, writer: str, message: str | None = None):
        self.index = index
        self.value = value
        self.writer = writer
        super().__init__(
            message
            or f"PTE store entries[{index}] = 0x{value:x} from {writer} "
            "bypasses PagingOps.apply_entry_write (replication coherence)"
        )
