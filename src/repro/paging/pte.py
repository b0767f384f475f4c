"""x86-64 page-table entry encoding.

PTEs are plain 64-bit integers with the architectural bit layout, so the
accessed/dirty handling of §5.4 (hardware sets bits in one replica, the OS
ORs across replicas) operates on real bits rather than on an abstraction.

Bit layout used (subset of x86-64):

====  ==========================
bit   meaning
====  ==========================
0     present
1     writable
2     user
5     accessed (set by hardware)
6     dirty (set by hardware on write)
7     page size (this entry maps a 2 MiB page)
12..  physical frame number
63    no-execute
====  ==========================
"""

from __future__ import annotations

PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
PTE_HUGE = 1 << 7
PTE_NX = 1 << 63

#: Bits the hardware page-walker writes without OS involvement (§5.4).
PTE_AD_BITS = PTE_ACCESSED | PTE_DIRTY

#: Mask covering the PFN field (bits 12..51).
PFN_MASK = ((1 << 52) - 1) & ~((1 << 12) - 1)
#: All non-PFN bits (flags).
FLAGS_MASK = ~PFN_MASK & ((1 << 64) - 1)

#: Default flags for an upper-level entry pointing at a lower table.
TABLE_FLAGS = PTE_PRESENT | PTE_WRITABLE | PTE_USER


def make_pte(pfn: int, flags: int) -> int:
    """Encode a PTE from a frame number and flag bits."""
    if pfn < 0 or pfn >= (1 << 40):
        raise ValueError(f"pfn {pfn} out of range")
    if flags & PFN_MASK:
        raise ValueError("flags overlap the PFN field")
    return (pfn << 12) | flags


def pte_pfn(pte: int) -> int:
    """Frame number a PTE points at."""
    return (pte & PFN_MASK) >> 12


def pte_flags(pte: int) -> int:
    """Flag bits of a PTE."""
    return pte & FLAGS_MASK


def pte_present(pte: int) -> bool:
    return bool(pte & PTE_PRESENT)


def pte_writable(pte: int) -> bool:
    return bool(pte & PTE_WRITABLE)


def pte_huge(pte: int) -> bool:
    """True when the entry maps a 2 MiB page directly."""
    return bool(pte & PTE_HUGE)


def pte_accessed(pte: int) -> bool:
    return bool(pte & PTE_ACCESSED)


def pte_dirty(pte: int) -> bool:
    return bool(pte & PTE_DIRTY)


def pte_set_flags(pte: int, flags: int) -> int:
    """Return ``pte`` with ``flags`` additionally set."""
    return pte | flags


def pte_clear_flags(pte: int, flags: int) -> int:
    """Return ``pte`` with ``flags`` cleared."""
    return pte & ~flags


def pte_replace_flags(pte: int, flags: int) -> int:
    """Return a PTE with the same PFN but exactly ``flags``."""
    return make_pte(pte_pfn(pte), flags)
