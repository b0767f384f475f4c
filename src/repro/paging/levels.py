"""Radix-tree geometry for 4-level (and 5-level) x86-64 paging.

Levels are numbered the way the paper numbers them: L4 is the root of
4-level paging (L5 for Intel's 5-level extension), L1 is the leaf level
whose entries map 4 KiB pages. A 2 MiB huge page is mapped by an L2 entry
with the PS bit set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import BITS_PER_LEVEL, PAGE_SHIFT, PTES_PER_TABLE

#: Leaf level for 4 KiB mappings.
LEAF_LEVEL = 1
#: Level whose entries can map 2 MiB pages (PS bit).
HUGE_LEAF_LEVEL = 2
#: Root level of the deepest supported tree (Intel's 5-level paging).
MAX_ROOT_LEVEL = 5


def level_shift(level: int) -> int:
    """Bit position where ``level``'s index starts within a VA."""
    return PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)


def level_index(va: int, level: int) -> int:
    """Index into the ``level`` table selected by virtual address ``va``."""
    return (va >> level_shift(level)) & (PTES_PER_TABLE - 1)


def level_span(level: int) -> int:
    """Bytes of VA space one entry at ``level`` covers (4 KiB at L1,
    2 MiB at L2, 1 GiB at L3, 512 GiB at L4)."""
    return 1 << level_shift(level)


def table_span(level: int) -> int:
    """Bytes of VA space one whole table at ``level`` covers."""
    return level_span(level) * PTES_PER_TABLE


@dataclass(frozen=True)
class PagingGeometry:
    """4- or 5-level paging configuration.

    Attributes:
        levels: Number of radix levels (4 is today's x86-64; 5 is Intel's
            57-bit extension the paper cites as making walks even longer).
    """

    levels: int = 4

    def __post_init__(self) -> None:
        if self.levels not in (4, MAX_ROOT_LEVEL):
            raise ValueError("only 4- and 5-level paging are supported")

    @property
    def root_level(self) -> int:
        return self.levels

    @property
    def va_bits(self) -> int:
        """Canonical virtual address width (48 for 4-level, 57 for 5)."""
        return PAGE_SHIFT + BITS_PER_LEVEL * self.levels

    @property
    def va_limit(self) -> int:
        """One past the highest representable VA (lower canonical half)."""
        return 1 << self.va_bits

    def check_va(self, va: int) -> int:
        """Validate that ``va`` is a representable user address."""
        if not 0 <= va < self.va_limit:
            raise ValueError(f"va 0x{va:x} outside {self.va_bits}-bit space")
        return va

    def indices(self, va: int) -> tuple[int, ...]:
        """Per-level table indices, root first."""
        return tuple(level_index(va, lvl) for lvl in range(self.root_level, 0, -1))


#: Shared default geometry.
GEOMETRY_4LEVEL = PagingGeometry(levels=4)
GEOMETRY_5LEVEL = PagingGeometry(levels=5)
