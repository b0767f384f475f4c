"""Seeded PROV001 violation: a raw PTE store through an `.entries` alias.

Binding the array to a local first hides the store from a check that
only looks for targets literally spelled ``<x>.entries[...]``; PROV001
tracks the alias and still flags it. ``apply_entry_write`` is the
blessed writer — stores inside it are the PV-Ops choke point itself and
must not be reported.
"""


def poke_entry(page, index: int, value: int) -> None:
    entries = page.entries
    entries[index] = value  # BUG: raw store, bypasses apply_entry_write


def apply_entry_write(page, index: int, value: int) -> None:
    page.entries[index] = value  # the choke point itself: exempt
