"""Predicates the tests check product output with, and nothing in the
product calls: whether a megaflow match is exact, whether two matches
overlap, whether a header's embedded checksum verifies."""

from __future__ import annotations

from repro.flow.match import FlowMatch
from repro.net.checksum import internet_checksum


def is_exact(match: FlowMatch) -> bool:
    """True when every field of ``match`` is fully specified."""
    return all(
        mask == spec.max_value
        for mask, spec in zip(match.masks, match.space.specs)
    )


def overlaps(a: FlowMatch, b: FlowMatch) -> bool:
    """True when some packet matches both (the regions intersect)."""
    for av, am, bv, bm in zip(a.values, a.masks, b.values, b.masks):
        common = am & bm
        if av & common != bv & common:
            return False
    return True


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its embedded checksum field) sums to
    the all-ones pattern, i.e. the checksum is valid."""
    return internet_checksum(data) == 0
