"""Repeated float addition, folded without changing a bit of the sum.

The simulator charges cycles by ``total += cost`` once per packet, and
its series are compared byte for byte between commits — so a run of
``count`` packets at one cost may only be charged in one step when that
step returns *exactly* what the adds would have.  ``count * cost`` is
not ``cost + cost + …`` in general; it is whenever no add rounds.
"""

from __future__ import annotations

#: below this magnitude every multiple of 0.5 is a float, so a sum of
#: half-integers that stays under it never rounds
_EXACT_BELOW = float(1 << 52)


def add_repeated(total: float, cost: float, count: int) -> float:
    """What ``count`` sequential ``total += cost`` leave in ``total``.

    When ``total`` and ``cost`` are both multiples of 0.5 and the sum
    stays under 2**52 in magnitude, every partial sum is representable,
    no add rounds, and the closed form is the loop's result (the
    default cost-model constants are integers and the expected scan
    depth is ``(n + 1) / 2``, so model-replay charges take this
    branch).  Anything else — a ranked ``expected_scan_depth`` cost —
    runs the literal loop."""
    if count <= 0:
        return total
    if type(total) is int and type(cost) is int:
        return total + count * cost  # ints never round
    if (
        (2.0 * total).is_integer()
        and (2.0 * cost).is_integer()
        and abs(total) + count * abs(cost) < _EXACT_BELOW
    ):
        return total + count * cost
    for _ in range(count):
        total += cost
    return total
