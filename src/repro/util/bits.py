"""Bit-level helpers for fixed-width header fields.

All functions treat integers as *fixed-width bit vectors* whose most
significant bit is "bit 0", matching the way the paper (Fig. 2) and Open
vSwitch's prefix tries number header bits: the MSB of an IP address is
the first bit a longest-prefix-match examines.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def ones(width: int) -> int:
    """Return a bit vector of ``width`` ones (an all-exact mask).

    >>> bin(ones(4))
    '0b1111'
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def mask_of_prefix(prefix_len: int, width: int) -> int:
    """Return a mask with the first ``prefix_len`` MSBs set.

    This is the CIDR-style prefix mask used for megaflow entries:
    ``mask_of_prefix(3, 8) == 0b11100000``.
    """
    if not 0 <= prefix_len <= width:
        raise ValueError(
            f"prefix_len must be in [0, {width}], got {prefix_len}"
        )
    return ones(prefix_len) << (width - prefix_len)


def bit_get(value: int, index: int, width: int) -> int:
    """Return bit ``index`` of ``value``, counting from the MSB (bit 0)."""
    _check_index(index, width)
    return (value >> (width - 1 - index)) & 1


def bit_set(value: int, index: int, width: int) -> int:
    """Return ``value`` with MSB-indexed bit ``index`` set to 1."""
    _check_index(index, width)
    return value | (1 << (width - 1 - index))


def bit_clear(value: int, index: int, width: int) -> int:
    """Return ``value`` with MSB-indexed bit ``index`` cleared to 0."""
    _check_index(index, width)
    return value & ~(1 << (width - 1 - index))


def bit_flip(value: int, index: int, width: int) -> int:
    """Return ``value`` with MSB-indexed bit ``index`` inverted."""
    _check_index(index, width)
    return value ^ (1 << (width - 1 - index))


def first_diff_bit(a: int, b: int, width: int) -> int | None:
    """Return the MSB-first index of the first bit where ``a`` and ``b``
    differ, or ``None`` when they are equal over ``width`` bits.

    This is the primitive behind megaflow un-wildcarding: the slow path
    only needs to examine a field up to (and including) the first
    diverging bit to prove a packet does *not* match a rule.
    """
    diff = (a ^ b) & ones(width)
    if diff == 0:
        return None
    return width - diff.bit_length()


def popcount(value: int) -> int:
    """Return the number of set bits (used for mask specificity)."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative values")
    return value.bit_count()


def to_binary(value: int, width: int) -> str:
    """Render ``value`` as a ``width``-bit binary string (Fig. 2 style).

    >>> to_binary(0b1010, 8)
    '00001010'
    """
    if value < 0 or value > ones(width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def rss_hash(value: int) -> int:
    """A deterministic 64-bit mix of an arbitrary-width packed value.

    Stands in for the NIC's Toeplitz hash: stable across processes (no
    salted ``hash()``), sensitive to every input bit, cheap.  Wide
    packed values are folded 64 bits at a time through a splitmix-style
    round.  The scalar reference for every key's steering hash
    (:attr:`~repro.flow.key.FlowKey.rss`); the block extractor's NumPy
    fold is held to it.
    """
    mixed = 0x9E3779B97F4A7C15
    while True:
        mixed = ((mixed ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        mixed ^= mixed >> 31
        value >>= 64
        if not value:
            return mixed


def _check_index(index: int, width: int) -> None:
    if not 0 <= index < width:
        raise ValueError(f"bit index must be in [0, {width}), got {index}")
