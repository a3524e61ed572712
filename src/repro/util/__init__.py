"""Shared low-level utilities used across the reproduction.

The subpackage intentionally has no dependency on any other ``repro``
subpackage so that every layer of the system (packet crafting, the OVS
model, the performance simulator) can use it freely.
"""

from repro.util.bits import (
    bit_get,
    bit_set,
    bit_clear,
    bit_flip,
    first_diff_bit,
    mask_of_prefix,
    ones,
    popcount,
    rss_hash,
    to_binary,
)
from repro.util.units import (
    format_bps,
    format_count,
    format_pps,
    parse_bps,
    parse_size,
)
from repro.util.rng import DeterministicRng
from repro.util.ascii_chart import AsciiChart, AsciiTable

__all__ = [
    "AsciiChart",
    "AsciiTable",
    "DeterministicRng",
    "bit_clear",
    "bit_flip",
    "bit_get",
    "bit_set",
    "first_diff_bit",
    "format_bps",
    "format_count",
    "format_pps",
    "mask_of_prefix",
    "ones",
    "parse_bps",
    "parse_size",
    "popcount",
    "rss_hash",
    "to_binary",
]
