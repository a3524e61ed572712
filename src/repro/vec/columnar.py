"""Columnar key codec: packed integers <-> ``uint64`` lane arrays.

The packed-key fast path already gives every :class:`~repro.flow.key.
FlowKey` one cached integer in the space's fixed bit layout (field 0 at
the most significant end, so packed ints compare like value tuples).
A :class:`LaneCodec` lifts a *batch* of those integers into NumPy: each
key becomes one row of a ``(n, lanes)`` ``uint64`` array, big-endian
lane order, where ``lanes = ceil(total_bits / 64)``.  The default OVS
space packs to 136 bits and therefore spans three lanes; toy spaces fit
one.  Masking distributes over the lane split — ``lanes(v) & lanes(m)
== lanes(v & m)`` row-wise — which is the identity the vectorized
subtable scan relies on (``keys & mask`` for the whole batch at once).
"""

from __future__ import annotations

from typing import Sequence

from repro.flow.fields import FieldSpace
from repro.vec import require_numpy

np = require_numpy("the columnar key codec")


class LaneCodec:
    """Encode packed key/mask integers of one field space as lane rows."""

    __slots__ = ("space", "lanes", "nbytes", "_bytes_cache")

    #: encoded-bytes memo bound — cleared wholesale when exceeded
    BYTES_CACHE_MAX = 1 << 17

    def __init__(self, space: FieldSpace) -> None:
        self.space = space
        total_bits = space.total_bits()
        #: 64-bit lanes per key (>= 1); lane 0 holds the most
        #: significant bits, matching the packed layout's field order
        self.lanes = max(1, -(-total_bits // 64))
        self.nbytes = self.lanes * 8
        #: packed int -> big-endian bytes memo: sustained streams revisit
        #: the same keys (that is what makes them an attack), so the
        #: ``int.to_bytes`` cost is paid once per distinct key
        self._bytes_cache: dict[int, bytes] = {}

    # -- encoding ----------------------------------------------------------

    def encode_ints(self, packed: Sequence[int]) -> "np.ndarray":
        """``(n, lanes)`` ``uint64`` rows for packed integers.

        One ``int.to_bytes`` per integer, then a single vectorized
        reinterpretation — the per-batch cost the engine pays once.
        """
        n = len(packed)
        if n == 0:
            return np.empty((0, self.lanes), dtype=np.uint64)
        nbytes = self.nbytes
        cache = self._bytes_cache
        if len(cache) > self.BYTES_CACHE_MAX:
            cache.clear()
        parts = []
        for value in packed:
            raw = cache.get(value)
            if raw is None:
                raw = value.to_bytes(nbytes, "big")
                cache[value] = raw
            parts.append(raw)
        return (
            np.frombuffer(b"".join(parts), dtype=">u8")
            .reshape(n, self.lanes)
            .astype(np.uint64)
        )

    def __repr__(self) -> str:
        return f"LaneCodec({self.space.name}: {self.lanes} x uint64)"
