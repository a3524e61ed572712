"""Classic libpcap file format reader and writer.

The attack tooling exports its covert packet stream as a ``.pcap`` so it
can be replayed against a real Open vSwitch deployment with ``tcpreplay``
— the same workflow the paper's companion repository (``cslev/ovsdos``)
uses.  Only the classic (non-ng) little-endian format with microsecond
timestamps is produced; both byte orders are accepted on read.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

MAGIC_LE = 0xA1B2C3D4
MAGIC_BE = 0xD4C3B2A1
LINKTYPE_ETHERNET = 1
#: libpcap's ``MAXIMUM_SNAPLEN``: the per-record cap when the global
#: header declares no snaplen (0) or an absurd one
MAX_SNAPLEN = 262_144
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
#: bytes per refill of :meth:`PcapReader.blocks`' buffer: big enough to
#: amortise the per-block work over hundreds of frames, small enough
#: that a block's worth of temporaries stays in cache
REFILL_BYTES = 1 << 16


#: one refill's whole records: ``(buf, starts, lengths, stamps)``
Block = tuple[bytes, list[int], list[int], list[float]]


class PcapTruncatedError(ValueError):
    """The capture ends inside a record (its header or packet bytes).

    Everything before the cut was yielded; callers replaying live
    traffic treat this as end-of-stream, not as a fatal error.
    """


@dataclass(frozen=True)
class PcapPacket:
    """One captured packet: seconds + microseconds timestamp and bytes."""

    timestamp: float
    data: bytes

    @property
    def ts_sec(self) -> int:
        return int(self.timestamp)

    @property
    def ts_usec(self) -> int:
        return int(round((self.timestamp - int(self.timestamp)) * 1_000_000)) % 1_000_000


class PcapWriter:
    """Write packets to a classic pcap file.

    Usable as a context manager::

        with PcapWriter("covert.pcap") as writer:
            writer.write(frame_bytes, timestamp=0.001)
    """

    def __init__(self, path: str | Path, snaplen: int = 65535,
                 linktype: int = LINKTYPE_ETHERNET) -> None:
        self.path = Path(path)
        self.snaplen = snaplen
        self.linktype = linktype
        self._file: BinaryIO | None = None
        self.packets_written = 0

    def __enter__(self) -> "PcapWriter":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def open(self) -> None:
        """Open the file and emit the global header."""
        self._file = open(self.path, "wb")
        self._file.write(
            _GLOBAL_HEADER.pack(MAGIC_LE, 2, 4, 0, 0, self.snaplen, self.linktype)
        )

    def write(self, data: bytes, timestamp: float = 0.0) -> None:
        """Append one packet record."""
        if self._file is None:
            raise RuntimeError("PcapWriter is not open")
        packet = PcapPacket(timestamp, data)
        captured = data[: self.snaplen]
        self._file.write(
            _RECORD_HEADER.pack(packet.ts_sec, packet.ts_usec, len(captured), len(data))
        )
        self._file.write(captured)
        self.packets_written += 1

    def write_all(self, frames: Iterable[bytes], rate_pps: float = 1000.0) -> int:
        """Write frames with synthetic timestamps at a constant packet
        rate; returns the number written."""
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        count = 0
        for i, frame in enumerate(frames):
            self.write(frame, timestamp=i / rate_pps)
            count += 1
        return count

    def close(self) -> None:
        """Flush and close the file."""
        if self._file is not None:
            self._file.close()
            self._file = None


class PcapReader:
    """Iterate packets from a classic pcap file (either byte order).

    A record's ``incl_len`` is untrusted input: a read never exceeds
    what the file still holds, and a record longer than the capture's
    own snaplen is clamped to it — the excess skipped, the record
    counted in ``oversized_records`` — as libpcap does.

    The format is walked in one place, :meth:`blocks`, a bounded refill
    buffer at a time; per-record iteration is a view over it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.linktype: int | None = None
        self.snaplen: int | None = None
        #: records whose ``incl_len`` exceeded the snaplen (clamped)
        self.oversized_records = 0

    def _read_global_header(self, handle: BinaryIO) -> struct.Struct:
        """Parse the global header off a freshly opened capture, leaving
        ``handle`` at its first record: sets ``snaplen`` / ``linktype``
        and returns the record header in the file's byte order."""
        header = handle.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise ValueError(f"{self.path} is not a pcap file (truncated header)")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == MAGIC_LE:
            endian = "<"
        elif magic == MAGIC_BE:
            endian = ">"
        else:
            raise ValueError(f"{self.path} has unknown pcap magic {magic:#x}")
        fields = struct.unpack(endian + "IHHiIII", header)
        self.snaplen, self.linktype = fields[5], fields[6]
        return struct.Struct(endian + "IIII")

    def read_header(self) -> None:
        """Open the capture and check its global header, reading no
        record: ``OSError`` for a file that cannot be opened,
        ``ValueError`` for one that is not a pcap."""
        with open(self.path, "rb") as handle:
            self._read_global_header(handle)

    def blocks(self) -> Iterator[Block]:
        """Yield ``(buf, starts, lengths, stamps)`` per refill of a
        bounded buffer: record ``i`` of the block is
        ``buf[starts[i]:starts[i] + lengths[i]]``, captured at
        ``stamps[i]`` seconds.

        Only whole records are yielded; the bytes of a record the
        buffer ends inside are carried into the next refill, so peak
        memory is one refill plus one record (at most the snaplen),
        whatever the capture's size.  Everything before a cut is
        yielded, then :class:`PcapTruncatedError` is raised.
        """
        with open(self.path, "rb") as handle:
            record = self._read_global_header(handle)
            header_len, unpack_from = record.size, record.unpack_from
            limit = min(self.snaplen or MAX_SNAPLEN, MAX_SNAPLEN)
            #: bytes the file still holds past the walked records
            left = os.fstat(handle.fileno()).st_size - _GLOBAL_HEADER.size
            buf = b""
            pos = 0
            want = REFILL_BYTES
            while True:
                chunk = handle.read(want)
                buf = buf[pos:] + chunk
                pos, end, want = 0, len(buf), REFILL_BYTES
                starts: list[int] = []
                lengths: list[int] = []
                stamps: list[float] = []
                cut = None
                while end - pos >= header_len:
                    ts_sec, ts_usec, incl_len, _orig_len = unpack_from(buf, pos)
                    if left < header_len + incl_len:
                        cut = "mid-packet"
                        break
                    keep = incl_len if incl_len <= limit else limit
                    data = pos + header_len
                    if end - data < keep:
                        # a record longer than the refill: fetch its rest
                        want = max(REFILL_BYTES, keep - (end - data))
                        break
                    left -= header_len + incl_len
                    starts.append(data)
                    lengths.append(keep)
                    stamps.append(ts_sec + ts_usec / 1_000_000)
                    pos = data + keep
                    if incl_len > limit:
                        # the excess is skipped, never buffered
                        self.oversized_records += 1
                        pos += incl_len - limit
                        if pos > end:
                            handle.seek(pos - end, os.SEEK_CUR)
                            pos = end
                if starts:
                    yield buf, starts, lengths, stamps
                if cut is None and not chunk and end > pos:
                    # end of file with part of a record in hand
                    cut = ("mid-record" if end - pos < header_len
                           else "mid-packet")
                if cut is not None:
                    raise PcapTruncatedError(f"{self.path} ends {cut}")
                if not chunk:
                    return

    def __iter__(self) -> Iterator[PcapPacket]:
        for buf, starts, lengths, stamps in self.blocks():
            for start, length, stamp in zip(starts, lengths, stamps):
                yield PcapPacket(stamp, buf[start:start + length])

    def read_all(self) -> list[PcapPacket]:
        """Read the whole capture into memory."""
        return list(self)
