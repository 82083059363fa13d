"""Bit-granularity serialization.

Compression payloads in the paper are measured in bits (a 1-bit
compressed flag, a 2-bit reference count, 17-bit RemoteLIDs, CPACK
codes of 2–34 bits...). :class:`BitWriter` and :class:`BitReader`
provide exact MSB-first bit streams so every engine in
:mod:`repro.compression` can both *account* bits and *round-trip*
real encodings in tests.
"""

from __future__ import annotations

from typing import Tuple


def bits_for(value_count: int) -> int:
    """Number of bits needed to index ``value_count`` distinct values.

    ``bits_for(1) == 0`` — a single possible value needs no bits.
    """
    if value_count < 1:
        raise ValueError("value_count must be positive")
    return (value_count - 1).bit_length()


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._chunks: list = []  # (value, width) pairs
        self._bit_count = 0

    def write(self, value: int, width: int) -> None:
        """Append the *width* low bits of *value*."""
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._chunks.append((value, width))
        self._bit_count += width

    def write_bytes(self, data: bytes) -> None:
        """Append *data* as one ``8·len(data)``-bit field."""
        self.write(int.from_bytes(data, "big"), 8 * len(data))

    @property
    def bit_count(self) -> int:
        return self._bit_count

    def value(self) -> int:
        """The whole stream as one integer of :attr:`bit_count` bits.

        The chunks are folded in place, so asking again (or asking
        after a few more writes) only folds what was added since."""
        chunks = self._chunks
        if len(chunks) == 1:
            return chunks[0][0]
        acc = 0
        for value, width in chunks:
            acc = (acc << width) | value
        self._chunks = [(acc, self._bit_count)]
        return acc

    def getvalue(self) -> bytes:
        """Pack the stream into bytes, zero-padded to a byte boundary."""
        pad = (-self._bit_count) % 8
        acc = self.value() << pad
        total_bytes = (self._bit_count + pad) // 8
        return acc.to_bytes(total_bytes, "big") if total_bytes else b""


class BitReader:
    """MSB-first reader over bytes produced by :class:`BitWriter`.

    The stream is held as one big-endian integer, so a field of any
    width is a single shift and mask."""

    def __init__(self, data: bytes, bit_count: int = None) -> None:
        self._value = int.from_bytes(data, "big")
        self._total = len(data) * 8
        self._pos = 0
        self._limit = self._total if bit_count is None else bit_count
        if self._limit > self._total:
            raise ValueError("bit_count exceeds available data")

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return 0
        end = self._pos + width
        if end > self._limit:
            raise EOFError("bit stream exhausted")
        self._pos = end
        return (self._value >> (self._total - end)) & ((1 << width) - 1)

    def read_bytes(self, count: int) -> bytes:
        """Read *count* bytes as one ``8·count``-bit field."""
        return self.read(8 * count).to_bytes(count, "big")

    def unread(self) -> Tuple[int, int]:
        """The bits not yet read, as ``(value, width)``, without
        consuming them: a parser walks many small fields of *value*
        locally, then passes the width it used to :meth:`skip`."""
        width = self._limit - self._pos
        value = self._value >> (self._total - self._limit)
        return value & ((1 << width) - 1), width

    def skip(self, width: int) -> None:
        """Consume *width* bits without returning them."""
        if not 0 <= width <= self._limit - self._pos:
            raise EOFError("bit stream exhausted")
        self._pos += width

    def seek(self, bit_position: int) -> None:
        """Jump to an absolute bit position (frame field access)."""
        if not 0 <= bit_position <= self._limit:
            raise ValueError("seek position outside the bit stream")
        self._pos = bit_position

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos
