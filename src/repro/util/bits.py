"""Bit-granularity serialization.

Compression payloads in the paper are measured in bits (a 1-bit
compressed flag, a 2-bit reference count, 17-bit RemoteLIDs, CPACK
codes of 2–34 bits...). :class:`BitWriter` and :class:`BitReader`
provide exact MSB-first bit streams so every engine in
:mod:`repro.compression` can both *account* bits and *round-trip*
real encodings in tests.
"""

from __future__ import annotations


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
        for byte in data:
            self.write(byte, 8)

    def extend(self, other: "BitWriter") -> None:
        """Append every bit another writer holds (frame composition)."""
        self._chunks.extend(other._chunks)
        self._bit_count += other._bit_count

    @property
    def bit_count(self) -> int:
        return self._bit_count

    def getvalue(self) -> bytes:
        """Pack the stream into bytes, zero-padded to a byte boundary."""
        acc = 0
        for value, width in self._chunks:
            acc = (acc << width) | value
        pad = (-self._bit_count) % 8
        acc <<= pad
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
        return bytes(self.read(8) for _ in range(count))

    def seek(self, bit_position: int) -> None:
        """Jump to an absolute bit position (frame field access)."""
        if not 0 <= bit_position <= self._limit:
            raise ValueError("seek position outside the bit stream")
        self._pos = bit_position

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos
