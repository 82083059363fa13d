"""Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).

BDI represents a line as one base value plus per-element deltas narrow
enough to fit a small immediate, with a second implicit base of zero
(the "BΔI" dual-base refinement): each element stores either a delta
from the explicit base or a delta from zero, selected by a one-bit mask.

BDI is the paper's representative of the *non-dictionary* class: fast,
per-line, no cross-line state.

The encoder picks the smallest encoding that fits. A candidate's size
depends only on the line length, never on the data, so the candidates
are ranked once per length (smallest first, ties in table order with
the repeated-value encoding ahead) and the first one that fits wins.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.compression.base import Compressor, CompressedBlock
from repro.core.errors import CorruptPayloadError

#: encoding name -> (base size in bytes, delta size in bytes). The table
#: order breaks size ties, so it is part of the encoder's output.
_LAYOUTS: Dict[str, Tuple[int, int]] = {
    "b8d1": (8, 1),
    "b8d2": (8, 2),
    "b8d4": (8, 4),
    "b4d1": (4, 1),
    "b4d2": (4, 2),
    "b2d1": (2, 1),
}

#: 4-bit tag identifying the encoding on the wire.
_TAG_BITS = 4

_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _codec(line_len: int, size: int) -> struct.Struct:
    """Splits a *line_len*-byte line into unsigned *size*-byte elements."""
    return struct.Struct(f"<{line_len // size}{_UNSIGNED[size]}")


#: One ranked candidate: (size_bits, layout, delta bound, element codec);
#: "rep" carries no bound or codec.
_Ranked = Tuple[int, str, int, Optional[struct.Struct]]


@lru_cache(maxsize=None)
def _ranking(line_len: int) -> Tuple[_Ranked, ...]:
    """Every encoding a *line_len*-byte line can take, smallest first."""
    ranked = []
    if line_len % 8 == 0:
        # Order -1: the incumbent wins ties against every layout.
        ranked.append((_TAG_BITS + 64, -1, "rep", 0, None))
    for order, (layout, (base_size, delta_size)) in enumerate(_LAYOUTS.items()):
        if line_len % base_size:
            continue
        count = line_len // base_size
        size_bits = (
            _TAG_BITS
            + base_size * 8
            + count  # dual-base selection mask
            + count * delta_size * 8
        )
        bound = 1 << (8 * delta_size - 1)
        ranked.append((size_bits, order, layout, bound, _codec(line_len, base_size)))
    ranked.sort(key=lambda entry: entry[:2])
    return tuple((size, layout, bound, codec) for size, _, layout, bound, codec in ranked)


class BdiCompressor(Compressor):
    """Base-Delta-Immediate with dual (explicit + zero) bases."""

    name = "bdi"
    stateful = False

    def compress(self, line: bytes) -> CompressedBlock:
        line_len = len(line)
        if not any(line):
            # All-zero line: tag + 1 marker byte.
            return CompressedBlock(
                self.name, _TAG_BITS + 8, line_len, ("zeros", 0, (), (), line_len)
            )
        for size_bits, layout, bound, codec in _ranking(line_len):
            if codec is None:
                if line == line[:8] * (line_len // 8):
                    value = struct.unpack_from("<q", line)[0]
                    tokens = ("rep", value, (), (), line_len)
                    return CompressedBlock(self.name, size_bits, line_len, tokens)
                continue
            values = codec.unpack(line)
            # Elements are unsigned, so an element misses the zero base
            # exactly when it reaches the delta bound.
            far = [v for v in values if v >= bound]
            if not far:
                mask = (False,) * len(values)
                tokens = (layout, values[0], mask, values, line_len)
                return CompressedBlock(self.name, size_bits, line_len, tokens)
            base = far[0]
            if min(far) - base < -bound or max(far) - base >= bound:
                continue
            mask = tuple(v >= bound for v in values)
            deltas = tuple(v - base if v >= bound else v for v in values)
            tokens = (layout, base, mask, deltas, line_len)
            return CompressedBlock(self.name, size_bits, line_len, tokens)
        # Uncompressed fallback: tag + raw line.
        return CompressedBlock(
            self.name, _TAG_BITS + line_len * 8, line_len, ("raw", line)
        )

    def decompress(self, block: CompressedBlock) -> bytes:
        if block.tokens[0] == "raw":
            return block.tokens[1]
        if block.tokens[0] == "zeros":
            return b"\x00" * block.tokens[4]
        if block.tokens[0] == "rep":
            value, line_len = block.tokens[1], block.tokens[4]
            return struct.pack("<q", value) * (line_len // 8)
        layout, base, mask, deltas, line_len = block.tokens
        try:
            base_size, __ = _LAYOUTS[layout]
        except KeyError:
            raise CorruptPayloadError(f"unknown BDI layout {layout!r}") from None
        values = [
            (base + d) if use_base else d for use_base, d in zip(mask, deltas)
        ]
        return _codec(line_len, base_size).pack(*values)
