"""LBE — length-byte encoding with cheap aligned block copies.

LBE comes from MORC (Nguyen & Wentzlaff, MICRO 2015). The property the
CABLE paper leans on (§VI-E, Fig 20) is that, unlike CPACK which pays a
code + index *per word*, LBE can copy a large *aligned block* of the
dictionary with a single operation, amortizing the pointer over many
words. This is why CABLE+LBE is the best pairing: reference lines are
often near-copies of the requested line, and one copy op can cover most
of it.

Wire format (all operations word-aligned, lengths counted in 32-bit
words, ``off`` is the word offset into the current dictionary window):

========= =============================== =======================
op (2b)   operands                        wire bits
========= =============================== =======================
``ZERO``  len (4b, 1–16 words)            2 + 4
``COPY``  off (log2 window words), len 4b 2 + off_bits + 4
``LIT``   len (4b), len×32 raw bits       2 + 4 + 32·len
``BYTE``  len (4b), len×8 low bytes       2 + 4 + 8·len
========= =============================== =======================

``BYTE`` runs carry words whose upper 24 bits are zero (counters,
sizes, enum fields) at a quarter of the literal cost — LBE's
significance-based "length-byte" coding.

The encoder is greedy: at each word position it takes the longest of a
zero run or a window match, falling back to accumulating literals.
Matches shorter than the break-even length for the current pointer
width are rejected, which reproduces the pointer-overhead sensitivity
studied in Fig 3. Copies may also reference the already-emitted words
of the line being compressed (self-referential, like any LZ coder), so
repeated-value lines collapse to a literal plus one copy.

The persistent window (default 256 bytes — the paper's LBE256) carries
across the stream; the CABLE pairing instead seeds a temporary window
from the reference lines.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.compression.base import CompressedBlock, ReferenceCompressor
from repro.compression.dictionary import ByteWindow
from repro.core.errors import CorruptPayloadError
from repro.util.bits import bits_for
from repro.util.kernels import line_words
from repro.util.words import WORD_BYTES, bytes_to_words, words_to_bytes

_OP_BITS = 2
_LEN_BITS = 4
_MAX_RUN_WORDS = 1 << _LEN_BITS  # lengths 1..16 encoded as 0..15


class LbeCompressor(ReferenceCompressor):
    """Length-byte encoding over a word-aligned FIFO byte window."""

    def __init__(self, window_bytes: int = 256, persistent: bool = True) -> None:
        if window_bytes % WORD_BYTES:
            raise ValueError("window size must be word aligned")
        self.window_bytes = window_bytes
        self.persistent = persistent
        self.name = "lbe" if window_bytes == 256 else f"lbe{window_bytes}"
        self.stateful = persistent
        self._window = ByteWindow(window_bytes)
        # compress_with_references is stateless by contract, so its
        # result for a (line, references) pair never changes — memoize
        # it; re-encodes of resident lines are the common case.
        self._compress_refs_cached = lru_cache(maxsize=16384)(
            self._compress_with_references_uncached
        )

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self._window.clear()

    def compress(self, line: bytes) -> CompressedBlock:
        if not self.persistent:
            self._window.clear()
        tokens, size_bits = self._encode(line, self._window.data, self.window_bytes)
        self._window.append(line)
        return CompressedBlock(self.name, size_bits, len(line), tuple(tokens))

    def decompress(self, block: CompressedBlock) -> bytes:
        line = self._decode(block.tokens, self._window.data, block.original_size)
        self._window.append(line)
        return line

    # ------------------------------------------------------------------
    # Reference (CABLE-seeded) interface
    # ------------------------------------------------------------------

    def compress_with_references(
        self, line: bytes, references: Sequence[bytes]
    ) -> CompressedBlock:
        return self._compress_refs_cached(line, tuple(references))

    def _compress_with_references_uncached(
        self, line: bytes, references: Tuple[bytes, ...]
    ) -> CompressedBlock:
        window = b"".join(references)
        capacity = max(len(window), WORD_BYTES)
        tokens, size_bits = self._encode(line, window, capacity)
        return CompressedBlock(self.name, size_bits, len(line), tuple(tokens))

    def decompress_with_references(
        self, block: CompressedBlock, references: Sequence[bytes]
    ) -> bytes:
        window = b"".join(references)
        return self._decode(block.tokens, window, block.original_size)

    # ------------------------------------------------------------------
    # Core codec
    # ------------------------------------------------------------------

    def _encode(
        self, line: bytes, window: bytes, window_capacity: int
    ) -> Tuple[List[Tuple], int]:
        # The line's word view is memoized (lines recur across encodes);
        # windows are one-off, so they are unpacked directly.
        words = line_words(line)
        count = len(words)
        base = len(window) // WORD_BYTES
        # Every op reproduces the line, so at position ``pos`` the copy
        # space (window + emitted prefix) is exactly space[:base + pos]:
        # one concatenation serves every position.
        space = (*bytes_to_words(window), *words) if base else words
        # Offsets address the window plus the line's own emitted
        # prefix, so the pointer width covers capacity + one line.
        off_bits = bits_for(max(window_capacity // WORD_BYTES + count, 1))
        # A copy op must save bits over literals outright.
        copy_bits = _OP_BITS + off_bits + _LEN_BITS
        # Word → ascending offsets over the whole space; a position only
        # visits offsets below its own, whose first word already matches.
        occurrences: Dict[int, List[int]] = {}
        for off, word in enumerate(space):
            seen = occurrences.get(word)
            if seen is None:
                occurrences[word] = [off]
            else:
                seen.append(off)
        tokens: List[Tuple] = []
        size_bits = 0
        literal_start = pos = 0  # pending literals are words[literal_start:pos]
        while pos < count:
            here = base + pos
            limit = min(_MAX_RUN_WORDS, count - pos)
            zero_len = 0
            while zero_len < limit and space[here + zero_len] == 0:
                zero_len += 1
            # Longest match; overlapping copies read the words they
            # produce (LZ77), ties keep the lowest offset.
            copy_off = copy_len = 0
            if zero_len < limit:
                for off in occurrences[space[here]]:
                    if off >= here:
                        break
                    length = 1
                    while (
                        length < limit
                        and space[off + length] == space[here + length]
                    ):
                        length += 1
                    if length > copy_len:
                        copy_off, copy_len = off, length
                        if length == limit:
                            break
            if zero_len and zero_len >= copy_len:
                if literal_start < pos:
                    size_bits += _emit_literals(words[literal_start:pos], tokens)
                tokens.append(("zero", zero_len))
                size_bits += _OP_BITS + _LEN_BITS
                pos += zero_len
                literal_start = pos
            elif copy_len and copy_bits < 32 * copy_len:
                if literal_start < pos:
                    size_bits += _emit_literals(words[literal_start:pos], tokens)
                tokens.append(("copy", copy_off, copy_len))
                size_bits += copy_bits
                pos += copy_len
                literal_start = pos
            else:
                pos += 1
        if literal_start < pos:
            size_bits += _emit_literals(words[literal_start:pos], tokens)
        return tokens, size_bits

    def _decode(
        self, tokens: Sequence[Tuple], window: bytes, original_size: int
    ) -> bytes:
        space = bytes_to_words(window)
        start = len(space)
        for token in tokens:
            kind = token[0]
            if kind == "zero":
                space += [0] * token[1]
            elif kind == "copy":
                __, off, length = token
                produced = len(space)
                if not 0 <= off < produced:
                    raise CorruptPayloadError(
                        f"LBE copy offset {off} outside the {produced}-word copy space"
                    )
                end = off + length
                if end <= produced:
                    space += space[off:end]
                else:
                    # Overlap: the copy reads words it is producing,
                    # exactly as the encoder matched them.
                    for k in range(off, end):
                        space.append(space[k])
            elif kind in ("lit", "byte"):
                space += token[1]
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown LBE token {kind!r}")
        words = space[start:]
        if len(words) * WORD_BYTES != original_size:
            raise ValueError("LBE token stream does not reconstruct the line")
        return words_to_bytes(words)


def _emit_literals(run: Sequence[int], tokens: List[Tuple]) -> int:
    """Append *run* as maximal same-kind (byte vs word) chunks of at
    most ``_MAX_RUN_WORDS``; returns their wire bits."""
    bits = 0
    count = len(run)
    i = 0
    while i < count:
        is_byte = run[i] <= 0xFF
        j = i + 1
        end = min(count, i + _MAX_RUN_WORDS)
        while j < end and (run[j] <= 0xFF) == is_byte:
            j += 1
        if is_byte:
            tokens.append(("byte", tuple(run[i:j])))
            bits += _OP_BITS + _LEN_BITS + 8 * (j - i)
        else:
            tokens.append(("lit", tuple(run[i:j])))
            bits += _OP_BITS + _LEN_BITS + 32 * (j - i)
        i = j
    return bits
