"""Data-content pattern generators.

The reproduction cannot use the paper's SimPoint traces (proprietary
SPEC2006 binaries + a trace format tied to PriME), so workloads are
synthesized from *data-pattern families* whose interaction with each
compression class is understood:

================= ====================================================
family            who benefits
================= ====================================================
zero lines        everyone (zero codes / runs); the 32× link cap
small integers    per-word coders (CPACK zzzx, BDI small deltas)
pointer arrays    BDI (shared base) and CPACK partial matches
float arrays      nobody per-word — only inter-line similarity helps,
                  which is exactly CABLE's niche
struct copies     positional near-duplicates of an archetype line —
                  CABLE's CBV sees them wherever they sit in the
                  cache; gzip only if they recur within its window
shifted copies    byte-shifted duplicates — gzip/ORACLE catch these,
                  CABLE's word-aligned CBV mostly does not (§VI-E's
                  CABLE+ORACLE gap)
text              gzip-friendly byte redundancy
random            incompressible filler
sparse fibers     CSR coordinate/value runs (FiberCache-style) —
                  coordinate halves behave like pointer arrays, value
                  halves like floats; same-region fibers are
                  near-duplicates (CABLE and the memory-tier
                  scenarios)
================= ====================================================

Every generator is deterministic in (seed, address), so a line's
content is a pure function of its address — re-reading an address
after eviction reproduces identical bytes, exactly like real memory.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List

from repro.util.words import words_to_bytes

LINE_BYTES = 64
WORDS = 16


def zero_line(rng) -> bytes:
    return b"\x00" * LINE_BYTES


def small_int_line(rng) -> bytes:
    """Counters, sizes, flags: mostly zeros and ≤8-bit values, the
    bread and butter of significance-based coders (CPACK zzzx, BDI)."""
    words = []
    for _ in range(WORDS):
        point = rng.random()
        if point < 0.62:
            words.append(0)
        elif point < 0.94:
            words.append(rng.randrange(1, 256))
        else:
            words.append(rng.randrange(1 << 16))
    return words_to_bytes(words)


def pointer_array_line(rng) -> bytes:
    """64-bit pointers into a heap region: identical high words and
    shared upper address bits (CPACK partial matches), with null
    entries sprinkled in as real pointer arrays have."""
    base = rng.randrange(16) << 24
    out = bytearray()
    for _ in range(8):
        if rng.random() < 0.25:
            out += struct.pack("<Q", 0)
        else:
            pointer = 0x7F3A_0000_0000 | base | (rng.randrange(1 << 17) * 8)
            out += struct.pack("<Q", pointer)
    return bytes(out)


def float_array_line(rng) -> bytes:
    """Doubles from a sparse field: high-entropy mantissas where
    populated, zero elsewhere. The populated words defeat per-word
    coders; only inter-line similarity (CABLE's niche) compresses
    them."""
    out = bytearray()
    value = rng.uniform(-1000.0, 1000.0)
    for _ in range(8):
        if rng.random() < 0.45:
            out += struct.pack("<d", 0.0)
        else:
            value += rng.gauss(0.0, 1.0)
            out += struct.pack("<d", value)
    return bytes(out)


def text_line(rng) -> bytes:
    """ASCII with natural-language-ish repetition."""
    vocab = [b"the ", b"and ", b"node", b"edge", b"list", b"tree", b"atom", b"cell"]
    out = bytearray()
    while len(out) < LINE_BYTES:
        out += rng.choice(vocab)
    return bytes(out[:LINE_BYTES])


def random_line(rng) -> bytes:
    return bytes(rng.randrange(256) for _ in range(LINE_BYTES))


def struct_record_line(rng) -> bytes:
    """A typical heap object: vtable/type pointer, object pointers,
    small fields, zero padding. The pointer words carry real entropy —
    as in live heaps, where headers are vtable addresses — which is
    what makes them useful signatures."""
    words: List[int] = []
    words.append(0x0804_0000 | rng.getrandbits(18))  # vtable/type pointer
    words.append(rng.randrange(1 << 12))  # refcount / size
    base = 0x7F3A_0000 | (rng.randrange(8) << 16)
    for _ in range(3):
        words.append(base + rng.getrandbits(14))
    for _ in range(5):
        words.append(rng.randrange(100))
    while len(words) < WORDS:
        words.append(0)
    return words_to_bytes(words)


def repeated_value_line(rng) -> bytes:
    """One value replicated across the line (initialization fills,
    sentinel arrays) — the "repeated values" the paper groups with
    zeros as trivially compressible."""
    if rng.random() < 0.5:
        word = rng.randrange(1, 256)
    else:
        word = rng.getrandbits(32)
    return words_to_bytes([word] * WORDS)


def sparse_fiber_line(rng) -> bytes:
    """One line of a CSR-style sparse fiber (Gamma/FiberCache): a run
    of ascending coordinate indices followed by their float32 values,
    stored struct-of-arrays within the line.

    Coordinates share one matrix's column-space high bits and climb
    with power-law gaps (sparse rows cluster their nonzeros); short
    fibers leave zero tails. The coordinate half compresses like a
    pointer array (shared base, small deltas), the value half like
    floats — and fibers drawn from the same matrix region are
    positional near-duplicates of each other, which is exactly the
    irregular long-range reuse the memory-tier scenarios stress."""
    nnz = rng.randint(3, WORDS // 2)
    base = rng.randrange(1 << 8) << 16
    coord = base + rng.randrange(1 << 10)
    coords: List[int] = []
    for _ in range(nnz):
        coords.append(coord & 0xFFFFFFFF)
        # Power-law gap: most nonzeros are near-adjacent, a few jump.
        coord += 1 + int((rng.random() ** 2.5) * 512)
    coords += [0] * (WORDS // 2 - nnz)
    values: List[int] = []
    magnitude = rng.uniform(-2.0, 2.0)
    for i in range(WORDS // 2):
        if i < nnz:
            magnitude += rng.gauss(0.0, 0.25)
            values.append(struct.unpack("<I", struct.pack("<f", magnitude))[0])
        else:
            values.append(0)
    return words_to_bytes(coords + values)


#: Name → generator, referenced by benchmark profiles.
PATTERN_GENERATORS: Dict[str, Callable] = {
    "zero": zero_line,
    "small_int": small_int_line,
    "pointer": pointer_array_line,
    "float": float_array_line,
    "text": text_line,
    "random": random_line,
    "struct": struct_record_line,
    "repeat": repeated_value_line,
    "fiber": sparse_fiber_line,
}


def mutate_line(line: bytes, rng, word_edits: int) -> bytes:
    """Copy *line* with up to *word_edits* random 32-bit word edits —
    the small diffs between object copies that CABLE compresses as a
    pointer + DIFF (Fig 2)."""
    if word_edits <= 0:
        return line
    out = bytearray(line)
    for _ in range(word_edits):
        word = rng.randrange(WORDS)
        kind = rng.random()
        if kind < 0.75:
            # Small-field tweak (counter bump, flag change): the common
            # object edit, and cheap for significance-based coders.
            struct.pack_into("<I", out, word * 4, rng.randrange(1 << 8))
        else:
            struct.pack_into("<I", out, word * 4, rng.getrandbits(32))
    return bytes(out)


def shift_line(line: bytes, byte_shift: int) -> bytes:
    """Rotate a line by a byte amount — duplicates that gzip's
    byte-granular matching finds but word-positional CBVs do not
    (unless the shift is a multiple of four *and* content repeats)."""
    byte_shift %= LINE_BYTES
    return line[-byte_shift:] + line[:-byte_shift] if byte_shift else line


def family_member(
    archetype: bytes, rng, word_edits: int, shift_prob: float
) -> bytes:
    """One copy of an archetype: mutated, maybe shifted.

    *rng* names the member; a workload seeds it from
    ``(member seed, "family-member", member_id)``."""
    line = mutate_line(archetype, rng, rng.randint(0, word_edits))
    if rng.random() < shift_prob:
        line = shift_line(line, rng.choice((1, 2, 3, 5, 6, 7, 9)))
    return line
