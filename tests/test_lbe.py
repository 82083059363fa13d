"""LBE: op costs, aligned block copies, self-reference, byte runs."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CompressedBlock
from repro.compression.lbe import LbeCompressor
from repro.core.errors import CorruptPayloadError
from repro.util.words import words_to_bytes


class TestOpCosts:
    def test_zero_line_is_one_op(self):
        engine = LbeCompressor(persistent=False)
        block = engine.compress(b"\x00" * 64)
        assert block.tokens == (("zero", 16),)
        assert block.size_bits == 2 + 4

    def test_byte_run(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([5] * 16)
        block = engine.compress(line)
        # lit word then a self-referential copy beats byte-coding all 16.
        assert block.size_bits < 16 * (2 + 4 + 8)
        assert engine.decompress(block) == line

    def test_small_values_use_byte_op(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([3, 7, 250, 9] + [0] * 12)
        block = engine.compress(line)
        kinds = [t[0] for t in block.tokens]
        assert "byte" in kinds
        assert "lit" not in kinds

    def test_word_literals_for_large_values(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([0xDEADBEEF, 0xCAFEBABE] + [0] * 14)
        block = engine.compress(line)
        kinds = [t[0] for t in block.tokens]
        assert "lit" in kinds


class TestBlockCopies:
    def test_single_copy_covers_whole_line(self):
        """The amortization CABLE leans on: one reference copy op."""
        engine = LbeCompressor()
        ref = words_to_bytes([0x10101010 + i for i in range(16)])
        block = engine.compress_with_references(ref, [ref])
        copy_ops = [t for t in block.tokens if t[0] == "copy"]
        assert len(copy_ops) == 1
        assert copy_ops[0][2] == 16
        # op + offset + len — tens of bits, not hundreds.
        assert block.size_bits <= 2 + 7 + 4

    def test_diff_of_one_word(self):
        engine = LbeCompressor()
        ref_words = [0x20202020 + i for i in range(16)]
        line_words = list(ref_words)
        line_words[7] = 0xDEADBEEF
        ref = words_to_bytes(ref_words)
        line = words_to_bytes(line_words)
        block = engine.compress_with_references(line, [ref])
        assert engine.decompress_with_references(block, [ref]) == line
        # copy(7) + lit(1) + copy(8): far below the bare encoding.
        bare = engine.compress_with_references(line, ())
        assert block.size_bits < bare.size_bits / 2

    def test_copy_across_reference_boundary_not_required(self):
        engine = LbeCompressor()
        refs = [
            words_to_bytes([0x30303030 + i for i in range(16)]),
            words_to_bytes([0x40404040 + i for i in range(16)]),
        ]
        line = refs[0][:32] + refs[1][32:]
        block = engine.compress_with_references(line, refs)
        assert engine.decompress_with_references(block, refs) == line


class TestSelfReference:
    def test_repeated_word_collapses(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([0xABCD1234] * 16)
        block = engine.compress(line)
        # One literal + one overlapping copy.
        assert block.size_bits <= (2 + 4 + 32) + (2 + 7 + 4)
        assert engine.decompress(block) == line

    def test_period_two_pattern(self):
        engine = LbeCompressor(persistent=False)
        line = words_to_bytes([0xAAAA0001, 0xBBBB0002] * 8)
        block = engine.compress(line)
        assert engine.decompress(block) == line
        copy_ops = [t for t in block.tokens if t[0] == "copy"]
        assert copy_ops, "periodic content should use an overlap copy"


class TestStreamWindow:
    def test_window_carries_across_lines(self):
        engine = LbeCompressor(window_bytes=256)
        line = words_to_bytes([0x51515151 + i for i in range(16)])
        first = engine.compress(line)
        second = engine.compress(line)
        assert second.size_bits < first.size_bits

    def test_window_evicts_fifo(self):
        engine = LbeCompressor(window_bytes=128)  # two lines
        target = words_to_bytes([0x61616161 + i for i in range(16)])
        engine.compress(target)
        for i in range(3):
            engine.compress(words_to_bytes([0x70000000 + 16 * i + j for j in range(16)]))
        block = engine.compress(target)
        copy_ops = [t for t in block.tokens if t[0] == "copy" and t[2] >= 8]
        assert not copy_ops, "target must have aged out of a 128B window"

    def test_misaligned_window_rejected(self):
        with pytest.raises(ValueError):
            LbeCompressor(window_bytes=130)

    def test_name_variants(self):
        assert LbeCompressor(window_bytes=256).name == "lbe"
        assert LbeCompressor(window_bytes=512).name == "lbe512"


def _pin_words(rng, count):
    """Words from a small alphabet, so zero runs, byte runs, repeats
    and literals all occur."""
    palette = [rng.getrandbits(32) for _ in range(3)]
    words = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            words.append(0)
        elif roll < 0.5:
            words.append(rng.randrange(1, 256))
        elif roll < 0.8:
            words.append(rng.choice(palette))
        else:
            words.append(rng.getrandbits(32))
    return words


def _pin_cases(seed=0x1BE, count=1500):
    """Seeded ``(line, references)`` pairs: references are edited or
    shifted copies of the line, or unrelated lines."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        words = _pin_words(rng, 16)
        references = []
        for _ in range(rng.randrange(4)):
            kind = rng.random()
            if kind < 0.4:
                ref = list(words)
                for _ in range(rng.randrange(1, 5)):
                    ref[rng.randrange(16)] = rng.choice((0, rng.getrandbits(32)))
            elif kind < 0.7:
                shift = rng.randrange(1, 8)
                ref = words[shift:] + _pin_words(rng, shift)
            else:
                ref = _pin_words(rng, 16)
            references.append(words_to_bytes(ref))
        cases.append((words_to_bytes(words), tuple(references)))
    return cases


def _lbe_digest() -> str:
    h = hashlib.sha256()
    engine = LbeCompressor()
    streams = (LbeCompressor(window_bytes=256), LbeCompressor(window_bytes=128))
    for line, references in _pin_cases():
        block = engine.compress_with_references(line, references)
        h.update(repr((block.tokens, block.size_bits)).encode())
        for stream in streams:
            block = stream.compress(line)
            h.update(repr((block.tokens, block.size_bits)).encode())
    return h.hexdigest()


#: Pinned before the single-pass codec: tokens and ``size_bits`` of the
#: reference path and of two persistent stream windows must not move.
LBE_DIGEST = "1cdea49bcb3be53242c49cb666537147e6c3dd73bdfa71f7f828188069abb886"


def test_lbe_tokens_are_pinned():
    assert _lbe_digest() == LBE_DIGEST


# ---------------------------------------------------------------------------
# The single-pass codec against the word-by-word greedy loop it replaced
# ---------------------------------------------------------------------------


def _greedy_oracle(line, window, window_capacity):
    """The original greedy encoder: rebuilds the copy space as it goes
    and rescans it at every position."""
    words = list(struct.unpack(f"<{len(line) // 4}I", line))
    space = list(struct.unpack(f"<{len(window) // 4}I", window))
    off_bits = (max(window_capacity // 4 + len(words), 1) - 1).bit_length()
    tokens, size_bits, literals = [], 0, []

    def flush():
        nonlocal size_bits
        run = list(literals)
        literals.clear()
        while run:
            is_byte = run[0] <= 0xFF
            chunk = []
            while run and len(chunk) < 16 and (run[0] <= 0xFF) == is_byte:
                chunk.append(run.pop(0))
            tokens.append(("byte" if is_byte else "lit", tuple(chunk)))
            size_bits += 6 + (8 if is_byte else 32) * len(chunk)

    pos = 0
    while pos < len(words):
        limit = min(16, len(words) - pos)
        zero_len = 0
        while zero_len < limit and words[pos + zero_len] == 0:
            zero_len += 1
        copy_off, copy_len = None, 0
        for off in range(len(space)):
            length = 0
            while length < limit:
                src = off + length
                source = space[src] if src < len(space) else words[pos + src - len(space)]
                if source != words[pos + length]:
                    break
                length += 1
            if length > copy_len:
                copy_off, copy_len = off, length
                if copy_len == limit:
                    break
        if zero_len and zero_len >= copy_len:
            flush()
            tokens.append(("zero", zero_len))
            size_bits += 6
            step = zero_len
        elif copy_len and 6 + off_bits < 32 * copy_len:
            flush()
            tokens.append(("copy", copy_off, copy_len))
            size_bits += 6 + off_bits
            step = copy_len
        else:
            literals.append(words[pos])
            step = 1
        space.extend(words[pos : pos + step])
        pos += step
    flush()
    return tokens, size_bits


#: Zero, byte-sized and repeated 32-bit values, so zero runs, byte and
#: literal runs, window copies and overlapping self-copies all occur.
_ALPHABET = (0, 0, 1, 7, 0xFF, 0x100, 0xDEADBEEF, 0xCAFEBABE, 0x01000001)
_words = st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=24)


class TestSinglePassEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(
        line=_words,
        references=st.lists(
            st.lists(st.sampled_from(_ALPHABET), min_size=16, max_size=16),
            max_size=3,
        ),
        stream_capacity=st.sampled_from((None, 64, 256)),
    )
    def test_encode_matches_greedy_loop_and_roundtrips(
        self, line, references, stream_capacity
    ):
        engine = LbeCompressor()
        line_bytes = words_to_bytes(line)
        window = b"".join(words_to_bytes(ref) for ref in references)
        if stream_capacity is None:
            capacity = max(len(window), 4)
        else:
            # A stream window holds at most its capacity (FIFO tail).
            window = window[-stream_capacity:]
            capacity = stream_capacity
        tokens, size_bits = engine._encode(line_bytes, window, capacity)
        assert (tokens, size_bits) == _greedy_oracle(line_bytes, window, capacity)
        assert engine._decode(tokens, window, len(line_bytes)) == line_bytes


class TestCopyBounds:
    def test_copy_past_produced_words_is_corrupt_payload(self):
        engine = LbeCompressor()
        block = CompressedBlock("lbe", 0, 64, (("copy", 20, 16),))
        with pytest.raises(CorruptPayloadError):
            engine.decompress_with_references(block, [])

    def test_copy_bound_is_window_plus_produced(self):
        engine = LbeCompressor()
        ref = words_to_bytes([0x10000 + i for i in range(16)])
        # Offset 16 is the first word produced: legal once one exists.
        ok = (("lit", (0xABCDEF01,)), ("copy", 16, 15))
        line = engine.decompress_with_references(
            CompressedBlock("lbe", 0, 64, ok), [ref]
        )
        assert line == words_to_bytes([0xABCDEF01] * 16)
        bad = (("lit", (0xABCDEF01,)), ("copy", 17, 15))
        with pytest.raises(CorruptPayloadError):
            engine.decompress_with_references(CompressedBlock("lbe", 0, 64, bad), [ref])
