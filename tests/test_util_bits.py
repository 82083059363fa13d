"""Bit I/O: exact widths, MSB-first order, round trips."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bits import BitReader, BitWriter, bits_for


class TestBitsFor:
    @pytest.mark.parametrize(
        "count,expected",
        [(1, 0), (2, 1), (3, 2), (4, 2), (16, 4), (17, 5), (1 << 17, 17)],
    )
    def test_values(self, count, expected):
        assert bits_for(count) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bits_for(0)


class TestBitWriter:
    def test_empty(self):
        writer = BitWriter()
        assert writer.bit_count == 0
        assert writer.getvalue() == b""

    def test_msb_first_packing(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0b0101, 4)
        # 10101 padded to 10101000
        assert writer.getvalue() == bytes([0b10101000])
        assert writer.bit_count == 5

    def test_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(4, 2)

    def test_negative_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_zero_width_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_count == 0

    def test_write_bytes(self):
        writer = BitWriter()
        writer.write_bytes(b"\xAB\xCD")
        assert writer.getvalue() == b"\xAB\xCD"


class TestRoundTrip:
    def test_mixed_fields(self):
        fields = [(1, 1), (2, 2), (17, 5), (0xFFFF, 16), (0, 3), (300, 9)]
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        reader = BitReader(writer.getvalue(), writer.bit_count)
        for value, width in fields:
            assert reader.read(width) == value
        assert reader.bits_remaining == 0

    def test_reader_eof(self):
        writer = BitWriter()
        writer.write(3, 2)
        reader = BitReader(writer.getvalue(), writer.bit_count)
        reader.read(2)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_read_bytes(self):
        writer = BitWriter()
        writer.write_bytes(b"hello")
        reader = BitReader(writer.getvalue(), writer.bit_count)
        assert reader.read_bytes(5) == b"hello"

    @given(
        st.lists(
            st.tuples(st.integers(1, 32)).map(lambda t: t[0]),
            min_size=1,
            max_size=50,
        ).flatmap(
            lambda widths: st.tuples(
                st.just(widths),
                st.tuples(
                    *[st.integers(0, (1 << w) - 1) for w in widths]
                ),
            )
        )
    )
    def test_roundtrip_property(self, widths_values):
        widths, values = widths_values
        writer = BitWriter()
        for value, width in zip(values, widths):
            writer.write(value, width)
        reader = BitReader(writer.getvalue(), writer.bit_count)
        decoded = [reader.read(width) for width in widths]
        assert decoded == list(values)


def _oracle_read(data: bytes, pos: int, width: int) -> int:
    """Bit-at-a-time MSB-first read: the reference for BitReader."""
    value = 0
    for bit_pos in range(pos, pos + width):
        value = (value << 1) | ((data[bit_pos >> 3] >> (7 - (bit_pos & 7))) & 1)
    return value


@st.composite
def _reads(draw):
    data = draw(st.binary(max_size=40))
    limit = draw(st.integers(0, len(data) * 8))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("read"), st.integers(0, 64)),
                st.tuples(st.just("seek"), st.integers(0, limit)),
            ),
            max_size=30,
        )
    )
    return data, limit, ops


class TestReaderOracle:
    @given(_reads())
    def test_matches_bit_at_a_time_oracle(self, case):
        data, limit, ops = case
        reader = BitReader(data, limit)
        pos = 0
        for op, arg in ops:
            if op == "seek":
                reader.seek(arg)
                pos = arg
            elif pos + arg > limit:
                # EOF at the bit_count limit, not at the end of the bytes.
                with pytest.raises(EOFError):
                    reader.read(arg)
            else:
                assert reader.read(arg) == _oracle_read(data, pos, arg)
                pos += arg
            assert reader.bits_remaining == limit - pos

    @given(st.binary(max_size=16), st.integers(0, 16))
    def test_read_bytes_matches_oracle(self, data, skip):
        skip = min(skip, len(data) * 8)
        reader = BitReader(data)
        reader.seek(skip)
        count = (len(data) * 8 - skip) // 8
        expected = bytes(_oracle_read(data, skip + 8 * i, 8) for i in range(count))
        assert reader.read_bytes(count) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", 9)
        reader = BitReader(b"\xff\xff", 12)
        with pytest.raises(ValueError):
            reader.read(-1)
        with pytest.raises(ValueError):
            reader.seek(13)
        assert reader.read(12) == 0xFFF
        with pytest.raises(EOFError):
            reader.read(1)
