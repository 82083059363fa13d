"""Deterministic randomness helpers."""

from hypothesis import given, strategies as st

from repro.util.rng import make_rng, stable_hash64, stable_hasher


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_context_changes_hash(self):
        assert stable_hash64("a", 1) != stable_hash64("a", 2)
        assert stable_hash64("a", 1) != stable_hash64("b", 1)

    def test_order_matters(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_64_bit_range(self):
        for i in range(50):
            value = stable_hash64("x", i)
            assert 0 <= value < (1 << 64)

    def test_no_concat_aliasing(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")


class TestMakeRng:
    def test_streams_reproducible(self):
        a = make_rng(1, "stream")
        b = make_rng(1, "stream")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_independent(self):
        a = make_rng(1, "stream-a")
        b = make_rng(1, "stream-b")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


_parts = st.one_of(
    st.integers(), st.text(max_size=8), st.tuples(st.integers(), st.text(max_size=4))
)


class TestStableHasher:
    @given(st.lists(_parts, max_size=4), st.lists(_parts, min_size=1, max_size=6))
    def test_equals_stable_hash64_with_prefix(self, prefix, items):
        hasher = stable_hasher(*prefix)
        for item in items:
            # Repeated calls continue from the same prefix state.
            assert hasher(item) == stable_hash64(*prefix, item)
