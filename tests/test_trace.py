"""Workload substrate: patterns, profiles, streams, mixes."""

import hashlib

import pytest

from repro.sim.memlink import scale_profile
from repro.trace.mixes import (
    PROGRAM_STRIDE_LINES,
    TABLE_VI_MIXES,
    MultiprogramWorkload,
)
from repro.trace.patterns import (
    PATTERN_GENERATORS,
    family_member,
    mutate_line,
    shift_line,
)
from repro.trace.profiles import (
    ALL_BENCHMARKS,
    NON_TRIVIAL,
    SPEC2006,
    TIER_BENCHMARKS,
    ZERO_DOMINANT,
    get_profile,
)
from repro.trace.stream import SharedBackingStore, WorkloadModel
from repro.util.rng import make_rng
from repro.util.words import line_zero_fraction


class TestPatterns:
    @pytest.mark.parametrize("name", sorted(PATTERN_GENERATORS))
    def test_generators_produce_64_bytes(self, name):
        rng = make_rng(0, name)
        for _ in range(20):
            assert len(PATTERN_GENERATORS[name](rng)) == 64

    def test_zero_generator(self):
        assert PATTERN_GENERATORS["zero"](make_rng(0)) == b"\x00" * 64

    def test_mutate_bounded(self):
        rng = make_rng(1)
        base = bytes(range(64))
        mutated = mutate_line(base, rng, 2)
        diffs = sum(
            1
            for i in range(16)
            if mutated[i * 4 : i * 4 + 4] != base[i * 4 : i * 4 + 4]
        )
        assert diffs <= 2

    def test_mutate_zero_edits_identity(self):
        base = bytes(range(64))
        assert mutate_line(base, make_rng(2), 0) == base

    def test_shift_line(self):
        base = bytes(range(64))
        assert shift_line(base, 0) == base
        shifted = shift_line(base, 3)
        assert shifted[3:] == base[:-3]
        assert len(shifted) == 64

    def test_family_members_similar(self):
        rng = make_rng(3)
        archetype = PATTERN_GENERATORS["struct"](rng)
        a = family_member(
            archetype, make_rng(42, "family-member", 1), word_edits=1, shift_prob=0.0
        )
        b = family_member(
            archetype, make_rng(42, "family-member", 2), word_edits=1, shift_prob=0.0
        )
        matches = sum(
            1 for i in range(16) if a[i * 4 : i * 4 + 4] == b[i * 4 : i * 4 + 4]
        )
        assert matches >= 14

    def test_family_members_deterministic(self):
        rng = make_rng(4)
        archetype = PATTERN_GENERATORS["float"](rng)
        assert family_member(
            archetype, make_rng(7, "family-member", 9), 2, 0.1
        ) == family_member(archetype, make_rng(7, "family-member", 9), 2, 0.1)


class TestProfiles:
    def test_all_29_benchmarks(self):
        assert len(SPEC2006) == 29
        assert len(NON_TRIVIAL) + len(ZERO_DOMINANT) == 29

    def test_known_groups(self):
        assert "mcf" in ZERO_DOMINANT
        assert "lbm" in ZERO_DOMINANT
        assert "dealII" in NON_TRIVIAL
        assert "povray" in NON_TRIVIAL

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_profile_sanity(self, name):
        profile = get_profile(name)
        assert 0 < profile.family_weight <= 1
        assert 0 <= profile.write_fraction < 1
        assert 0 <= profile.locality < 1
        assert profile.llc_apki > 0
        assert profile.family_count >= 1
        assert abs(sum(profile.pattern_weights.values()) - 1.0) < 0.05
        assert all(
            key in PATTERN_GENERATORS for key in profile.pattern_weights
        )

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            get_profile("nosuchbench")

    def test_scale_profile(self):
        profile = get_profile("gcc")
        scaled = scale_profile(profile, 0.125)
        assert scaled.working_set_lines == profile.working_set_lines // 8
        assert scaled.members_per_family == profile.members_per_family


class TestWorkloadModel:
    def test_content_deterministic(self):
        a = WorkloadModel("gcc", seed=5)
        b = WorkloadModel("gcc", seed=5)
        for addr in range(50):
            assert a.initial_content(addr) == b.initial_content(addr)

    def test_seed_changes_content(self):
        a = WorkloadModel("gcc", seed=5)
        b = WorkloadModel("gcc", seed=6)
        assert any(
            a.initial_content(addr) != b.initial_content(addr) for addr in range(20)
        )

    def test_zero_dominant_content(self):
        model = WorkloadModel("libquantum", seed=1)
        zero_frac = sum(
            line_zero_fraction(model.initial_content(a)) for a in range(200)
        ) / 200
        assert zero_frac > 0.7

    def test_stream_respects_write_fraction(self):
        model = WorkloadModel("gcc", seed=2)
        accesses = list(model.accesses(2000))
        writes = sum(1 for a in accesses if a.is_write)
        expected = get_profile("gcc").write_fraction
        assert abs(writes / 2000 - expected) < 0.05

    def test_writes_update_logical_view(self):
        model = WorkloadModel("gcc", seed=3)
        for access in model.accesses(500):
            if access.is_write:
                assert model.current_content(access.line_addr) == access.write_data
                break
        else:
            pytest.fail("no write generated")

    def test_addresses_in_working_set(self):
        model = WorkloadModel("povray", seed=4, addr_base=1000)
        ws = model.profile.working_set_lines
        for access in model.accesses(500):
            assert 1000 <= access.line_addr < 1000 + ws
            assert model.owns(access.line_addr)

    def test_initial_content_is_memoized(self):
        model = WorkloadModel("gcc", seed=5)
        fresh = WorkloadModel("gcc", seed=5)
        first = [model.initial_content(addr) for addr in range(64)]
        assert all(
            model.initial_content(addr) is line for addr, line in enumerate(first)
        )
        # Writes through the stream change the logical view only.
        for access in model.accesses(3000):
            if access.is_write:
                assert model.initial_content(access.line_addr) == (
                    fresh.initial_content(access.line_addr)
                )
        assert [model.initial_content(addr) for addr in range(64)] == first
        assert any(
            model.current_content(addr) != model.initial_content(addr)
            for addr in model._written
        )

    def test_stream_deterministic_per_id(self):
        model = WorkloadModel("gcc", seed=5)
        first = [a.line_addr for a in model.accesses(100, stream_id=0)]
        model2 = WorkloadModel("gcc", seed=5)
        again = [a.line_addr for a in model2.accesses(100, stream_id=0)]
        other = [a.line_addr for a in model2.accesses(100, stream_id=1)]
        assert first == again
        assert first != other


class TestMixes:
    def test_table_vi_contents(self):
        assert len(TABLE_VI_MIXES) == 8
        assert TABLE_VI_MIXES["MIX5"] == ("omnetpp", "bzip2", "bzip2", "gobmk")

    def test_disjoint_address_spaces(self):
        mix = MultiprogramWorkload.table_vi("MIX0")
        seen_slots = set()
        for tagged in mix.interleaved(50):
            slot = mix.slot_of(tagged.access.line_addr)
            assert slot == tagged.slot
            seen_slots.add(slot)
        assert seen_slots == {0, 1, 2, 3}

    def test_replicated_share_archetypes(self):
        mix = MultiprogramWorkload.replicated("gcc", copies=2, seed=1)
        a, b = mix.workloads
        # Same family archetype content at mirrored offsets is likely
        # for family lines; check via direct archetype access.
        assert a._archetype(0) == b._archetype(0)

    def test_replicated_copies_differ_in_details(self):
        mix = MultiprogramWorkload.replicated("gcc", copies=2, seed=1)
        a, b = mix.workloads
        diffs = sum(
            1
            for off in range(100)
            if a.initial_content(a.addr_base + off)
            != b.initial_content(b.addr_base + off)
        )
        assert diffs > 0

    def test_interleave_complete_and_fair(self):
        mix = MultiprogramWorkload.table_vi("MIX1")
        counts = {}
        for tagged in mix.interleaved(200):
            counts[tagged.slot] = counts.get(tagged.slot, 0) + 1
        assert all(count == 200 for count in counts.values())

    def test_backing_store_routes_by_owner(self):
        mix = MultiprogramWorkload.table_vi("MIX2")
        store = mix.backing
        data = store.read(PROGRAM_STRIDE_LINES + 5)  # slot 1's space
        assert data == mix.workloads[1].initial_content(PROGRAM_STRIDE_LINES + 5)
        with pytest.raises(KeyError):
            store.read(10 * PROGRAM_STRIDE_LINES)

    def test_unknown_mix(self):
        with pytest.raises(ValueError):
            MultiprogramWorkload.table_vi("MIX9")


class TestSparseFiberArchetype:
    """The irregular sparse-fiber reuse archetype (ISSUE 10 satellite)."""

    def test_registered(self):
        assert "fiber" in PATTERN_GENERATORS

    def test_seeded_determinism(self):
        # Identical rng context -> byte-identical fibers, across fresh
        # rng instances (the property every profile leans on).
        lines_a = [
            PATTERN_GENERATORS["fiber"](make_rng(7, "fiber", i)) for i in range(32)
        ]
        lines_b = [
            PATTERN_GENERATORS["fiber"](make_rng(7, "fiber", i)) for i in range(32)
        ]
        assert lines_a == lines_b
        # Different seeds diverge (the generator isn't degenerate).
        lines_c = [
            PATTERN_GENERATORS["fiber"](make_rng(8, "fiber", i)) for i in range(32)
        ]
        assert lines_a != lines_c

    def test_fiber_shape(self):
        # Struct-of-arrays within the line: an ascending non-zero
        # coordinate run in the first half, matching value population
        # in the second, zero tails on both.
        import struct

        for i in range(64):
            line = PATTERN_GENERATORS["fiber"](make_rng(3, "shape", i))
            words = struct.unpack("<16I", line)
            coords, values = words[:8], words[8:]
            nnz = sum(1 for c in coords if c)
            assert 3 <= nnz <= 8
            populated = list(coords[:nnz])
            assert populated == sorted(populated)  # ascending indices
            assert all(c == 0 for c in coords[nnz:])  # zero tail
            assert all(v == 0 for v in values[nnz:])

    def test_tier_profiles_registered(self):
        from repro.trace.profiles import EXTRA_PROFILES, TIER_BENCHMARKS

        assert TIER_BENCHMARKS == ("spgemm", "spmv")
        for name in TIER_BENCHMARKS:
            profile = get_profile(name)
            assert profile is EXTRA_PROFILES[name]
            assert "fiber" in profile.pattern_weights
        # The extra registry must not leak into the SPEC sweep set:
        # every full-suite figure iterates ALL_BENCHMARKS.
        assert not set(TIER_BENCHMARKS) & set(ALL_BENCHMARKS)
        with pytest.raises(ValueError):
            get_profile("nosuchbench")

    def test_usable_by_old_scenarios(self):
        # The tier profiles drive the existing memory-link scenario
        # unchanged (the archetype is not tiers-only).
        from repro.sim.memlink import MemLinkConfig, run_memlink

        result = run_memlink(
            "spmv",
            MemLinkConfig(
                accesses=600,
                llc_bytes=16 * 1024,
                l4_bytes=64 * 1024,
                ws_scale=16 * 1024 / (1024 * 1024),
            ),
        )
        assert result.transfers > 0
        assert result.raw_ratio > 1.0


def _trace_digest() -> str:
    """SHA-256 over everything the trace generator emits: initial
    content for every profile and copy, access streams (with their
    write data) under one and four phases, and a Table VI interleave
    read back through the shared backing store."""
    h = hashlib.sha256()
    base = 0x5A5A0
    for name in ALL_BENCHMARKS + TIER_BENCHMARKS:
        for copy_id in (0, 1):
            model = WorkloadModel(name, seed=7, addr_base=base, copy_id=copy_id)
            for offset in range(512):
                h.update(model.initial_content(base + offset))
    for name in ("gcc", "lbm", "spmv"):
        # One model serves both phase counts, so the second stream runs
        # over the first one's writes.
        model = WorkloadModel(name, seed=3)
        touched = []
        for phases in (1, 4):
            for access in model.accesses(2000, phases=phases):
                touched.append(access.line_addr)
                h.update(access.line_addr.to_bytes(8, "big"))
                h.update(b"W" if access.is_write else b"R")
                h.update(access.write_data or b"")
        for addr in touched:
            h.update(model.initial_content(addr))
            h.update(model.current_content(addr))
    mix = MultiprogramWorkload.table_vi("MIX2", seed=5)
    for tagged in mix.interleaved(300):
        access = tagged.access
        h.update(bytes([tagged.slot]))
        h.update(access.line_addr.to_bytes(8, "big"))
        h.update(access.write_data or mix.backing.read(access.line_addr))
    return h.hexdigest()


#: Pinned before any change to the generator: every optimisation of
#: :class:`WorkloadModel` must leave its output byte-identical.
TRACE_DIGEST = "9812aeea95bbc4ee9d9ab7542148a8d7decc0f7a275f598f5f1e7b9b233f9ebc"


def test_trace_generator_output_is_pinned():
    assert _trace_digest() == TRACE_DIGEST
