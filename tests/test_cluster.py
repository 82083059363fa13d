"""The cluster layer (repro.serve.cluster) and cross-process shipping.

Unit coverage for the sharding substrate: the consistent-hash ring and
sticky directory, the SHIP_* replica-stream codecs (round-trip + CRC
damage rejected whole), the shipper→standby-host flow over a loopback
channel (seed, batches, store tee, gap → catch-up, promotion), the
typed session-admission errors, drain arriving while a shadow is
mid-``catching_up`` — and one end-to-end two-worker cluster where a
SIGKILL'd worker's session resumes on its buddy through the router.
"""

import asyncio
import contextlib

import pytest

from repro.core.errors import (
    BatchIntegrityError,
    DuplicateSessionTagError,
    SessionAdmissionError,
    SessionLimitError,
)
from repro.replica.remote import (
    SHIP_BATCH,
    SHIP_SEED,
    SHIP_STORE,
    SessionShipper,
    StandbySessionHost,
    decode_catchup_req,
    decode_hello,
    decode_mark,
    decode_seed,
    decode_ship_batch,
    decode_ship_store,
    encode_catchup_req,
    encode_hello,
    encode_mark,
    encode_seed,
    encode_ship_batch,
    encode_ship_store,
)
from repro.serve.client import RemoteClient, SessionRejected
from repro.serve.cluster.config import ClusterConfig
from repro.serve.cluster.ring import HashRing, SessionDirectory
from repro.serve.cluster.supervisor import ClusterService
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig, Session, SessionManager
from repro.trace.stream import WorkloadModel

SOURCE = 3  # the shipping worker's id in loopback tests


def flip(payload: bytes, pos: int = 5) -> bytes:
    pos %= len(payload)
    return payload[:pos] + bytes([payload[pos] ^ 0x20]) + payload[pos + 1 :]


# ---------------------------------------------------------------------------
# Ring + directory
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_placement_is_stable_across_instances(self):
        # blake2b-based points: two rings with the same nodes agree —
        # the property that lets supervisor and tests reason about
        # placement without sharing state.
        a, b = HashRing(), HashRing()
        for node in range(5):
            a.add(node)
            b.add(node)
        assert [a.lookup(k) for k in range(256)] == [
            b.lookup(k) for k in range(256)
        ]

    def test_remove_only_moves_the_removed_nodes_keys(self):
        ring = HashRing()
        for node in range(5):
            ring.add(node)
        before = {k: ring.lookup(k) for k in range(512)}
        ring.remove(2)
        for key, owner in before.items():
            if owner != 2:
                assert ring.lookup(key) == owner
            else:
                assert ring.lookup(key) != 2

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().lookup(1)

    def test_add_is_idempotent(self):
        ring = HashRing()
        ring.add(1)
        points = len(ring._points)
        ring.add(1)
        assert len(ring._points) == points


class TestSessionDirectory:
    def test_placement_is_sticky_across_ring_changes(self):
        directory = SessionDirectory()
        for node in range(3):
            directory.ring.add(node)
        owners = {tag: directory.lookup(tag) for tag in range(64)}
        # A new worker joining must NOT reshard live sessions: their
        # journals shipped to a buddy chosen from the old placement.
        directory.ring.add(99)
        for tag, owner in owners.items():
            assert directory.lookup(tag) == owner

    def test_freeze_blocks_reassign_unblocks(self):
        directory = SessionDirectory()
        directory.ring.add(0)
        directory.ring.add(1)
        tag = 42
        victim = directory.lookup(tag)
        buddy = 1 - victim
        directory.freeze([tag])
        with pytest.raises(LookupError):
            directory.lookup(tag)
        directory.reassign([tag], buddy)
        assert directory.lookup(tag) == buddy
        assert directory.stats["reassignments"] == 1
        assert tag in directory.tags_of(buddy)


# ---------------------------------------------------------------------------
# SHIP_* codecs
# ---------------------------------------------------------------------------


class TestShipCodecs:
    def test_hello_roundtrip_and_damage(self):
        payload = encode_hello(7)
        assert decode_hello(payload) == 7
        with pytest.raises(BatchIntegrityError):
            decode_hello(flip(payload))

    def test_mark_roundtrip_and_damage(self):
        payload = encode_mark(0xDEADBEEF)
        assert decode_mark(payload) == 0xDEADBEEF
        with pytest.raises(BatchIntegrityError):
            decode_mark(flip(payload))

    def test_seed_roundtrip_and_damage(self):
        store = {0x40: b"\xaa" * 64, 0x80: b"\xbb" * 64}
        sides = {
            "home": ((3, 17), b"home-blob"),
            "remote": ((2, 9), b"remote-blob"),
        }
        payload = encode_seed(0xBEEF, store, sides)
        tag, got_store, got_sides = decode_seed(payload)
        assert (tag, got_store, got_sides) == (0xBEEF, store, sides)
        for pos in (3, len(payload) // 2, len(payload) - 2):
            with pytest.raises(BatchIntegrityError):
                decode_seed(flip(payload, pos))
        with pytest.raises(BatchIntegrityError):
            decode_seed(payload[: len(payload) // 2])

    def test_batch_store_req_roundtrip_and_damage(self):
        batch = encode_ship_batch(0xC0DE, "remote", b"blob-bytes")
        assert decode_ship_batch(batch) == (0xC0DE, "remote", b"blob-bytes")
        with pytest.raises(BatchIntegrityError):
            decode_ship_batch(flip(batch))
        store = encode_ship_store(0xC0DE, 0x1040, b"\xcc" * 64)
        assert decode_ship_store(store) == (0xC0DE, 0x1040, b"\xcc" * 64)
        with pytest.raises(BatchIntegrityError):
            decode_ship_store(flip(store))
        req = encode_catchup_req(0xC0DE, "home")
        assert decode_catchup_req(req) == (0xC0DE, "home")
        with pytest.raises(BatchIntegrityError):
            decode_catchup_req(flip(req))


# ---------------------------------------------------------------------------
# Shipper → standby host over a loopback channel
# ---------------------------------------------------------------------------


class _Loopback:
    """In-process ship channel with per-channel drop/corrupt hooks."""

    def __init__(self, host: StandbySessionHost, source: int = SOURCE) -> None:
        self.host = host
        self.source = source
        self.drop_batches = 0  # drop the next N SHIP_BATCH records
        self.sent = []

    def __call__(self, channel: int, payload: bytes) -> None:
        self.sent.append(channel)
        if channel == SHIP_BATCH and self.drop_batches > 0:
            self.drop_batches -= 1
            return
        self.host.handle_record(self.source, channel, payload)


def make_shipped_session(tag=0x51, requests=None):
    """A live session shipping to a loopback StandbySessionHost."""
    config = ServeConfig()
    session = Session(1, tag, config)
    host = StandbySessionHost(
        config,
        request_catchup=(
            None
            if requests is None
            else lambda src, ch, payload: requests.append(
                (src, decode_catchup_req(payload))
            )
        ),
    )
    channel = _Loopback(host)
    shipper = SessionShipper(session, channel)
    return session, shipper, host, channel


def drive(session, count, seed=0, writes=True):
    """Run *count* accesses straight through the pair (no transport)."""
    workload = WorkloadModel("gcc", seed=seed)
    for access in workload.accesses(count, stream_id=seed):
        data = access.write_data if access.is_write and writes else None
        session.pair.access(
            access.line_addr, is_write=access.is_write, write_data=data
        )


class TestShipperHostFlow:
    def test_seed_then_batches_apply(self):
        session, shipper, host, _ = make_shipped_session()
        assert shipper.stats["seeds"] == 1
        assert host.stats["seeds_applied"] == 1
        drive(session, 24)
        shipper.pump(force=True)
        shadow = host.shadows[0x51]
        assert host.stats["batches_applied"] == shipper.stats["batches_shipped"]
        assert host.stats["records_applied"] == shipper.stats["records_shipped"]
        for side in ("home", "remote"):
            assert shadow.standbys[side].state == "standby"

    def test_store_writes_reach_the_shadow(self):
        session, shipper, host, _ = make_shipped_session()
        # The store tee fires on real writebacks (dirty evictions), so
        # keep driving distinct streams until one lands.
        for seed in range(8):
            drive(session, 64, seed=seed)
            if shipper.stats["store_writes_shipped"]:
                break
        shipper.pump(force=True)
        shadow = host.shadows[0x51]
        assert shipper.stats["store_writes_shipped"] > 0
        assert (
            host.stats["store_writes_applied"]
            == shipper.stats["store_writes_shipped"]
        )
        # Synthetic read-fills stay local (deterministic by tag); what
        # the shadow holds must mirror the primary exactly.
        assert shadow.session.state.store
        for addr, data in shadow.session.state.store.items():
            assert session.state.store[addr] == data

    def test_dropped_batch_flips_to_catching_up_then_heals(self):
        requests = []
        session, shipper, host, channel = make_shipped_session(
            requests=requests
        )
        drive(session, 8)
        shipper.pump(force=True)
        channel.drop_batches = 2  # lose one batch per side
        drive(session, 8, seed=1)
        shipper.pump(force=True)
        drive(session, 8, seed=2)
        shipper.pump(force=True)
        shadow = host.shadows[0x51]
        assert host.stats["gaps_detected"] > 0
        assert any(s.state == "catching_up" for s in shadow.standbys.values())
        assert requests  # the host asked the shipper for a snapshot
        for source, (tag, side) in requests:
            assert (source, tag) == (SOURCE, 0x51)
            shipper.catch_up(side)
        assert host.stats["catch_ups_applied"] == len(requests)
        for side in ("home", "remote"):
            assert shadow.standbys[side].state == "standby"
        # Fully healed: the next pump applies cleanly again.
        drive(session, 8, seed=3)
        before = host.stats["batches_applied"]
        shipper.pump(force=True)
        assert host.stats["batches_applied"] > before

    def test_promotion_adopts_into_a_fresh_manager(self):
        session, shipper, host, _ = make_shipped_session()
        drive(session, 24)
        session.state.drain()  # pump + checkpoint, like a real drain
        progress = session.state.progress()
        promoted = host.promote_worker(SOURCE)
        assert len(promoted) == 1
        assert not host.shadows  # promotion consumes the shadow
        manager = SessionManager(ServeConfig())
        adopted = manager.adopt(promoted[0])
        assert adopted.state.client_tag == 0x51
        # The promoted epoch dominates everything the dead primary
        # granted: the owner's resume HELLO is guaranteed stale.
        assert adopted.state.progress()[0] >= progress[0]
        granted, flags = manager.open(0, 0x51, *progress)
        assert granted is adopted
        # Written-back lines survive the hop (reads must serve the
        # written data, not the synthetic original).
        for addr, data in adopted.state.store.items():
            assert session.state.store[addr] == data

    def test_reset_source_drops_only_that_sources_shadows(self):
        config = ServeConfig()
        host = StandbySessionHost(config)
        for source, tag in ((1, 0xA1), (1, 0xA2), (2, 0xB1)):
            other = Session(1, tag, config)
            SessionShipper(
                other, lambda ch, p, s=source: host.handle_record(s, ch, p)
            )
        assert set(host.shadows) == {0xA1, 0xA2, 0xB1}
        host.reset_source(1)
        assert set(host.shadows) == {0xB1}


class TestDrainDuringCatchUp:
    """DRAIN while a standby side is mid-``catching_up``.

    The pinned contract: a drain on the shipping primary never wedges
    on a catching-up shadow. Either the catch-up is answered — then the
    post-drain snapshot heals the shadow to the primary's full drained
    progress — or it is abandoned outright, and promotion still
    produces an adoptable warm session (``StandbyReplica.promote`` is
    legal from ``catching_up``; data reads never depended on the
    replayed metadata).
    """

    def test_catchup_answered_after_drain_heals_to_full_progress(self):
        requests = []
        session, shipper, host, channel = make_shipped_session(
            requests=requests
        )
        drive(session, 8)
        shipper.pump(force=True)
        channel.drop_batches = 2
        drive(session, 8, seed=1)
        shipper.pump(force=True)
        # The gap is seen when the *next* batch arrives out of sequence.
        drive(session, 8, seed=2)
        shipper.pump(force=True)
        shadow = host.shadows[0x51]
        assert any(s.state == "catching_up" for s in shadow.standbys.values())
        # DRAIN arrives now: the primary settles, force-pumps its
        # backlog (refused by the catching-up sides — counted, never
        # half-applied), checkpoints. Must not raise, must not wedge.
        session.state.drain()
        drained_progress = session.state.progress()
        assert any(s.state == "catching_up" for s in shadow.standbys.values())
        # The deferred catch-up is answered with a post-drain cut: the
        # snapshot subsumes the drained journal, so the shadow lands at
        # the primary's final progress with nothing lost.
        for _source, (_tag, side) in requests:
            shipper.catch_up(side)
        for side in ("home", "remote"):
            assert shadow.standbys[side].state == "standby"
        assert (
            shadow.standbys["home"].applied_progress[0]
            >= drained_progress[0]
        )
        promoted = host.promote_worker(SOURCE)
        assert promoted[0].state.progress()[0] >= drained_progress[0]

    def test_catchup_abandoned_still_promotes_warm(self):
        requests = []
        session, shipper, host, channel = make_shipped_session(
            requests=requests
        )
        drive(session, 16)
        shipper.pump(force=True)
        channel.drop_batches = 1  # wedge exactly one side
        drive(session, 8, seed=1)
        shipper.pump(force=True)
        session.state.drain()
        assert requests  # a catch-up was requested...
        # ...and never answered (the shipping worker is going away).
        promoted = host.promote_worker(SOURCE)
        assert len(promoted) == 1
        manager = SessionManager(ServeConfig())
        adopted = manager.adopt(promoted[0])
        # Warm promotion from catching_up: metadata is stale but data
        # correctness holds — reads serve the shipped store.
        for addr, data in adopted.state.store.items():
            assert session.state.store[addr] == data
        granted, _flags = manager.open(0, 0x51, 0, 0)
        assert granted is adopted


# ---------------------------------------------------------------------------
# Typed session admission (satellite: no asserts on the open path)
# ---------------------------------------------------------------------------


class TestSessionAdmission:
    def test_duplicate_attached_tag_is_typed(self):
        async def scenario():
            service = LinkService(ServeConfig())
            reader, writer = service.connect_memory()
            client = RemoteClient(reader, writer)
            await client.open(client_tag=7)
            manager = service.manager
            with pytest.raises(DuplicateSessionTagError):
                manager.open(0, 7, 0, 0)
            assert manager.stats["rejected_opens"] == 1
            # On the wire the same refusal is a REJECTED flag, so a
            # buggy client cannot crash the service.
            reader2, writer2 = service.connect_memory()
            second = RemoteClient(reader2, writer2)
            with pytest.raises(SessionRejected):
                await second.open(client_tag=7)
            await second.close(keep=False)
            await client.close(keep=True)
            await service.drain()
            await service.stop()

        asyncio.run(scenario())

    def test_detached_tag_resumes_instead_of_erroring(self):
        async def scenario():
            service = LinkService(ServeConfig())
            reader, writer = service.connect_memory()
            client = RemoteClient(reader, writer)
            opened = await client.open(client_tag=9)
            await client.close(keep=True)
            granted, flags = service.manager.open(0, 9, *client.progress)
            assert granted is not None
            assert granted.session_id == opened.session_id
            await service.drain()
            await service.stop()

        asyncio.run(scenario())

    def test_over_limit_open_is_typed(self):
        manager = SessionManager(ServeConfig(max_sessions=1))
        granted, _flags = manager.open(0, 1, 0, 0)
        assert granted is not None
        with pytest.raises(SessionLimitError):
            manager.open(0, 2, 0, 0)
        assert manager.stats["rejected_opens"] == 1

    def test_admission_errors_share_a_base(self):
        # The service maps the whole family onto one REJECTED reply.
        assert issubclass(DuplicateSessionTagError, SessionAdmissionError)
        assert issubclass(SessionLimitError, SessionAdmissionError)

    def test_adopt_conflict_is_typed(self):
        manager = SessionManager(ServeConfig())
        manager.open(0, 5, 0, 0)
        foreign = Session(99, 5, ServeConfig())
        with pytest.raises(DuplicateSessionTagError):
            manager.adopt(foreign)


# ---------------------------------------------------------------------------
# Shipper-setup failures surface in the drain roll-up
# ---------------------------------------------------------------------------


class TestShipSetupFailure:
    def test_failed_shipper_setup_reaches_the_rollup(self, monkeypatch, caplog):
        import types

        from repro.obs.registry import METRICS
        from repro.serve.cluster import worker as worker_mod

        poisoned = 0x2B

        def shipper(session, send):
            if session.state.client_tag == poisoned:
                raise RuntimeError("injected shipper setup failure")
            return SessionShipper(session, send)

        monkeypatch.setattr(worker_mod, "SessionShipper", shipper)
        was_enabled = METRICS.enabled
        METRICS.enable()

        async def scenario():
            # A buddy that accepts the ship link and ignores it; the
            # delivery barrier is not what this test is about.
            buddy = await asyncio.start_server(
                lambda reader, writer: None, "127.0.0.1", 0
            )
            port = buddy.sockets[0].getsockname()[1]
            worker = worker_mod.ClusterWorker(7, "127.0.0.1", 0, ServeConfig())
            sent = []
            worker._ctrl_send = sent.append

            async def barrier(timeout=10.0):
                return True

            worker._ship_barrier = barrier
            for tag in (0x2A, poisoned, 0x2C):
                worker.manager.open(0, tag, 0, 0)
            assert await worker._set_buddy("127.0.0.1", port)
            # The next rebind fails again and is counted again.
            assert await worker._set_buddy("127.0.0.1", port)
            await worker._drain()
            await worker._teardown_ship_link()
            buddy.close()
            await buddy.wait_closed()
            return worker, sent

        try:
            with caplog.at_level("WARNING", logger=worker_mod.__name__):
                worker, sent = asyncio.run(scenario())
            gauge = METRICS.gauge("serve.drain.ship_setup_failures").value
        finally:
            METRICS.reset()
            if not was_enabled:
                METRICS.disable()

        shipped = [
            s.state.client_tag
            for s in worker.manager.sessions.values()
            if s.state.shipper is not None
        ]
        assert sorted(shipped) == [0x2A, 0x2C]
        assert worker.stats["ship_setup_failures"] == 2
        assert gauge == 2
        warnings = [r for r in caplog.records if "0x2b" in r.getMessage()]
        assert len(warnings) == 2
        (drained,) = sent
        assert drained["kind"] == "drained"
        assert drained["report"]["ship_setup_failures"] == 2
        rollup = ClusterService()._merge_reports(
            [types.SimpleNamespace(drain_payload=drained)]
        )
        assert rollup["serve"]["ship_setup_failures"] == 2
        assert rollup["workers"]["ship_setup_failures"] == 2


# ---------------------------------------------------------------------------
# End to end: two workers, one SIGKILL, session resumes on the buddy
# ---------------------------------------------------------------------------


class TestClusterFailover:
    def test_killed_workers_session_resumes_on_buddy(self):
        async def scenario():
            config = ClusterConfig(
                workers=2,
                heartbeat_interval=0.1,
                respawn=False,
                max_sessions=16,
            )
            service = ClusterService(config)
            host, port = await service.start()
            try:
                tag = 0xBEEF
                victim = service.directory.lookup(tag)
                workload = WorkloadModel("gcc", seed=tag)
                plan = list(workload.accesses(24, stream_id=0))
                client = await RemoteClient.connect_tcp(host, port)
                opened = await client.open(0, tag)
                assert not opened.resumed
                completed = await client.run(plan, window=4)
                assert completed == len(plan)
                progress = client.progress
                await client.close(keep=True)
                await asyncio.sleep(0.3)  # let the last flush land

                assert service.kill_worker(victim)
                await service.wait_recoveries(1, timeout=30.0)

                resumed = None
                for _ in range(200):
                    try:
                        client = await RemoteClient.connect_tcp(host, port)
                    except OSError:
                        await asyncio.sleep(0.05)
                        continue
                    try:
                        resumed = await client.open(0, tag, *progress)
                        break
                    except SessionRejected:
                        with contextlib.suppress(Exception):
                            await client.close(keep=False)
                        await asyncio.sleep(0.05)
                # The tag's state survived the kill: this is a resume,
                # not a fresh session (fresh == the journal was lost).
                assert resumed is not None and resumed.resumed
                plan2 = list(workload.accesses(12, stream_id=1))
                completed2 = await client.run(plan2, window=4)
                assert completed2 == len(plan2)
                await client.close(keep=True)
            finally:
                report = await service.drain()
            assert report["supervisor"]["recoveries_crash"] == 1
            assert report["standby"]["promotions"] >= 1
            assert report["serve"]["silent_corruptions"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())


class TestControlPlaneFraming:
    def test_soak_sized_drained_message_fits_the_ctrl_bound(self):
        """A 256-client drained report (worker stats + obs snapshot)
        overruns the 4KB stream default; the control plane must decode
        it (regression: the supervisor's handler died mid-soak and the
        worker's drain was silently lost)."""
        from repro.link.wire import MAX_STREAM_FRAME_BYTES, FrameDecoder
        from repro.serve.cluster.proto import (
            CTRL,
            CTRL_MAX_FRAME_BYTES,
            decode_ctrl,
            encode_ctrl,
        )

        message = {
            "kind": "drained",
            "worker": 7,
            "report": {f"stat_{i}": i for i in range(64)},
            "shipping": {f"ship_{i}": i for i in range(16)},
            "obs": {
                "counters": {f"tier.metric.{i}": i for i in range(400)},
                "gauges": {f"serve.gauge.{i}": float(i) for i in range(100)},
            },
        }
        frame = encode_ctrl(message)
        assert len(frame) > MAX_STREAM_FRAME_BYTES  # the soak regime
        decoder = FrameDecoder(max_frame_bytes=CTRL_MAX_FRAME_BYTES)
        records = decoder.feed(frame)
        assert len(records) == 1
        channel, payload, _bits = records[0]
        assert channel == CTRL
        assert decode_ctrl(payload) == message

    def test_drain_timeout_defaults_to_spawn_timeout(self):
        config = ClusterConfig()
        assert config.drain_timeout == 0.0  # 0 -> spawn_timeout fallback
        soak = ClusterConfig(drain_timeout=192.0)
        assert soak.drain_timeout == 192.0
