"""The link service end to end over in-process byte streams.

Each test runs the full stack — RemoteClient ⇄ stream records ⇄
LinkService ⇄ verified CableLinkPair — over memory pipes (arbitrary
chunk boundaries, no sockets). The invariants pinned here are the
serving layer's contract:

- every access completes with every frame structurally verified
  client-side (CRC + bit-exact parse + sequence cross-check);
- send queues are bounded: overflow surfaces as RETRY/backpressure,
  never as unbounded buffering or data loss;
- injected wire damage is detected and repaired via NACK/retransmit,
  with zero silent corruptions;
- shutdown is a graceful drain whose final audit is clean.
"""

import asyncio
import hashlib

import pytest

from repro.serve.client import RemoteClient, SessionRejected
from repro.serve.loadgen import client_tag, run_loadgen
from repro.serve.server import LinkService
from repro.serve.session import ServeConfig, synthetic_line
from repro.trace.stream import WorkloadModel


def connect(service):
    reader, writer = service.connect_memory()
    return RemoteClient(reader, writer)


def stream_for(tag, count, stream_id=0, benchmark="gcc"):
    return list(WorkloadModel(benchmark, seed=tag).accesses(count, stream_id))


class TestRoundtrip:
    def test_single_client_completes_all_verified(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            opened = await client.open(client_tag=11)
            assert opened.session_id == 1
            assert not opened.resumed
            accesses = stream_for(11, 64)
            completed = await client.run(accesses, window=8)
            assert completed == len(accesses)
            # Every completion implies every frame passed the client's
            # structural decode; a clean run has no NACK traffic.
            assert client.stats["frames"] >= completed
            assert client.stats["crc_errors"] == 0
            assert client.stats["nacks"] == 0
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["accesses"] == len(accesses)
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_synthetic_backing_store_is_deterministic(self):
        # The server's backing store depends only on (tag, addr): two
        # services given the same client tag serve identical lines —
        # the property the drift checks lean on.
        assert synthetic_line(7, 0x40) == synthetic_line(7, 0x40)
        assert synthetic_line(7, 0x40) != synthetic_line(8, 0x40)

    def test_writes_round_trip_through_home(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=3)
            accesses = stream_for(3, 96, benchmark="omnetpp")
            assert any(a.is_write for a in accesses)
            completed = await client.run(accesses, window=4)
            assert completed == len(accesses)
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["drained_clean"] == 1

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_overflow_is_retry_not_loss(self):
        async def scenario():
            # Burst window wider than the queue: the reader enqueues a
            # whole decoded batch before the worker runs, so overflow
            # is guaranteed, answered with RETRY, and recovered.
            config = ServeConfig(queue_depth=2, retry_after_ms=1)
            service = LinkService(config)
            client = connect(service)
            await client.open(client_tag=5)
            accesses = stream_for(5, 48)
            completed = await client.run(accesses, window=16)
            assert completed == len(accesses)
            assert client.stats["backpressure"] > 0
            assert client.stats["retries"] == client.stats["backpressure"]
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["accesses"] == len(accesses)
            assert report["drained_clean"] == 1

        asyncio.run(scenario())

    def test_session_cap_rejects_open(self):
        async def scenario():
            service = LinkService(ServeConfig(max_sessions=1))
            first = connect(service)
            await first.open(client_tag=1)
            second = connect(service)
            with pytest.raises(SessionRejected):
                await second.open(client_tag=2)
            await second.close()
            await first.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert service.manager.stats["rejected_opens"] == 1
            assert report["drained_clean"] == 1

        asyncio.run(scenario())


class TestFaultRecovery:
    def test_wire_faults_are_nacked_and_retransmitted(self):
        from repro.fault.plan import FaultPlan

        async def scenario():
            config = ServeConfig(faults=FaultPlan.uniform(0.08, seed=901))
            service = LinkService(config)
            client = connect(service)
            await client.open(client_tag=17)
            accesses = stream_for(17, 80)
            completed = await client.run(accesses, window=8)
            assert completed == len(accesses)
            assert client.stats["nacks"] > 0
            await client.close(keep=True)
            report = await service.drain()
            await service.stop()
            assert report["retransmits"] > 0
            assert report["silent_corruptions"] == 0
            assert report["audit_failures"] == 0

        asyncio.run(scenario())


class TestGracefulDrain:
    def test_drain_rejects_new_sessions(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=9)
            await client.run(stream_for(9, 8), window=4)
            await client.close(keep=True)
            await service.drain()
            late = connect(service)
            with pytest.raises(SessionRejected):
                await late.open(client_tag=10)
            await late.close()
            await service.stop()

        asyncio.run(scenario())

    def test_drain_is_idempotent_and_checkpointed(self):
        async def scenario():
            service = LinkService(ServeConfig())
            client = connect(service)
            await client.open(client_tag=2)
            await client.run(stream_for(2, 24), window=4)
            await client.close(keep=True)
            first = await service.drain()
            second = await service.drain()
            await service.stop()
            assert first["drained_clean"] == 1
            # Draining twice re-audits the same checkpointed state.
            assert second["audit_failures"] == 0

        asyncio.run(scenario())


class TestLoadgen:
    def test_loadgen_report_rolls_up_clients(self):
        async def scenario():
            service = LinkService(ServeConfig())
            report = await run_loadgen(
                clients=4, accesses=24, service=service, seed=77
            )
            assert report.ok
            assert report.completed == 4 * 24
            assert report.sessions_peak == 4
            assert report.p99_ms >= report.p50_ms > 0

        asyncio.run(scenario())

    def test_poisoned_access_fails_loudly_not_forever(self, monkeypatch):
        """An access whose processing raises is answered with a
        server-error RESULT: the client stops waiting for it, the run
        finishes, and every roll-up names the failure."""
        from repro.serve import session as session_module

        original = session_module.Session._process

        def poisoned(self, index, addr, is_write, data):
            if index == 7:
                raise RuntimeError("poisoned access")
            return original(self, index, addr, is_write, data)

        monkeypatch.setattr(session_module.Session, "_process", poisoned)

        async def scenario():
            service = LinkService(ServeConfig())
            return await asyncio.wait_for(
                run_loadgen(clients=1, accesses=20, service=service, seed=3),
                timeout=20,
            )

        report = asyncio.run(scenario())
        assert report.completed == 19
        assert report.server_errors == 1
        assert not report.ok
        assert report.drain_report["worker_errors"] == 1
        assert report.audit_ok
        assert report.as_dict()["server_errors"] == 1

    def test_client_tags_are_deterministic(self):
        tags = [client_tag(123, i) for i in range(8)]
        assert tags == [client_tag(123, i) for i in range(8)]
        assert len(set(tags)) == 8

    def test_loadgen_cli_memory_mode(self, capsys):
        from repro.serve.loadgen import main

        assert main(["--memory", "--clients", "2", "--accesses", "12"]) == 0
        out = capsys.readouterr().out
        assert "completed: 24" in out
        assert "drained_clean: True" in out


class TestRetransmitWindow:
    class _Sender:
        def __init__(self):
            self.records = []

        def send(self, record):
            self.records.append(record)

    def _session(self, window):
        from repro.core.payload import Payload, PayloadKind
        from repro.serve.session import Session

        session = Session(1, 0x77, ServeConfig(retransmit_window=window))
        for index in range(5):
            payload = Payload(
                kind=PayloadKind.UNCOMPRESSED,
                line_addr=index,
                line_bytes=64,
                raw=bytes([index]) * 64,
            )
            session._ship_frame(index, 0, "fill", payload)  # detached: kept
        return session

    def test_eviction_is_oldest_first(self):
        session = self._session(window=3)
        assert list(session.window) == [(2, 0), (3, 0), (4, 0)]
        assert session.stats["frames"] == 5

    def test_nack_for_an_evicted_frame_is_counted_not_answered(self):
        session = self._session(window=3)
        sender = session.sender = self._Sender()
        assert not session.retransmit(0, 0)
        assert session.stats["nacks"] == 1 and session.stats["retransmits"] == 0
        assert sender.records == []
        assert session.retransmit(4, 0)
        assert session.stats["nacks"] == 2 and session.stats["retransmits"] == 1
        assert len(sender.records) == 1

def _shipped_frames_digest(monkeypatch) -> str:
    """SHA-256 over every frame the clients receive (bytes and bit
    count, keyed by access and position) in a small replicated run."""
    from repro.replica.plan import ReplicationPolicy
    from repro.serve import protocol

    frames = {}
    original = RemoteClient._handle

    async def handle(self, record, pending):
        channel, payload, bits = record
        if channel == protocol.MSG_FRAME:
            index, direction, pos, seq, frame_bytes, frame_bits = (
                protocol.decode_frame_record(payload, bits)
            )
            frames.setdefault(id(self), []).append(
                (index, pos, direction, seq, frame_bits, frame_bytes)
            )
        return await original(self, record, pending)

    monkeypatch.setattr(RemoteClient, "_handle", handle)

    async def scenario():
        service = LinkService(ServeConfig(replication=ReplicationPolicy()))
        return await run_loadgen(
            clients=2, accesses=300, benchmark="gcc", seed=0, service=service
        )

    report = asyncio.run(scenario())
    assert report.ok and report.nacks == 0
    per_client = []
    for received in frames.values():
        h = hashlib.sha256()
        for index, pos, direction, seq, frame_bits, frame_bytes in sorted(received):
            h.update(repr((index, pos, direction, seq, frame_bits)).encode())
            h.update(frame_bytes)
        per_client.append(h.hexdigest())
    # Clients finish in any order; each one's stream is deterministic.
    return hashlib.sha256("".join(sorted(per_client)).encode()).hexdigest()


#: Pinned before the serve codec path was reworked: the frames a client
#: receives must stay bit-identical.
FRAMES_DIGEST = "6b59f9b8f9e0adb3b7df18ed991caff6a40319229c5ae45aa29eedb967154d63"


def test_shipped_frames_are_pinned(monkeypatch):
    assert _shipped_frames_digest(monkeypatch) == FRAMES_DIGEST


def test_each_shipped_payload_is_serialised_once(monkeypatch):
    # The framed link's serialisation of a payload is handed to the
    # session, so a frame costs one body encode, not two.
    from repro.link import wire
    from repro.replica.plan import ReplicationPolicy

    encodes = []
    for name in ("encode_payload", "encode_oracle_hybrid_lbe"):
        original = getattr(wire, name)

        def counted(*args, _original=original, **kwargs):
            encodes.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(wire, name, counted)

    async def scenario():
        service = LinkService(ServeConfig(replication=ReplicationPolicy()))
        return await run_loadgen(
            clients=2, accesses=100, benchmark="gcc", seed=0, service=service
        )

    report = asyncio.run(scenario())
    assert report.ok and report.frames > 0
    assert len(encodes) == report.frames


class TestObservability:
    @pytest.fixture
    def metrics(self):
        from repro.obs.registry import METRICS

        was_enabled = METRICS.enabled
        METRICS.enable()
        try:
            yield METRICS
        finally:
            METRICS.reset()
            if not was_enabled:
                METRICS.disable()

    def test_serve_counters_record_a_run(self, metrics):
        async def scenario():
            service = LinkService(ServeConfig())
            report = await run_loadgen(
                clients=2, accesses=16, service=service, seed=5
            )
            assert report.ok

        asyncio.run(scenario())
        assert metrics.counter("serve.sessions_opened").value == 2
        assert metrics.counter("serve.accesses").value == 32
        assert metrics.counter("serve.frames_sent").value >= 32
        assert metrics.counter("serve.writer_flushes").value > 0
        assert metrics.histogram("serve.queue_depth").count > 0
        assert metrics.histogram("serve.rtt_us").count == 32
        assert metrics.counter("serve.drains").value == 1
