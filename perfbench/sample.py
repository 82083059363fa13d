"""One benchmark sample, run in a fresh interpreter.

Usage (``run.py`` starts it; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/sample.py WORKLOAD SEED TRACED SPAWN_NS

``SPAWN_NS`` is the parent's ``CLOCK_MONOTONIC`` reading, in
nanoseconds, taken just before it started this interpreter; the clock
is system-wide, so ``setup_s`` covers interpreter start, imports and
building the simulation or service, up to the first access.

Prints one JSON object on its last line of output. The process exits
non-zero only when the program under test crashed; wrong outputs are
reported in ``failed`` and ``problems``.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from layers import BUCKETS, LayerTracer

KIB = 1024


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Probe:
    """Stamps each access as the program issues it.

    The gap between consecutive stamps is the host time the program
    spent on one access: the per-access latency of the simulators. One
    clock read per access is the only instrumentation in an untraced
    sample.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def calls(self, fn):
        stamps = self.stamps

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return stamped

    def items(self, fn):
        stamps = self.stamps

        def stamped(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stamps.append(time.perf_counter())
                yield item

        return stamped

    def first_ns(self) -> int:
        """CLOCK_MONOTONIC time of the first access."""
        # perf_counter and CLOCK_MONOTONIC share a clock on Linux but
        # not an epoch guarantee elsewhere, so convert through "now".
        offset = monotonic_ns() - time.perf_counter() * 1e9
        return int(self.stamps[0] * 1e9 + offset)

    def latencies_ms(self, end: float) -> List[float]:
        """The per-access gaps, the last one closed at *end*."""
        stamps = self.stamps + [end]
        return [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]


class MemLink:
    """``run_memlink`` on one SPEC profile, scheme ``cable``."""

    ACCESSES = 6000

    def __init__(self, benchmark: str, seed: int) -> None:
        from repro.sim.memlink import MemLinkConfig, MemLinkSimulation

        self.config = MemLinkConfig(
            accesses=self.ACCESSES,
            llc_bytes=128 * KIB,
            l4_bytes=512 * KIB,
            ws_scale=0.125,
            seed=seed,
        )
        self.sim = MemLinkSimulation(benchmark, self.config)
        self.probe = Probe()
        self.sim.pair.access = self.probe.calls(self.sim.pair.access)
        self.result = None
        self.problems: List[str] = []

    def run(self) -> None:
        from repro.core.encoder import DecompressionError

        try:
            self.result = self.sim.run()
        except DecompressionError as exc:
            self.problems.append(f"DecompressionError: {exc}")

    @property
    def attempted(self) -> int:
        return self.config.accesses

    @property
    def failed(self) -> int:
        return len(self.problems)

    def first_access_ns(self) -> int:
        return self.probe.first_ns()

    def latencies_ms(self, end: float) -> List[float]:
        return self.probe.latencies_ms(end)

    def rate(self, wall_s: float) -> float:
        # Every issued access counts, warmup included: the host pays
        # for warmup too.
        return self.config.accesses / wall_s

    def model(self) -> Dict[str, float]:
        r = self.result
        return {
            "eff_ratio": r.effective_ratio,
            "net_gain": r.raw_bits / (r.payload_bits + r.overhead_bits),
        }

    def digest(self) -> Dict[str, object]:
        r = self.result
        return {
            "transfers": r.transfers,
            "payload_bits": r.payload_bits,
            "flits": r.flits,
            "with_references": r.with_references,
            "eff_ratio": r.effective_ratio,
        }

    def counters(self) -> Dict[str, float]:
        sim, r = self.sim, self.result
        encoder = sim.cable.home_encoder.stats
        return {
            "llc_hits": r.llc_hits,
            "llc_misses": r.llc_misses,
            "with_references": encoder["with_references"],
            "encodes": encoder["encodes"],
            "data_reads": sim.home.stats["data_reads"] + sim.remote.stats["data_reads"],
        }


class Serve:
    """``run_loadgen`` against an in-memory ``LinkService``."""

    CLIENTS = 2
    ACCESSES_PER_CLIENT = 1000
    WINDOW = 8

    def __init__(self, seed: int) -> None:
        from repro.replica.plan import ReplicationPolicy
        from repro.serve.client import RemoteClient
        from repro.serve.server import LinkService
        from repro.serve.session import ServeConfig

        self.seed = seed
        self.service = LinkService(ServeConfig(replication=ReplicationPolicy()))
        self.report = None
        self.problems: List[str] = []
        self._first_ns: Optional[int] = None
        self._clients: List[RemoteClient] = []
        client_run = RemoteClient.run

        async def run(client, *args, **kwargs):
            if self._first_ns is None:
                self._first_ns = monotonic_ns()
            self._clients.append(client)
            return await client_run(client, *args, **kwargs)

        RemoteClient.run = run

    def run(self) -> None:
        from repro.serve.loadgen import run_loadgen

        self.report = asyncio.run(
            run_loadgen(
                clients=self.CLIENTS,
                accesses=self.ACCESSES_PER_CLIENT,
                benchmark="gcc",
                seed=self.seed,
                window=self.WINDOW,
                service=self.service,
            )
        )
        report = self.report
        if not report.ok:
            self.problems.append(f"loadgen report not ok: {report.as_dict()}")
        if report.link_failures:
            self.problems.append(f"{report.link_failures} link failures")

    @property
    def attempted(self) -> int:
        return self.CLIENTS * self.ACCESSES_PER_CLIENT

    @property
    def failed(self) -> int:
        r = self.report
        return (r.accesses - r.completed) + r.silent_corruptions + r.link_failures

    def first_access_ns(self) -> int:
        return self._first_ns

    def latencies_ms(self, end: float) -> List[float]:
        # Every ACCESS→RESULT round trip, frames structurally verified
        # by the client: what the loadgen report's percentiles read.
        return [ms for client in self._clients for ms in client.latencies_ms]

    def rate(self, wall_s: float) -> float:
        return self.report.lines_per_s

    def _pairs(self):
        return [session.pair for session in self.service.manager.sessions.values()]

    def model(self) -> Dict[str, float]:
        totals = [pair.totals for pair in self._pairs()]
        raw = sum(t["raw_bits"] for t in totals)
        payload = sum(t["fill_bits"] + t["writeback_bits"] for t in totals)
        overhead = sum(t["overhead_bits"] for t in totals)
        return {"eff_ratio": raw / payload, "net_gain": raw / (payload + overhead)}

    def digest(self) -> Dict[str, object]:
        return {
            "frames": self.report.frames,
            "completed": self.report.completed,
            **self.model(),
        }

    def counters(self) -> Dict[str, float]:
        pairs = self._pairs()
        drain = self.report.drain_report
        return {
            "llc_hits": sum(p.pair.stats["remote_hits"] for p in pairs),
            "llc_misses": sum(p.pair.stats["remote_misses"] for p in pairs),
            "with_references": sum(p.home_encoder.stats["with_references"] for p in pairs),
            "encodes": sum(p.home_encoder.stats["encodes"] for p in pairs),
            "data_reads": sum(
                p.pair.home.stats["data_reads"] + p.pair.remote.stats["data_reads"]
                for p in pairs
            ),
            "frames": drain["frames"],
            "replica_batches": drain["batches_shipped"],
            "replica_lag_peak": drain["replica_lag_peak"],
            "backpressure": self.report.backpressure,
        }


class CapacityTier:
    """``run_capacity_tier("gcc")``: BDI-packed capacity-mode cache."""

    ACCESSES = 12000

    def __init__(self, seed: int) -> None:
        from repro.tiers import CapacityTierConfig
        from repro.tiers.capacity import CapacityTierSimulation

        self.config = CapacityTierConfig(
            cache_bytes=64 * KIB, ws_scale=0.0625, accesses=self.ACCESSES, seed=seed
        )
        self.sim = CapacityTierSimulation("gcc", self.config)
        self.probe = Probe()
        self.sim.workload.accesses = self.probe.items(self.sim.workload.accesses)
        self.result = None
        self.problems: List[str] = []

    def run(self) -> None:
        try:
            self.result = self.sim.run()
        except AssertionError as exc:  # CapacityCache.audit
            self.problems.append(f"capacity audit failed: {exc}")
            return
        if self.result.verify_failures:
            self.problems.append(f"{self.result.verify_failures} verify failures")

    @property
    def attempted(self) -> int:
        return self.config.accesses

    @property
    def failed(self) -> int:
        if self.result is None:
            return 1
        return self.result.verify_failures

    def first_access_ns(self) -> int:
        return self.probe.first_ns()

    def latencies_ms(self, end: float) -> List[float]:
        return self.probe.latencies_ms(end)

    def rate(self, wall_s: float) -> float:
        return self.config.accesses / wall_s

    def model(self) -> Dict[str, float]:
        return {
            "eff_ratio": self.result.effective_ratio,
            "net_gain": self.result.extras["net_gain"],
        }

    def digest(self) -> Dict[str, object]:
        r = self.result
        return {
            "transfers": r.transfers,
            "payload_bits": r.payload_bits,
            "flits": r.flits,
            "fallbacks": r.extras["fallbacks"],
            **self.model(),
        }

    def counters(self) -> Dict[str, float]:
        r = self.result
        return {
            "llc_hits": r.hits,
            "llc_misses": r.misses,
            "fallbacks": r.extras["fallbacks"],
            "meta_pct": r.extras["meta_ovh_pct"],
        }


WORKLOADS = {
    "memlink-gcc": lambda seed: MemLink("gcc", seed),
    "memlink-lbm": lambda seed: MemLink("lbm", seed),
    "serve-gcc": Serve,
    "tier-capacity": CapacityTier,
}


def trace_report(tracer: LayerTracer) -> Dict[str, Dict[str, float]]:
    """Raw span totals of one traced sample (``run.py`` derives the
    per-layer metrics from their sums over a round of samples)."""
    records = flushes = 0
    for sender in tracer.senders():
        records += sender.stats["records"]
        flushes += sender.stats["flushes"]
    return {
        "self_s": {bucket: tracer.self_s[bucket] for bucket in BUCKETS},
        "calls": {bucket: tracer.calls[bucket] for bucket in BUCKETS},
        "flush_records": records,
        "flushes": flushes,
    }


def main(argv: List[str]) -> int:
    workload_name, seed, traced, spawn_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    # Sample order must not bias the result: the process-wide memos
    # live as long as the interpreter, so they must be empty when the
    # sample starts (a memo restored at import would show here).
    from repro.util import kernels

    memos = (kernels.line_words, kernels.trivial_mask, kernels.line_match_mask)
    memo_entries_at_start = sum(memo.cache_info().currsize for memo in memos)
    tracer = None
    if traced:
        # Import every layer first, so the wrappers must reach the names
        # those modules imported, then wrap before the workload is
        # built: constructors capture bound methods (InclusivePair keeps
        # the backing store's read and write).
        import repro.serve.loadgen  # noqa: F401
        import repro.sim.memlink  # noqa: F401
        import repro.tiers.capacity  # noqa: F401

        tracer = LayerTracer()
        tracer.install()
    workload = WORKLOADS[workload_name](seed)
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    workload.run()
    end = time.perf_counter()
    wall_s = end - start
    out: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "memo_entries_at_start": memo_entries_at_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": wall_s,
    }
    if not workload.problems:
        out.update(
            {
                "setup_s": (workload.first_access_ns() - spawn_ns) / 1e9,
                "accesses_per_s": workload.rate(wall_s),
                "latencies_ms": workload.latencies_ms(end),
                "digest": workload.digest(),
                **workload.model(),
            }
        )
        if tracer is not None:
            out["counters"] = workload.counters()
            out["spans"] = trace_report(tracer)
            out["missing_layers"] = tracer.missing(workload_name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
