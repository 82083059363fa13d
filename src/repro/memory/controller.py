"""FCFS memory controller (Table IV: FCFS, closed-page, 4 MCs/chip).

Requests are serviced strictly in arrival order per channel — no
reordering, no row-buffer exploitation (closed-page makes every access
uniform anyway). Addresses interleave across channels at line
granularity, the configuration that enables the paper's silent-eviction
argument for linear interleaving (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.memory.dram import DramChannel, Ddr3Timing


@dataclass(frozen=True)
class MemoryRequest:
    line_addr: int
    arrival_ns: float
    is_write: bool = False


@dataclass
class CompletedRequest:
    request: MemoryRequest
    completion_ns: float

    @property
    def latency_ns(self) -> float:
        return self.completion_ns - self.request.arrival_ns


class FcfsController:
    """First-come-first-served controller over N channels."""

    def __init__(self, channels: int = 4, timing: Ddr3Timing = None) -> None:
        if channels < 1:
            raise ValueError("need at least one channel")
        self.timing = timing or Ddr3Timing()
        self.channels = [DramChannel(timing=self.timing) for _ in range(channels)]
        #: Per-channel clock below which new arrivals must queue
        #: (FCFS: a request cannot start before its predecessor).
        self._last_start: List[int] = [0] * channels

    def channel_of(self, line_addr: int) -> int:
        """Linear line-granularity interleaving (§IV-B)."""
        return line_addr % len(self.channels)

    def service(self, requests: List[MemoryRequest]) -> List[CompletedRequest]:
        """Service a stream of requests (must be in arrival order)."""
        completed: List[CompletedRequest] = []
        clock_hz = self.timing.clock_hz
        for request in requests:
            index = self.channel_of(request.line_addr)
            channel = self.channels[index]
            arrival_clock = int(request.arrival_ns * 1e-9 * clock_hz)
            # FCFS: no request may begin before its queue predecessor.
            start_clock = max(arrival_clock, self._last_start[index])
            # Bank bits sit above the channel bits: consecutive lines
            # on one channel stripe across its banks.
            local_addr = request.line_addr // len(self.channels)
            done = channel.access(local_addr, start_clock)
            self._last_start[index] = start_clock
            completed.append(
                CompletedRequest(
                    request=request,
                    completion_ns=self.timing.clocks_to_ns(done),
                )
            )
        return completed

    # ------------------------------------------------------------------
    # Analytics used by the timing model
    # ------------------------------------------------------------------

    def peak_bandwidth_bytes_per_s(self) -> float:
        return len(self.channels) * self.timing.peak_bandwidth_bytes_per_s

    def average_latency_ns(self, completed: List[CompletedRequest]) -> float:
        if not completed:
            return 0.0
        return sum(c.latency_ns for c in completed) / len(completed)

    def achieved_bandwidth(
        self, completed: List[CompletedRequest], line_bytes: int = 64
    ) -> float:
        """Bytes/s over the span of the serviced stream."""
        if not completed:
            return 0.0
        start = min(c.request.arrival_ns for c in completed)
        end = max(c.completion_ns for c in completed)
        if end <= start:
            return 0.0
        return len(completed) * line_bytes / ((end - start) * 1e-9)
