"""Multiprogram workload composition (§VI-C).

Two study shapes from the paper:

- **Cooperative** (Fig 15): four copies of the same program, SPECrate
  style — same archetype data structures, independently mutated and
  independently scheduled, so a big shared dictionary finds
  cross-copy similarity.
- **Destructive** (Fig 16 / Table VI): mixes of unrelated programs
  whose interleaved traffic pollutes any stream-shared dictionary.

Programs are interleaved round-robin with deterministic jitter, and
every access is tagged with its program slot so per-program
compression ratios can be measured separately, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.trace.profiles import get_profile
from repro.trace.stream import Access, SharedBackingStore, WorkloadModel
from repro.util.rng import make_rng

#: Table VI — the paper's randomly chosen destructive mixes.
TABLE_VI_MIXES: Dict[str, Tuple[str, str, str, str]] = {
    "MIX0": ("h264ref", "soplex", "hmmer", "bzip2"),
    "MIX1": ("gcc", "gobmk", "gcc", "soplex"),
    "MIX2": ("bzip2", "lbm", "gobmk", "perlbench"),
    "MIX3": ("gcc", "bzip2", "tonto", "cactusADM"),
    "MIX4": ("perlbench", "wrf", "gobmk", "gcc"),
    "MIX5": ("omnetpp", "bzip2", "bzip2", "gobmk"),
    "MIX6": ("gcc", "tonto", "gamess", "cactusADM"),
    "MIX7": ("gcc", "wrf", "gcc", "bzip2"),
}

#: Address-space stride between programs (lines). Large enough that no
#: realistic working set overlaps its neighbour.
PROGRAM_STRIDE_LINES = 1 << 24


@dataclass(frozen=True)
class TaggedAccess:
    """An access plus the program slot that issued it."""

    slot: int
    access: Access


class MultiprogramWorkload:
    """N programs with disjoint address spaces on one shared link."""

    def __init__(
        self,
        benchmark_names: Tuple[str, ...],
        seed: int = 0,
        replicate: bool = False,
    ) -> None:
        """``replicate`` marks SPECrate-style runs: all slots share
        archetypes (copies of one program) but mutate independently.
        Each entry of *benchmark_names* is a profile name or a
        :class:`BenchmarkProfile` (e.g. one with a scaled footprint)."""
        profiles = [
            get_profile(entry) if isinstance(entry, str) else entry
            for entry in benchmark_names
        ]
        self.names = tuple(profile.name for profile in profiles)
        self.workloads: List[WorkloadModel] = []
        for slot, profile in enumerate(profiles):
            self.workloads.append(
                WorkloadModel(
                    profile,
                    seed=seed,
                    addr_base=slot * PROGRAM_STRIDE_LINES,
                    copy_id=slot if replicate else 0,
                )
            )
        self.backing = SharedBackingStore(self.workloads)
        self.seed = seed

    @classmethod
    def replicated(cls, benchmark: str, copies: int = 4, seed: int = 0):
        """Fig 15's Multi4: *copies* instances of one program."""
        return cls((benchmark,) * copies, seed=seed, replicate=True)

    @classmethod
    def table_vi(cls, mix: str, seed: int = 0):
        """A Table VI destructive mix by name (``"MIX0"``–``"MIX7"``)."""
        try:
            names = TABLE_VI_MIXES[mix]
        except KeyError:
            known = ", ".join(sorted(TABLE_VI_MIXES))
            raise ValueError(f"unknown mix {mix!r}; known: {known}") from None
        return cls(names, seed=seed)

    def slot_of(self, line_addr: int) -> int:
        return line_addr // PROGRAM_STRIDE_LINES

    def interleaved(self, per_program: int) -> Iterator[TaggedAccess]:
        """Round-robin interleave with deterministic jitter.

        Programs desynchronize naturally (the jitter occasionally
        lets one slot issue a short burst), matching the observation
        in §VI-C that even identical copies drift apart.
        """
        rng = make_rng(self.seed, "interleave", self.names)
        streams = [
            iter(w.accesses(per_program, stream_id=slot))
            for slot, w in enumerate(self.workloads)
        ]
        live = list(range(len(streams)))
        while live:
            for slot in list(live):
                burst = 1 + (rng.randrange(3) if rng.random() < 0.2 else 0)
                for _ in range(burst):
                    try:
                        access = next(streams[slot])
                    except StopIteration:
                        if slot in live:
                            live.remove(slot)
                        break
                    yield TaggedAccess(slot=slot, access=access)
