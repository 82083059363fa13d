#!/usr/bin/env python3
"""Profile the encode hot path under cProfile.

Runs one memory-link simulation (default: mcf/cable at the ``default``
scale preset — the same regime the figure benchmarks use) and prints
the top functions by the chosen sort key. This is the tool that guided
the kernels layer: run it before and after touching anything under
``repro/util/kernels.py``, ``repro/core/signature.py`` or the
compressors, and check the per-line primitives have not crept back up
the profile.

``--serve`` profiles the link service instead: ``run_loadgen`` in the
shape of the ``serve-gcc`` benchmark workload (2 clients x 1,000 gcc
accesses, window 8, an in-memory ``LinkService`` with replication).
``--by-module`` rolls self time up per module instead of listing
functions; built-in (C) calls are charged to the module that called
them, so a ``repro`` module's row is the time its own code costs.

Usage::

    python tools/profile_hotpath.py
    python tools/profile_hotpath.py --benchmark omnetpp --scheme lbe
    python tools/profile_hotpath.py --accesses 20000 --sort cumtime --top 40
    python tools/profile_hotpath.py --serve --by-module
    python tools/profile_hotpath.py --output hotpath.prof
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import pathlib
import pstats
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.base import SCALES, memlink_config  # noqa: E402
from repro.sim.memlink import MemLinkSimulation  # noqa: E402

#: The serve-gcc workload's shape (perfbench's ``Serve`` sample).
SERVE_CLIENTS = 2
SERVE_ACCESSES = 1000
SERVE_WINDOW = 8
SERVE_SEED = 0


def _memlink_workload(args):
    overrides = {"scheme": args.scheme}
    if args.accesses is not None:
        overrides["accesses"] = args.accesses
    simulation = MemLinkSimulation(args.benchmark, memlink_config(args.scale, **overrides))
    return simulation.run


def _serve_workload(args):
    from repro.replica.plan import ReplicationPolicy
    from repro.serve.loadgen import run_loadgen
    from repro.serve.server import LinkService
    from repro.serve.session import ServeConfig

    service = LinkService(ServeConfig(replication=ReplicationPolicy()))
    accesses = args.accesses if args.accesses is not None else SERVE_ACCESSES

    def run():
        report = asyncio.run(
            run_loadgen(
                clients=SERVE_CLIENTS,
                accesses=accesses,
                benchmark=args.benchmark,
                seed=SERVE_SEED,
                window=SERVE_WINDOW,
                service=service,
            )
        )
        if not report.ok:
            raise SystemExit(f"loadgen report not ok: {report.as_dict()}")

    return run


def module_of(filename: str) -> str:
    """Dotted module for a profiled file: ``repro.link.wire`` for
    ``.../src/repro/link/wire.py``; a package or file stem outside
    ``repro`` (``asyncio``, ``random``)."""
    path = pathlib.PurePath(filename)
    parts = path.parts
    if "repro" in parts and path.suffix == ".py":
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = ".".join(parts[start:])[: -len(".py")]
        return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted
    if (pathlib.Path(filename).parent / "__init__.py").exists():
        return path.parent.name
    return path.stem or filename


def self_time_by_module(stats: pstats.Stats) -> List[Tuple[str, float, int]]:
    """``(module, self seconds, calls)`` rows, largest first.

    cProfile files C functions under ``~``; their self time is split
    over their callers by the per-caller times it records."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for (filename, __, __), (__, ncalls, tottime, __, callers) in stats.stats.items():
        if filename != "~":
            module = module_of(filename)
            seconds[module] += tottime
            calls[module] += ncalls
            continue
        for (caller_file, __, __), caller_stats in callers.items():
            module = "(builtins)" if caller_file == "~" else module_of(caller_file)
            seconds[module] += caller_stats[2]
    return sorted(
        ((module, s, calls[module]) for module, s in seconds.items()),
        key=lambda row: -row[1],
    )


def print_by_module(stats: pstats.Stats, top: int) -> None:
    rows = self_time_by_module(stats)
    total = sum(s for __, s, __ in rows) or 1.0
    print(f"{'module':<36} {'self_s':>9} {'share':>7} {'calls':>10}")
    for module, s, ncalls in rows[:top]:
        print(f"{module:<36} {s:9.3f} {100 * s / total:6.1f}% {ncalls:10d}")
    repro = sum(s for module, s, __ in rows if module.startswith("repro"))
    print(f"{'(all repro modules)':<36} {repro:9.3f} {100 * repro / total:6.1f}%")
    print(f"{'(total)':<36} {total:9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=None, help="workload profile name")
    parser.add_argument("--scheme", default="cable", help="link scheme to simulate")
    parser.add_argument(
        "--scale",
        default="default",
        choices=sorted(SCALES),
        help="scale preset (accesses + cache sizes)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="override the preset's accesses (per client with --serve)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="profile run_loadgen in the serve-gcc shape instead of memlink",
    )
    parser.add_argument(
        "--by-module",
        action="store_true",
        help="roll self time up per module instead of listing functions",
    )
    parser.add_argument(
        "--sort",
        default="tottime",
        choices=["tottime", "cumtime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--output",
        default=None,
        help="also dump raw profile data here (for snakeviz/pstats)",
    )
    args = parser.parse_args(argv)
    if args.benchmark is None:
        args.benchmark = "gcc" if args.serve else "mcf"

    run = _serve_workload(args) if args.serve else _memlink_workload(args)
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()

    if args.output:
        profiler.dump_stats(args.output)
        print(f"raw profile written to {args.output}")
    stats = pstats.Stats(profiler)
    if args.by_module:
        print_by_module(stats, args.top)
    else:
        stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
