"""Regenerate ``digests.json``: the pinned deterministic outputs.

Usage, from the repository root::

    python3 perfbench/pin.py

Runs one untraced sample per workload and sub-seed of benchmark seeds
``0 .. PINNED_SEEDS-1`` (sub-seeds ``0 .. PINNED_SEEDS*SUBSEEDS-1``) and
writes each sample's digest. Re-pin only for a change that is meant to
alter simulated behaviour, and say so in the change; a speed-only
change must leave every pin as it is.
"""

from __future__ import annotations

import json

from run import HERE, PINNED_SEEDS, SUBSEEDS, WORKLOADS, spawn


def main() -> int:
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in range(PINNED_SEEDS * SUBSEEDS):
            report = spawn(workload, seed, traced=False)
            if report["problems"]:
                raise SystemExit(f"{workload} seed {seed}: {report['problems']}")
            pins[workload][str(seed)] = report["digest"]
            print(workload, seed, report["digest"], flush=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
