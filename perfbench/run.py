"""The repository benchmark: host speed of the simulator and the service.

Usage, from the repository root::

    python3 perfbench/run.py --workload memlink-gcc --seed 1 --seconds 28 --trace 0

A seed stands for ``SUBSEEDS`` input streams: the run's inputs are the
workload built with each sub-seed ``seed * SUBSEEDS + j``. Averaging
over several streams keeps a run's model metrics from hanging on one
stream's data, whose compressibility varies by several percent from
stream to stream.

Every sample runs in a fresh interpreter (``sample.py``), so the
process-wide memo caches of ``repro.util.kernels`` start cold in each
one and no sample measures a program warmed by the one before it. The
run makes rounds of one sample per sub-seed, as many rounds as fit in
``--seconds`` (at least two), and reports medians over all samples;
every sub-seed gets the same number of samples. Each sample's
deterministic outputs are checked against ``digests.json`` when its
sub-seed is pinned there; when none of the run's sub-seeds is, one
untimed sample on a pinned sub-seed is checked first.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each sample of a round twice, untraced then traced,
and reports the per-layer split summed over the traced samples of the
round with the median traced wall time, plus the tracing overhead.

The last line of output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). The exit code is 1 when an output is wrong: a
pinned digest differs, samples of one sub-seed disagree, the program
reported a failed operation, a sample started with warm memo caches,
or a traced layer recorded no call on a workload that exercises it. It
is 2, with no JSON line, when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("memlink-gcc", "memlink-lbm", "serve-gcc", "tier-capacity")
SUBSEEDS = 4
# digests.json pins every sub-seed of benchmark seeds 0 .. PINNED_SEEDS-1.
PINNED_SEEDS = 11
MIN_ROUNDS = 2
SAMPLE_TIMEOUT_S = 120
PROGRAM_SWITCHES = ("REPRO_PURE_PYTHON", "REPRO_OBS")


class SampleCrashed(RuntimeError):
    """The program under test raised, or the sample could not start."""


def spawn(workload: str, seed: int, traced: bool) -> Dict:
    """Run one sample in a fresh interpreter and return its report.

    The program's own switches (pure-Python kernels, observability) are
    cleared, so every sample measures the default configuration.
    """
    env = {key: value for key, value in os.environ.items() if key not in PROGRAM_SWITCHES}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    command = [
        sys.executable, str(HERE / "sample.py"),
        workload, str(seed), "1" if traced else "0", str(spawn_ns),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleCrashed(f"sample timed out after {exc.timeout} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise SampleCrashed(
            f"sample exited with {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (as loadgen's)."""
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


def layer_metrics(traced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of a round of traced samples, from their sums."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    records = flushes = lag_peak = 0
    meta_pct = []
    for report in traced:
        self_s.update(report["spans"]["self_s"])
        calls.update(report["spans"]["calls"])
        records += report["spans"]["flush_records"]
        flushes += report["spans"]["flushes"]
        sample_counters = dict(report["counters"])
        lag_peak = max(lag_peak, sample_counters.pop("replica_lag_peak", 0))
        if "meta_pct" in sample_counters:
            meta_pct.append(sample_counters.pop("meta_pct"))
        counters.update(sample_counters)
    wall_s = sum(report["wall_s"] for report in traced)
    frames = counters["frames"]
    searches = calls["search"]
    lookups = counters["llc_hits"] + counters["llc_misses"]
    metrics = {f"{bucket}.self_s": seconds for bucket, seconds in self_s.items()}
    metrics["wire.encode_s"] = metrics.pop("wire.encode.self_s")
    metrics["wire.decode_s"] = metrics.pop("wire.decode.self_s")
    metrics["serve.flush_s"] = metrics.pop("serve.flush.self_s")
    metrics.update(
        {
            "cache.llc_miss_rate": counters["llc_misses"] / lookups if lookups else 0.0,
            "signature.calls": calls["signature"],
            "search.calls": searches,
            "search.ref_hit_ratio": (
                counters["with_references"] / counters["encodes"] if counters["encodes"] else 0.0
            ),
            "search.data_reads_per_search": counters["data_reads"] / searches if searches else 0.0,
            "compression.calls": calls["compression"],
            "wire.frames": frames,
            "wire.encodes_per_frame": calls["wire.encode"] / frames if frames else 0.0,
            "wire.decodes_per_frame": calls["wire.decode"] / frames if frames else 0.0,
            "state.checkpoints": calls["state"],
            "replica.batches": counters["replica_batches"],
            "replica.lag_peak": lag_peak,
            "serve.records_per_flush": records / flushes if flushes else 0.0,
            "serve.backpressure": counters["backpressure"],
            "tiers.fallbacks": counters["fallbacks"],
            "tiers.meta_pct": statistics.mean(meta_pct) if meta_pct else 0.0,
            "traced_wall_s": wall_s,
            "unattributed_s": wall_s - sum(self_s.values()),
        }
    )
    return metrics


class Run:
    """One invocation: the samples, their checks and the result line."""

    def __init__(self, args: argparse.Namespace, spec: Dict, pins: Dict) -> None:
        self.args = args
        self.spec = spec
        self.pins = pins.get(args.workload, {})
        self.subseeds = [args.seed * SUBSEEDS + j for j in range(SUBSEEDS)]
        self.samples: List[Dict] = []
        self.digests: Dict[int, Dict] = {}
        self.problems: List[str] = []
        self.latency_samples = 0

    def sample(self, seed: int, traced: bool) -> Dict:
        report = spawn(self.args.workload, seed, traced)
        report["subseed"] = seed
        self.samples.append(report)
        for problem in report["problems"]:
            self.problems.append(f"sub-seed {seed}: {problem}")
        if report["memo_entries_at_start"]:
            self.problems.append(
                f"sub-seed {seed}: sample started with {report['memo_entries_at_start']} "
                "memo entries already cached"
            )
        for layer in report.get("missing_layers", ()):
            self.problems.append(f"traced run recorded no call in layer {layer!r}")
        if "digest" not in report:
            return report
        first = self.digests.setdefault(seed, report["digest"])
        if report["digest"] != first:
            self.problems.append(f"sub-seed {seed}: samples disagree: {first} vs {report['digest']}")
        pinned = self.pins.get(str(seed))
        if pinned is not None and report["digest"] != pinned:
            self.problems.append(
                f"sub-seed {seed}: outputs {report['digest']} differ from the pinned {pinned}"
            )
        return report

    def canary(self) -> None:
        """Check that the pins cover the documented sub-seeds. When none
        of the run's sub-seeds is pinned, one untimed sample on a pinned
        sub-seed checks the outputs against a pin."""
        pinned = sorted(int(seed) for seed in self.pins)
        if pinned != list(range(PINNED_SEEDS * SUBSEEDS)):
            self.problems.append(
                f"digests.json does not pin exactly sub-seeds 0..{PINNED_SEEDS * SUBSEEDS - 1} "
                f"for {self.args.workload}"
            )
        if not pinned:
            return
        if not any(str(seed) in self.pins for seed in self.subseeds):
            self.sample(pinned[self.args.seed % len(pinned)], traced=False)

    def round(self) -> List[Dict]:
        reports = []
        for seed in self.subseeds:
            if self.args.trace:
                reports.append(self.sample(seed, traced=False))
            reports.append(self.sample(seed, traced=bool(self.args.trace)))
        return reports

    def measure(self) -> List[List[Dict]]:
        """Rounds of samples filling --seconds (at least MIN_ROUNDS, or
        one when tracing, whose rounds are twice as long)."""
        start = time.monotonic()
        rounds = [self.round()]
        per_round = time.monotonic() - start
        wanted = max(1 if self.args.trace else MIN_ROUNDS, round(self.args.seconds / per_round))
        while len(rounds) < wanted:
            rounds.append(self.round())
        return rounds

    def end_to_end(self, rounds: List[List[Dict]]) -> Dict[str, float]:
        timed = [report for reports in rounds for report in reports]
        if any("digest" not in report for report in timed):
            return {}
        pooled = {"p50_ms": 0.50, "p99_ms": 0.99}
        model = {"eff_ratio", "net_gain"}
        metrics = {
            metric["name"]: statistics.median(report[metric["name"]] for report in timed)
            for metric in self.spec["end_to_end"]
            if metric["name"] not in model and metric["name"] not in pooled
        }
        # Latency percentiles over every access of every timed sample.
        latencies = sorted(ms for report in timed for ms in report["latencies_ms"])
        for name, fraction in pooled.items():
            metrics[name] = percentile(latencies, fraction)
        self.latency_samples = len(latencies)
        # Deterministic per sub-seed: the mean over the run's streams.
        for name in model:
            metrics[name] = statistics.mean(rounds[0][j][name] for j in range(SUBSEEDS))
        return metrics

    def per_layer(self, rounds: List[List[Dict]]) -> Dict[str, float]:
        if any("spans" not in report for reports in rounds for report in reports if report["traced"]):
            return {}
        splits = []
        for reports in rounds:
            traced = [report for report in reports if report["traced"]]
            plain = [report for report in reports if not report["traced"]]
            split = layer_metrics(traced)
            split["trace_overhead_pct"] = 100.0 * (
                split["traced_wall_s"] / sum(report["wall_s"] for report in plain) - 1.0
            )
            splits.append(split)
        splits.sort(key=lambda split: split["traced_wall_s"])
        # Every layer number comes from one round, so they add up.
        layers = splits[(len(splits) - 1) // 2]
        if layers["unattributed_s"] < 0:
            self.problems.append(
                f"layer self times exceed the traced wall time by {-layers['unattributed_s']:.6f} s"
            )
        return {metric["name"]: layers[metric["name"]] for metric in self.spec["per_layer"]}

    def print_table(self, metrics: Dict[str, float], rounds: List[List[Dict]]) -> None:
        kind = "per_layer" if self.args.trace else "end_to_end"
        timed = [report for reports in rounds for report in reports if not report["traced"]]
        print(f"{self.args.workload} seed={self.args.seed} sub-seeds={self.subseeds} "
              f"rounds={len(rounds)} samples={len(timed)} trace={self.args.trace}")
        if self.latency_samples:
            print(f"  latency percentiles over {self.latency_samples} accesses")
        for metric in self.spec[kind]:
            name = metric["name"]
            if name not in metrics:
                continue
            values = [report[name] for report in timed if name in report]
            spread = f"  [min {min(values):.6g}, max {max(values):.6g}]" if values else ""
            print(f"  {name:32s} {metrics[name]:14.6g} {metric['unit']}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "digests.json").read_text())
    run = Run(args, spec, pins)
    try:
        run.canary()
        rounds = run.measure()
    except SampleCrashed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2
    metrics = run.per_layer(rounds) if args.trace else run.end_to_end(rounds)
    run.print_table(metrics, rounds)
    for problem in dict.fromkeys(run.problems):
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    correct = not run.problems and len(metrics) == len(spec[kind])
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(report["attempted"] for report in run.samples),
                "failed": sum(report["failed"] for report in run.samples),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
