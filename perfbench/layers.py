"""Per-layer time accounting for the traced benchmark run.

Each layer is timed from outside the program: its public functions are
replaced by wrappers that record one span per call. A span's *self
time* is its duration minus the time of the spans nested inside it, so
the self times of all buckets plus the unattributed remainder add up to
the traced wall time exactly.

Functions imported by name (``from repro.link.wire import
encode_frame``) are looked up in the importing module, not in the one
that defines them, so :meth:`LayerTracer.install` replaces every
module-level binding of a wrapped function across the loaded ``repro``
modules. Methods are replaced on their class, which is where instances
look them up.

Only the traced run installs wrappers; the end-to-end runs never do.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

clock = time.perf_counter

#: (bucket, defining module, qualified name) of every wrapped function.
#: A bucket is one per-layer self-time metric; generator functions are
#: timed per ``next()``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("trace", "repro.trace.stream", "WorkloadModel.accesses"),
    ("trace", "repro.trace.stream", "SharedBackingStore.read"),
    ("trace", "repro.trace.stream", "SharedBackingStore.write"),
    ("trace", "repro.trace.stream", "SharedBackingStore.peek"),
    ("cache", "repro.cache.hierarchy", "InclusivePair.access"),
    ("signature", "repro.core.signature", "SignatureExtractor.index_signatures"),
    ("signature", "repro.core.signature", "SignatureExtractor.search_signatures"),
    ("signature", "repro.core.signature", "SignatureExtractor.warm_batch"),
    ("search", "repro.core.search", "SearchPipeline.search"),
    ("encoder", "repro.core.encoder", "CableHomeEncoder.encode"),
    ("decoder", "repro.core.encoder", "CableRemoteDecoder.decode"),
    ("writeback", "repro.core.encoder", "CableRemoteDecoder.encode_writeback"),
    ("writeback", "repro.core.encoder", "CableHomeEncoder.decode_writeback"),
    ("compression", "repro.compression.lbe", "LbeCompressor.compress_with_references"),
    ("compression", "repro.compression.lbe", "LbeCompressor.decompress_with_references"),
    ("compression", "repro.compression.bdi", "BdiCompressor.compress"),
    ("compression", "repro.compression.bdi", "BdiCompressor.decompress"),
    ("wire.encode", "repro.link.wire", "encode_frame"),
    ("wire.decode", "repro.link.wire", "decode_frame"),
    ("recovery", "repro.link.recovery", "ReliableLink.deliver"),
    ("state", "repro.state.manager", "EndpointStateManager.checkpoint"),
    ("replica", "repro.replica.replicator", "Replicator.pump"),
    ("serve.flush", "repro.serve.transport", "StreamSender.flush"),
    ("tiers", "repro.tiers.capacity", "CapacityCache.lookup"),
    ("tiers", "repro.tiers.capacity", "CapacityCache.install"),
    ("tiers", "repro.tiers.capacity", "CapacityCache.write"),
)

BUCKETS: Tuple[str, ...] = tuple(dict.fromkeys(bucket for bucket, _, _ in TARGETS))

#: Buckets that must record at least one call on each workload: the
#: layers each workload is chosen to exercise. A wrapper installed
#: where the program never looks the function up would otherwise read
#: as "0 s in that layer".
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "memlink-gcc": (
        "trace", "cache", "signature", "search", "encoder", "decoder",
        "writeback", "compression",
    ),
    "memlink-lbm": (
        "trace", "cache", "signature", "search", "encoder", "decoder",
        "writeback", "compression",
    ),
    "serve-gcc": (
        "trace", "cache", "signature", "search", "encoder", "decoder",
        "compression", "wire.encode", "wire.decode", "recovery", "state",
        "replica", "serve.flush",
    ),
    "tier-capacity": ("trace", "compression", "tiers"),
}


#: Buckets whose wrappers also remember the instances they ran on
#: (the stream senders, whose own counters give records per flush).
KEEP_INSTANCES = frozenset({"serve.flush"})


class LayerTracer:
    """Wraps layer functions and accumulates self time per bucket."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Instances a KEEP_INSTANCES bucket's methods ran on, by id.
        self.instances: Dict[str, Dict[int, object]] = defaultdict(dict)
        # One entry per open span: time covered by its finished children.
        self._stack: List[float] = []

    def reset(self) -> None:
        """Forget everything recorded so far (spans must all be closed)."""
        self.self_s.clear()
        self.calls.clear()
        for seen in self.instances.values():
            seen.clear()

    def _wrap(self, bucket: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        seen = self.instances[bucket] if bucket in KEEP_INSTANCES else None

        def close(start: float) -> None:
            duration = clock() - start
            self_s[bucket] += duration - stack.pop()
            calls[bucket] += 1
            if stack:
                stack[-1] += duration

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen[id(args[0])] = args[0]
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(start)

        return wrapper

    def install(self) -> int:
        """Wrap every target at every lookup site; returns sites patched."""
        # id(original) -> (original, wrapper); holding the original keeps
        # its id from being reused while the lookup sites are scanned.
        originals: Dict[int, Tuple[Callable, Callable]] = {}
        patched = 0
        for bucket, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = owner.__dict__[attr]
            wrapper = self._wrap(bucket, fn)
            setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
            patched += 1
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched += 1
        return patched

    def missing(self, workload: str) -> List[str]:
        """Required buckets that recorded no call on *workload*."""
        return [bucket for bucket in REQUIRED[workload] if not self.calls[bucket]]

    def senders(self) -> List[object]:
        """Every stream sender whose flush ran."""
        return list(self.instances["serve.flush"].values())
