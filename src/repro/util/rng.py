"""Deterministic randomness.

Everything in the reproduction that needs randomness — H3 hash matrices,
synthetic workload generation, multiprogram interleaving — derives from
explicitly seeded generators so that every experiment is exactly
repeatable run-to-run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable


def make_rng(seed, *context) -> random.Random:
    """Return a :class:`random.Random` seeded from *seed* plus context.

    The context values (e.g. a benchmark name, a phase index) are folded
    into the seed so that independent streams never alias even when the
    top-level seed is shared.
    """
    return random.Random(stable_hash64(seed, *context))


def stable_hash64(*parts) -> int:
    """A 64-bit hash of the reprs of *parts*, stable across processes.

    Python's builtin ``hash`` is salted per-process for strings, so it
    cannot be used for reproducible seeding; this uses blake2b instead.
    """
    h = _absorb(hashlib.blake2b(digest_size=8), parts)
    return int.from_bytes(h.digest(), "big")


def stable_hasher(*prefix) -> Callable[[object], int]:
    """``stable_hash64`` with a fixed prefix, for hot per-item seeding.

    ``stable_hasher(*prefix)(x) == stable_hash64(*prefix, x)`` bit for
    bit: blake2b absorbs the prefix once, and each call continues from a
    ``copy()`` of that state instead of re-hashing it.
    """
    base = _absorb(hashlib.blake2b(digest_size=8), prefix)

    def hash64(part) -> int:
        h = base.copy()
        h.update(repr(part).encode() + b"\x1f")
        return int.from_bytes(h.digest(), "big")

    return hash64


def _absorb(h, parts):
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h
