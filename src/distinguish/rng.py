"""Deterministic named RNG streams.

Every random quantity in the package flows from one user seed through a
named stream: the stream identity is (seed, component name, index).  Two
streams with different names or indices are statistically independent, and
a stream's output never depends on how many other streams were opened or
in which order.  That makes multi-stage pipelines and chunked work
bit-reproducible regardless of the order in which chunks are drawn.
"""
from __future__ import annotations

import zlib

import numpy as np

DEFAULT_SEED = 0


def _name_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def _seed_sequence(seed: int | None, name: str,
                   index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(DEFAULT_SEED if seed is None else seed),
        spawn_key=(_name_key(name), int(index)))


def stream(seed: int | None, name: str, index: int = 0) -> np.random.Generator:
    """Return the generator for the (seed, name, index) stream."""
    return np.random.default_rng(_seed_sequence(seed, name, index))


def derive_seed(seed: int | None, name: str, index: int = 0) -> int:
    """Collapse a named stream into a plain integer seed for nested use."""
    ss = _seed_sequence(seed, name, index)
    return int(ss.generate_state(2, dtype=np.uint64)[0])
