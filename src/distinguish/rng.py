"""Deterministic named RNG streams.

Every random quantity in the package flows from one user seed through a
named stream: the stream identity is (seed, component name, index).  Two
streams with different names or indices are statistically independent, and
a stream's output never depends on how many other streams were opened or
in which order.  That makes multi-stage pipelines and chunked work
bit-reproducible regardless of the order in which chunks are drawn.

A stream is numpy's PCG64 seeded by SeedSequence(seed, spawn_key=(crc32 of
the name, index)).  Many streams of one name are opened in one call by
passing a sequence of indices (and, if they differ, of seeds): their
SeedSequence words are hashed in one vectorised pass, and each PCG64 is
seeded from its precomputed words, with the same state as one opened alone.
The generators are handed out one at a time, so a caller that uses each
before taking the next holds one at a time.
"""
from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

DEFAULT_SEED = 0

# numpy's SeedSequence (O'Neill's seed_seq_fe): pool of 4 uint32 words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK)
    return np.array(h, dtype=np.uint32)


# hash constants of the 4 + 12 + 2 x 4 hashmix calls of a 6-word entropy
# and of the 8 output words of generate_state(4, np.uint64)
_A = _powers(_INIT_A, _MULT_A, 24)
_B = _powers(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, t: int, k: int, h=_A) -> np.ndarray:
    """Hash calls t, ..., t + k - 1 with the constants h, broadcast over
    value."""
    v = (value ^ h[t:t + k]) * h[t + 1:t + k + 1]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _state_words(seed_words: np.ndarray, key: int, code: np.ndarray,
                 index: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of the SeedSequence of each stream i,
    whose entropy is the seed words seed_words[code[i]] (4 of them, padded
    as numpy pads them), then key, then index[i]: one (N, 4) uint64 array.
    The pool is mixed once per seed, and each step is vectorised over the
    rows and the pool words."""
    pool = _hashmix(seed_words, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst],
                            _hashmix(pool[:, src, None], 4 + 3 * src, 3))
    pool = _mix(pool, _hashmix(np.uint32(key), 16, 4))
    pool = _mix(pool[code], _hashmix(index[:, None], 20, 4))
    w = _hashmix(np.tile(pool, 2), 0, 8, _B).astype(np.uint64)
    return w[:, 0::2] | w[:, 1::2] << np.uint64(32)


class _Words(ISeedSequence):
    """Precomputed SeedSequence output.  PCG64 seeds itself with one
    generate_state(4, np.uint64) call, which returns these words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _name_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def _seed_sequence(seed: int | None, name: str,
                   index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(DEFAULT_SEED if seed is None else seed),
        spawn_key=(_name_key(name), int(index)))


def _words(seed, name: str, index) -> np.ndarray:
    """(N, 4) uint64: generate_state(4, np.uint64) of the SeedSequence of
    each stream of stream(seed, name, index) with a sequence.  Streams with
    a seed below 2^128 and an index below 2^32 have a 6-word entropy and are
    hashed together; any other stream is hashed by numpy."""
    if np.ndim(seed):
        distinct: dict = {}
        code = np.array([distinct.setdefault(s, len(distinct)) for s in seed])
        seeds = list(distinct)
    else:
        seeds, code = [seed], np.zeros(len(index), int)
    index = np.array(index if np.ndim(index) else [index] * code.size)
    if index.shape != code.shape:
        raise ValueError("seed and index sequences differ in length")
    seeds = [DEFAULT_SEED if s is None else int(s) for s in seeds]
    ok = np.array([0 <= s < 2 ** 128 for s in seeds])[code]
    if index.dtype.kind in "iu":
        ok &= (index >= 0) & (index <= _MASK)
    else:
        ok[:] = False
    out = np.empty((code.size, 4), dtype=np.uint64)
    if ok.any():
        words = np.array([[s >> 32 * w & _MASK for w in range(4)]
                          for s in seeds], np.uint32)
        out[ok] = _state_words(words, _name_key(name), code[ok],
                               index[ok].astype(np.uint32))
    for i in np.flatnonzero(~ok):
        out[i] = _seed_sequence(seeds[code[i]], name,
                                index[i]).generate_state(4, np.uint64)
    return out


def stream(seed, name: str, index=0):
    """Return the generator for the (seed, name, index) stream.

    With a 1-D sequence of indices, or of seeds, or of both (of one
    length), return an iterator over one generator per element, each equal
    to the one opened alone.  All their seeds are hashed at the call, but
    each generator is built only as the iterator reaches it.
    """
    if not (np.ndim(seed) or np.ndim(index)):
        return np.random.default_rng(_seed_sequence(seed, name, index))
    return (np.random.Generator(np.random.PCG64(_Words(w)))
            for w in _words(seed, name, index))


def derive_seed(seed: int | None, name: str, index: int = 0) -> int:
    """Collapse a named stream into a plain integer seed for nested use."""
    ss = _seed_sequence(seed, name, index)
    return int(ss.generate_state(2, dtype=np.uint64)[0])
