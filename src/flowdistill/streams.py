"""Per-clip random streams, seeded a block at a time.

Every clip of a dataset and every start state of a sampler draws from its
own stream: the one ``np.random.default_rng(entropy)`` makes, for the
clip's entropy (a non-negative int or a sequence of them). Building one
generator per clip spends most of its time hashing the seed, not drawing.
:func:`clip_streams` hashes a block of entropies at once with array
arithmetic and moves one reused generator to each clip's starting state in
turn, so each clip draws exactly what ``default_rng(entropy)`` would.

The seeding path is numpy's, and both of its steps are fixed algorithms:

* ``SeedSequence`` (O'Neill's seed-sequence hash) reads the entropy as
  little-endian uint32 words and hashes them into a pool of 4 words. Words
  past the 4th are mixed into every pool word by a tail loop. A missing
  word hashes as 0, so an entropy shorter than the pool equals its
  zero-padded form; one longer than the pool does not, so rows are grouped
  by word count past 4.
* ``PCG64`` (O'Neill 2014) takes ``generate_state(4, uint64)`` as its
  128-bit initial state and stream, ``inc = 2 * stream + 1``, and starts
  at ``(inc + initstate) * M + inc`` mod 2**128.
"""
from __future__ import annotations

import operator
from itertools import islice

import numpy as np

__all__ = ["clip_streams"]

BLOCK = 1024  # entropies hashed per pass; memory does not grow with n
_POOL = 4

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list:
    """The uint32 words ``SeedSequence`` reads from ``entropy``."""
    parts = (entropy,) if isinstance(entropy, (int, np.integer)) else entropy
    words = []
    for v in parts:
        v = operator.index(v)
        if v < 0:
            raise ValueError(f"entropy must be non-negative, got {v}")
        words.append(v & _M32)
        while v > _M32:
            v >>= 32
            words.append(v & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's running hash step over uint32 arrays: xor with the
    constant, step the constant by ``mult``, multiply by the new constant,
    fold the high half down."""
    def hashmix(v):
        nonlocal const
        v = v ^ const
        const = const * mult & _M32
        v = v * const
        return v ^ (v >> 16)
    return hashmix


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _pcg_seeds(words: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 ``SeedSequence(row).generate_state(4, np.uint64)``
    of (rows, k >= 4) uint32 entropy words."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, words.shape[1]):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL]) for i in range(8)], axis=1)
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32  # little-endian word pairs


def _seeds(block: list) -> np.ndarray:
    """(len(block), 4) uint64 PCG64 seed words of each entropy of ``block``."""
    words = [_words(e) for e in block]
    groups = {}
    for row, w in enumerate(words):
        groups.setdefault(max(len(w), _POOL), []).append(row)
    seeds = np.empty((len(words), 4), dtype=np.uint64)
    for width, rows in groups.items():
        padded = [words[r] + [0] * (width - len(words[r])) for r in rows]
        seeds[rows] = _pcg_seeds(np.array(padded, dtype=np.uint32))
    return seeds


def clip_streams(entropies):
    """Yield, for each entropy, a generator positioned exactly as
    ``np.random.default_rng(entropy)`` would be.

    The same ``Generator`` object is yielded every time and moved to the
    next entropy's state when the iteration advances, so a clip must finish
    its draws before the next one is taken. Entropies are hashed ``BLOCK``
    at a time.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    entropies = iter(entropies)
    while block := list(islice(entropies, BLOCK)):
        for init_hi, init_lo, seq_hi, seq_lo in _seeds(block).tolist():
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _M128
            state = ((inc + (init_hi << 64 | init_lo)) * _PCG_MULT + inc) & _M128
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng
