"""Deterministic seed derivation.

All randomness in the project flows from a single integer run seed. Substream
seeds are derived with ``mix``: the parts are rendered with ``repr``, joined
with ``|``, hashed with SHA-256, and the first 8 bytes are read as a big-endian
unsigned integer. The rule is fixed; changing it invalidates reproducibility
of persisted runs.

A substream is ``np.random.default_rng(mix(*parts))`` (``rng_for``). Where
many substreams start together, ``pcg64_states`` derives the PCG64 state of
every ``default_rng(seed)`` in one batch: numpy's SeedSequence mixing over
uint32 arrays, then PCG64's seeding step on Python ints. ``Streams`` draws
them in blocks through one reused PCG64, with the bytes each
``default_rng(seed)`` draws.
"""

import hashlib

import numpy as np

from .errors import DomainError

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def mix(*parts) -> int:
    """Derive a 64-bit substream seed from a tuple of hashable parts."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(*parts) -> np.random.Generator:
    return np.random.default_rng(mix(*parts))


def _xshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> np.uint32(16))


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """(state, inc) of the PCG64 in ``np.random.default_rng(seed)``, for
    every seed in [0, 2**64) at once.

    SeedSequence reads a seed as its little-endian uint32 words: one word
    below 2**32, two above. Its pool of four words takes ``hashmix`` of
    each word and of 0 past the last, so a seed below 2**32 mixes as the
    two words (seed, 0): every seed is two words here, one array each.
    The pool then mixes every word into every other, ``generate_state``
    hashes it into eight words, read as four uint64 (lo | hi << 32), and
    PCG64 seeds its 128-bit LCG from the first two (state) and last two
    (increment)."""
    seeds = [int(s) for s in seeds]
    if any(not 0 <= s < 1 << 64 for s in seeds):
        raise DomainError("seeds must be in [0, 2**64)")
    words = np.array([[s & 0xFFFFFFFF, s >> 32] for s in seeds],
                     dtype=np.uint32).reshape(len(seeds), 2)
    hash_const = _INIT_A  # a Python int: numpy warns on scalar overflow

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        return _xshift(value * np.uint32(hash_const))

    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(words[:, 0]), hashmix(words[:, 1]), hashmix(zero),
            hashmix(zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _xshift(np.uint32(_MIX_MULT_L) * pool[dst]
                                    - np.uint32(_MIX_MULT_R)
                                    * hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):  # generate_state(4, np.uint64)
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        state.append(_xshift(value * np.uint32(hash_const)).tolist())
    out = []
    for w in zip(*state):
        u64 = [w[j] | w[j + 1] << 32 for j in range(0, 8, 2)]
        initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        inc = (initseq << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
        out.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return out


class Streams:
    """The streams ``np.random.default_rng(seed)`` of many seeds, seeded in
    one batch (``pcg64_states``) and drawn through one reused PCG64, which
    is set to a stream's state for each block and leaves the state where
    the block ended. A stream's blocks are the doubles ``random(m)`` calls
    on its own generator would draw, block after block."""

    def __init__(self, seeds):
        self._states = pcg64_states(seeds)
        self._bits = np.random.PCG64(0)
        self._random = np.random.Generator(self._bits).random

    def blocks(self, which, m: int) -> np.ndarray:
        """The next m doubles of each stream in ``which``, one row each."""
        out = np.empty((len(which), m))
        for row, i in zip(out, which):
            state, inc = self._states[i]
            self._bits.state = {"bit_generator": "PCG64",
                                "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}
            self._random(out=row)
            self._states[i] = self._bits.state["state"]["state"], inc
        return out
