"""Seed derivation: the batched PCG64 streams against numpy's own."""

import numpy as np
import pytest

from earl.errors import DomainError
from earl.seeds import Streams, mix, pcg64_states

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def test_streams_draw_what_default_rng_draws():
    rng = np.random.default_rng(2024)
    # SeedSequence reads a seed below 2**32 as one uint32 word, above as two
    drawn = [*rng.integers(0, 2**64, 200, dtype=np.uint64),
             *rng.integers(0, 2**32, 20)]
    seeds = EDGE_SEEDS + [int(s) for s in drawn] + [mix("seeds", 0)]
    want = [np.random.default_rng(s) for s in seeds]
    streams = Streams(seeds)
    for m in (64, 64, 11):  # each block starts where the last one ended
        got = streams.blocks(range(len(seeds)), m)
        for row, rng in zip(got, want):
            assert row.tobytes() == rng.random(m).tobytes()
    # streams not drawn keep their place
    odd = list(range(1, len(seeds), 2))
    got = streams.blocks(odd, 64)
    for row, i in zip(got, odd):
        assert row.tobytes() == want[i].random(64).tobytes()
    assert streams.blocks([], 64).shape == (0, 64)


def test_pcg64_states_of_no_seed_and_out_of_range_seeds():
    assert pcg64_states([]) == []
    for seed in (-1, 2**64):
        with pytest.raises(DomainError):
            pcg64_states([1, seed])
