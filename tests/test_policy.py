"""Policy: softmax/entropy math, featurization, sampling, SFT, checkpoints.

Numeric oracle values are frozen from independent hand evaluation:
entropy([2/3, 1/3]) = ln 3 - (2/3) ln 2 = 0.6365141682948128.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from conftest import dense_dW, pin_message
from earl import policy as pol
from earl.errors import ConfigError, DomainError
from earl.minirtl.vocab import DEFAULT_VOCAB, PROMPT_MAX_LEN
from earl.seeds import mix, rng_for

V = DEFAULT_VOCAB.size


def _softmax(z):
    """The softmax of one logit vector, the oracle of the sampler's rows."""
    e = np.exp(z - z.max())
    return e / e.sum()


def small_params(k=2, seed=0, scale=0.0):
    p = pol.init_params(DEFAULT_VOCAB, k, seed)
    if scale:
        rng = np.random.default_rng(seed + 1)
        p.W += rng.normal(0, scale, p.W.T.shape).T  # drawn [V, F]
        p.b += rng.normal(0, scale, p.b.shape)
    return p


def first_distribution(p, temperature=1.0):
    """Next-token distribution at response position 0 after a prompt of k
    non-BOS tokens, which canonical_prompt leaves unpadded."""
    prompt = (DEFAULT_VOCAB.id("a"),) * p.k
    _, probs = pol.response_distributions(p, prompt, (0,), temperature)
    return probs[0]


def test_init_deterministic():
    a, b = small_params(4, 0), small_params(4, 0)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_init_params_matches_vocab_major_draw():
    for k, seed in [(1, 0), (4, 9)]:
        p = pol.init_params(DEFAULT_VOCAB, k, seed)
        draw = rng_for("policy-init", seed).uniform(-0.01, 0.01, (V, p.F))
        assert np.array_equal(p.W.T, draw)
        assert p.W.shape == (p.F, V) and p.W.flags.c_contiguous


def test_params_reject_wrong_shapes():
    p = small_params(k=2)
    with pytest.raises(DomainError):  # the [V, F] layout
        pol.PolicyParams(DEFAULT_VOCAB, 2, p.W.T.copy(), p.b)
    with pytest.raises(DomainError):  # W for another k
        pol.PolicyParams(DEFAULT_VOCAB, 3, p.W, p.b)
    with pytest.raises(DomainError):
        pol.PolicyParams(DEFAULT_VOCAB, 2, p.W, p.b[:-1])


def test_params_reject_weights_the_update_cannot_write():
    # apply_update writes W through W.ravel(), a copy for any W but a
    # C-contiguous one, and numpy cannot add a float64 step into an int W
    p = small_params(k=2)
    for W, b in ((p.W.astype(np.float32), p.b), (p.W.astype(np.int64), p.b),
                 (np.asfortranarray(p.W), p.b),
                 (np.zeros((p.F, 2 * V))[:, ::2], p.b),  # a strided view
                 (p.W.tolist(), p.b),
                 (p.W, np.zeros(2 * V)[::2])):
        with pytest.raises(DomainError, match="C-contiguous float64"):
            pol.PolicyParams(DEFAULT_VOCAB, 2, W, b)


def test_logits_match_vocab_major_gather():
    # k + 1 >= 8 terms per logit, so a pairwise sum would differ in bytes
    p = small_params(k=12, scale=0.3)
    rng = np.random.default_rng(3)
    bos = DEFAULT_VOCAB.id("BOS")
    for n in (1, 2, 7, 48, 300):
        resp = tuple(int(t) for t in rng.integers(0, V, n))
        rows = pol.feature_rows(p, (bos, 9, 10), resp)
        want = p.W.T[:, rows].sum(axis=-1).T + p.b
        assert np.array_equal(pol.logits(p, rows), want)


@pytest.mark.parametrize("n", [0, 1, 7, 48, 300])
def test_kernel_products_match_public_csr(n):
    # logits and gradient call scipy's private CSR and CSC kernels; the
    # public csr_matrix products pin their bytes, zero signs included, and
    # n = 0 is the empty batch, which gives +0.0 zeros
    p = small_params(k=12, scale=0.3)
    rng = np.random.default_rng(n)
    resp = tuple(int(t) for t in rng.integers(0, V, n))
    rows = pol.feature_rows(p, (DEFAULT_VOCAB.id("BOS"), 9, 10), resp)
    width = p.k + 1
    X = sparse.csr_matrix((np.ones(n * width), rows.ravel(),
                           np.arange(0, (n + 1) * width, width)),
                          shape=(n, p.F))
    G = rng.normal(size=(n, V))
    G[:, 3] = -0.0
    acc = pol.gradient(p, rows, G)
    assert acc.ids.dtype == np.int32
    assert acc.ids.tolist() == sorted(set(rows.ravel().tolist()))
    assert acc.dW.shape == (len(acc.ids), V)
    assert dense_dW(acc, p).tobytes() == (X.T @ G).tobytes()
    assert acc.db.tobytes() == (np.zeros(V) + G.sum(axis=0)).tobytes()
    assert pol.logits(p, rows).tobytes() == (X @ p.W + p.b).tobytes()
    # int64 rows holding the same indices give the same bytes
    wide = rows.astype(np.int64)
    assert pol.logits(p, wide).tobytes() == pol.logits(p, rows).tobytes()
    acc_wide = pol.gradient(p, wide, G)
    assert acc_wide.ids.tobytes() == acc.ids.tobytes()
    assert acc_wide.dW.tobytes() == acc.dW.tobytes()
    if n == 0:
        assert acc.dW.shape == (0, V)
        assert acc.db.tobytes() == np.zeros(V).tobytes()


_K = 2  # the property's policy: slots of V ids each, then 8 position ids
_row = st.tuples(*[st.integers(0, V - 1)] * _K,
                 st.integers(0, pol.POSITION_BUCKETS - 1))


@settings(max_examples=60, deadline=None)
@given(rows=st.one_of(st.lists(_row, max_size=24),
                      st.tuples(_row, st.integers(1, 24)).map(
                          lambda r: [r[0]] * r[1])),  # one row repeated
       step=st.sampled_from([-8.0, -0.5, 0.0, 0.25, 3.0]),
       zero_cols=st.sets(st.integers(0, V - 1), max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_update_matches_the_dense_reference(rows, step, zero_cols, seed):
    """gradient + apply_update give the touched W rows and b the bytes of
    W + step * (X.T @ G) from scipy's dense product, and leave every other
    W row's bytes as they were, -0.0 weights and -0.0 columns of G
    included."""
    p = small_params(k=_K, seed=seed % 7, scale=0.3)
    rng = np.random.default_rng(seed)
    p.W[rng.random(p.W.shape) < 0.05] = -0.0
    n, width = len(rows), _K + 1
    idx = np.array(rows, dtype=np.int32).reshape(n, width)
    idx += np.arange(0, width * V, V, dtype=np.int32)  # slot offsets
    X = sparse.csr_matrix((np.ones(n * width), idx.ravel(),
                           np.arange(0, (n + 1) * width, width)),
                          shape=(n, p.F))
    G = rng.normal(size=(n, V))
    G[:, sorted(zero_cols)] = -0.0
    want_W = p.W + step * (X.T @ G)
    want_b = p.b + step * (np.zeros(V) + G.sum(axis=0))
    before = p.W.copy()
    acc = pol.gradient(p, idx, G)
    pol.apply_update(p, acc, step)
    touched = np.zeros(p.F, dtype=bool)
    touched[idx.ravel()] = True
    assert acc.ids.tolist() == np.flatnonzero(touched).tolist()
    assert p.W[touched].tobytes() == want_W[touched].tobytes()
    assert p.W[~touched].tobytes() == before[~touched].tobytes()
    assert p.b.tobytes() == want_b.tobytes()


def test_update_keeps_an_untouched_negative_zero_weight():
    # the one byte the row update changes: the dense add of an untouched
    # row's +0.0 gradient turned a -0.0 weight into +0.0 for a step >= 0
    p = small_params(k=2)
    rows = pol.feature_rows(p, (DEFAULT_VOCAB.id("BOS"),), (4, 5))
    f = min(set(range(p.F)) - set(rows.ravel().tolist()))
    p.W[f, 0] = -0.0
    assert not np.signbit((p.W + 0.5 * np.zeros_like(p.W))[f, 0])
    pol.apply_update(p, pol.gradient(p, rows, np.ones((2, V))), 0.5)
    assert p.W[f, 0] == 0.0 and np.signbit(p.W[f, 0])


def test_apply_update_rejects_an_accumulator_the_kernel_would_overrun():
    p = small_params(k=2)
    for ids, dW in ((np.array([p.F], dtype=np.int32), np.ones((1, V))),
                    (np.array([-1], dtype=np.int32), np.ones((1, V))),
                    (np.array([0, 1], dtype=np.int32), np.ones((1, V))),
                    (np.array([0], dtype=np.int32), np.ones((1, V - 1)))):
        W = p.W.copy()
        with pytest.raises(DomainError):
            pol.apply_update(p, pol.GradAccumulator(ids, dW, np.zeros(V)),
                             1.0)
        assert p.W.tobytes() == W.tobytes()


def test_init_rejects_k_zero():
    with pytest.raises(DomainError):
        pol.init_params(DEFAULT_VOCAB, 0, 0)


def test_fresh_params_near_uniform():
    p = small_params()
    dist = first_distribution(p)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert np.all(np.abs(dist - 1.0 / V) < 0.01 / V * V)  # within 1% relative
    assert abs(pol.token_entropy(dist) - math.log(V)) < 1e-3


def test_entropy_one_hot_zero():
    assert pol.token_entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_uniform_four():
    assert abs(pol.token_entropy(np.full(4, 0.25)) - math.log(4)) < 1e-12


def test_entropy_two_thirds_one_third():
    assert abs(pol.token_entropy(np.array([2 / 3, 1 / 3]))
               - 0.6365141682948128) < 1e-12


def test_temperature_zero_rejected():
    with pytest.raises(DomainError):
        first_distribution(small_params(), 0.0)


def test_large_temperature_flattens():
    p = small_params(scale=0.5)
    dist = first_distribution(p, 1e6)
    assert dist.max() - dist.min() < 1e-4


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(-8, 8), min_size=2, max_size=12),
       st.floats(0.1, 10), st.floats(1.0, 3.0))
def test_temperature_monotonicity(logits, t1, factor):
    z = np.asarray(logits)
    h1 = pol.token_entropy(_softmax(z / t1))
    h2 = pol.token_entropy(_softmax(z / (t1 * factor)))
    assert h2 >= h1 - 1e-9
    assert 0.0 <= h1 <= math.log(len(logits)) + 1e-12


def test_sampling_monte_carlo_frequencies():
    # collapse to a 2-way decision: huge logits on two tokens
    p = small_params()
    p.W[:, :] = 0.0
    p.b[:] = -30.0
    p.b[0], p.b[1] = math.log(0.7), math.log(0.3)
    dist = first_distribution(p)
    rng = rng_for("mc", 0)
    counts = np.zeros(2)
    n = 10_000
    for _ in range(n):
        counts[int(rng.choice(V, p=dist))] += 1
    assert abs(counts[0] / n - 0.7) < 0.02
    assert abs(counts[1] / n - 0.3) < 0.02


def test_rollout_stops_at_eos_and_truncation_flag():
    p = small_params()
    eos = DEFAULT_VOCAB.id("EOS")
    p.W[:, :] = 0.0
    p.b[:] = -30.0
    p.b[eos] = 30.0
    r = pol.sample_rollout(p, (DEFAULT_VOCAB.id("BOS"),), 1.0, 10, mix(0))
    assert r.response_tokens == (eos,) and not r.truncated
    p.b[eos] = -60.0  # now EOS never sampled
    r = pol.sample_rollout(p, (DEFAULT_VOCAB.id("BOS"),), 1.0, 7, mix(0))
    assert len(r.response_tokens) == 7 and r.truncated


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _one_at_a_time(p, prompt, temperature, max_len, rng):
    """The scalar sampling loop: one Generator.choice per token."""
    eos = DEFAULT_VOCAB.id("EOS")
    tokens, logprobs, entropies = [], [], []
    for t in range(max_len):
        idx = pol.feature_rows(p, prompt, tokens + [eos])[t]
        probs = _softmax((p.W.T[:, idx].sum(axis=1) + p.b) / temperature)
        tok = int(rng.choice(V, p=probs))
        tokens.append(tok)
        logprobs.append(float(np.log(probs[tok])))
        entropies.append(pol.token_entropy(probs))
        if tok == eos:
            break
    return tuple(tokens), logprobs, entropies, tokens[-1] != eos


@pytest.mark.parametrize("temperature, max_len, eos_bias", [
    pytest.param(1.0, 12, 2.0, id="1.0"),
    pytest.param(0.7, 12, 2.0, id="0.7"),
    # rollouts longer than 64 tokens; the id names the blocks of 64
    # uniforms an earlier sampler drew per stream
    pytest.param(1.0, 75, 0.0, id="1.0-second-block")])
def test_sample_rollouts_match_one_at_a_time(temperature, max_len, eos_bias):
    # k + 1 >= 8 terms per logit, so numpy would sum a contiguous copy
    # of the gathered weights in a different order
    p = small_params(k=12, scale=0.3)
    p.b[DEFAULT_VOCAB.id("EOS")] = eos_bias  # ends at varied steps
    p.b[-4:] = -1000.0  # probabilities that underflow to 0
    bos, a = DEFAULT_VOCAB.id("BOS"), DEFAULT_VOCAB.id("a")
    prompts = [(bos,), (bos, 9, 10, 11), (a,), (a, 7, 8, 9, 10, 12),
               (bos,) + tuple(range(20, 70))] * 3
    seeds = [mix("batch", temperature, i) for i in range(len(prompts))]
    # repeated (prompt, seed) pairs: whole rollouts share every node
    prompts += prompts[:5] + prompts[7:9]
    seeds += seeds[:5] + seeds[7:9]
    # seeds of one 32-bit word and of two, at the edges of each
    prompts += prompts[:len(EDGE_SEEDS)]
    seeds += EDGE_SEEDS
    batch = pol.sample_rollouts(p, prompts, temperature, max_len, seeds)
    assert len(batch) == len(prompts)
    for prompt, s, r in zip(prompts, seeds, batch):
        tokens, logprobs, entropies, truncated = _one_at_a_time(
            p, prompt, temperature, max_len, np.random.default_rng(s))
        assert r.prompt_tokens == prompt and r.temperature == temperature
        assert r.response_tokens == tokens
        assert np.array_equal(r.logprobs, logprobs)
        assert np.array_equal(r.entropies, entropies)
        assert r.truncated == truncated
    lengths = [len(r.response_tokens) for r in batch]
    assert len(set(lengths)) >= 4
    assert any(r.truncated for r in batch)
    assert not all(r.truncated for r in batch)
    if max_len > 64:  # some end past the 64th token
        assert any(64 < L < max_len for L in lengths)


def test_sample_rollouts_reject_non_finite_probabilities():
    p = small_params(k=2, scale=0.1)
    bos = DEFAULT_VOCAB.id("BOS")
    p.W[2 * V, 5] = np.nan  # position bucket 0: every first token
    with pytest.raises(DomainError):
        pol.sample_rollouts(p, [(bos,), (bos, 9)], 1.0, 5,
                            [mix(0), mix(1)])
    with pytest.raises(ValueError):  # as Generator.choice raised
        pol.sample_rollout(p, (bos,), 1.0, 5, mix(0))
    # the sampler checks the last CDF column only: a NaN or +inf logit
    # makes its whole softmax row NaN, and a -inf logit a zero probability
    for cell in ("W", "b"):
        q = small_params(k=2, scale=0.1)
        if cell == "W":
            q.W[2 * V, 5] = np.inf
        else:
            q.b[5] = np.inf
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            pol.sample_rollouts(q, [(bos,), (bos, 9)], 1.0, 5,
                                [mix(0), mix(1)])
    q = small_params(k=2, scale=0.1)
    q.W[2 * V, 5] = -np.inf
    for r in pol.sample_rollouts(q, [(bos,), (bos, 9)], 1.0, 5,
                                 [mix(0), mix(1)]):
        _, probs = pol.response_distributions(q, r.prompt_tokens,
                                              r.response_tokens)
        assert probs[0, 5] == 0.0 and np.isfinite(r.entropies).all()
        # p log p is NaN at the zero, so the entropy is token_entropy's
        assert r.entropies[0] == pol.token_entropy(probs[0])


def test_sample_rollouts_argument_checks():
    p = small_params()
    bos = DEFAULT_VOCAB.id("BOS")
    assert pol.sample_rollouts(p, [], 1.0, 5, []) == []
    with pytest.raises(DomainError):
        pol.sample_rollouts(p, [(bos,), (bos,)], 1.0, 5, [mix(0)])
    with pytest.raises(DomainError):
        pol.sample_rollouts(p, [(bos,)], 0.0, 5, [mix(0)])
    with pytest.raises(DomainError):
        pol.sample_rollouts(p, [(bos,)], 1.0, 0, [mix(0)])
    # a prompt id past the vocabulary would index past W: at k = 1 the row
    # of (BOS, 2V) is [2V, V], and the sampler read W there unchecked
    q = small_params(k=1)
    assert pol.feature_rows(q, (bos, 9), (9,)).tolist() == [[9, V]]
    with pytest.raises(DomainError):
        pol.sample_rollouts(q, [(bos, 2 * V)], 1.0, 5, [mix(0)])


def test_sequence_logprobs_match_sampling_time():
    p = small_params(k=3, scale=0.3)
    prompt = (DEFAULT_VOCAB.id("BOS"), DEFAULT_VOCAB.id("SPEC"))
    r = pol.sample_rollout(p, prompt, 1.3, 25, mix(42))
    lp = pol.sequence_logprobs(p, prompt, r.response_tokens, 1.3)
    assert np.allclose(lp, r.logprobs, atol=1e-12)
    assert np.all(lp <= 0)


def test_feature_rows_window_slots_and_buckets():
    p = small_params(k=3)
    pad = DEFAULT_VOCAB.id("PAD")
    x, y = DEFAULT_VOCAB.id("a"), DEFAULT_VOCAB.id("b")  # no BOS: unpadded
    resp = (7, 8, 9, 10, 11, 12)
    rows = pol.feature_rows(p, (x, y), resp)
    slots = np.arange(3) * V
    assert rows.shape == (6, 4)
    # the kernel's index dtype and layout, so no product copies them
    assert rows.dtype == np.int32 and rows.flags.c_contiguous
    assert rows[0].tolist() == (slots + [y, x, pad]).tolist() + [3 * V]
    assert rows[1].tolist() == (slots + [7, y, x]).tolist() + [3 * V]
    assert rows[5].tolist() == (slots + [11, 10, 9]).tolist() + [3 * V + 1]
    assert pol.feature_rows(p, (x, y), ()).shape == (0, 4)


def test_feature_rows_reject_token_ids_outside_vocab():
    p = small_params(k=3)
    bos = DEFAULT_VOCAB.id("BOS")
    for prompt, resp in [((bos, V), (7,)), ((bos, -1), (7,)), ((V,), (7,)),
                         ((bos,), (7, V, 8)), ((bos,), (7, -1)),
                         ((bos,), (V,)), ((-1,), ())]:
        with pytest.raises(DomainError):
            pol.feature_rows(p, prompt, resp)
    rows = pol.feature_rows(p, (bos, V - 1), (0, V - 1))
    assert rows.shape == (2, 4) and rows.max() < p.F


def _loop_rows(p, prompt, response):
    """The feature rows of one pair, token by token: the oracle of
    context_rows."""
    k, pad = p.k, DEFAULT_VOCAB.id("PAD")
    canon = pol.canonical_prompt(prompt)
    seq = [pad] * k + list(canon) + list(response)
    start = k + len(canon)  # index of the first response token
    return np.array([[seq[start + t - 1 - j] + j * V for j in range(k)]
                     + [k * V + min(t // 4, 7)]
                     for t in range(len(response))],
                    dtype=np.int32).reshape(len(response), k + 1)


def _random_pairs(rng, count):
    """(prompt, response) pairs of random ids: BOS prompts shorter than,
    as long as and longer than PROMPT_MAX_LEN, a prompt without BOS, and
    responses of 0, 1 and up to 40 tokens."""
    bos = DEFAULT_VOCAB.id("BOS")
    pairs = []
    for i in range(count):
        n = (3, PROMPT_MAX_LEN, PROMPT_MAX_LEN + 5, 7)[i % 4]
        prompt = [int(t) for t in rng.integers(0, V, n)]
        if i % 4 != 3:
            prompt[0] = bos
        T = (0, 1, int(rng.integers(2, 41)))[i % 3]
        pairs.append((tuple(prompt), tuple(int(t) for t in
                                           rng.integers(0, V, T))))
    return pairs


@pytest.mark.parametrize("k", [1, 3, 48])
def test_context_rows_equal_per_pair_feature_rows(k):
    """One contexts + context_rows call over many pairs gives each pair's
    rows, in pair order, and any selection of them in the selected order."""
    rng = np.random.default_rng(k)
    p = small_params(k=k)
    pairs = _random_pairs(rng, 24)
    want = np.concatenate([_loop_rows(p, *pair) for pair in pairs])
    for pair in pairs:
        assert pol.feature_rows(p, *pair).tobytes() == \
            _loop_rows(p, *pair).tobytes()
    ctx = pol.contexts(p, pairs)
    rows = pol.context_rows(p, ctx)
    assert rows.dtype == np.int32 and rows.flags.c_contiguous
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    sel = rng.permutation(len(want))[:50]
    assert pol.context_rows(p, ctx, sel).tobytes() == want[sel].tobytes()
    assert pol.context_rows(p, pol.contexts(p, [])).shape == (0, k + 1)


def _chained_contexts(p, pairs):
    """The token array, context indices and positions of contexts built
    token by token: every sequence's PADs, canonical prompt and response
    through one np.fromiter. The oracle of contexts' layout."""
    pad = DEFAULT_VOCAB.id("PAD")
    seqs = [(pol.canonical_prompt(prompt), tuple(response))
            for prompt, response in pairs]
    tokens = np.fromiter((t for c, r in seqs
                          for t in (pad,) * (p.k - len(c)) + c + r),
                         dtype=np.int32)
    before, positions, end = [], [], 0
    for c, r in seqs:
        end += max(p.k, len(c)) + len(r)
        before += range(end - len(r) - 1, end - 1)
        positions += range(len(r))
    return tokens, np.array(before, np.intp), np.array(positions, np.intp)


@pytest.mark.parametrize("k", [1, 3, 48, 60])
def test_contexts_lay_out_the_bytes_of_the_token_by_token_build(k):
    """Prompts shorter and longer than PROMPT_MAX_LEN and than k, without
    BOS or empty, and empty responses: contexts (a memoized int32 array
    per canonical prompt) gives the same bytes as the token-by-token
    build, called twice, and as a response given as an array."""
    rng = np.random.default_rng(100 + k)
    p = small_params(k=k)
    pairs = _random_pairs(rng, 40) + [((), (5, 6)), ((), ()),
                                      ((DEFAULT_VOCAB.id("BOS"),), ())]
    rng.shuffle(pairs)
    want = _chained_contexts(p, pairs)
    for got in (pol.contexts(p, pairs), pol.contexts(p, pairs),
                pol.contexts(p, [(list(a), np.array(b, dtype=np.int64))
                                 for a, b in pairs])):
        for array, expect in zip((got.tokens, got.before, got.positions),
                                 want):
            assert array.dtype == expect.dtype
            assert array.tobytes() == expect.tobytes()
    head = pol._prompt_head(tuple(pairs[0][0]), DEFAULT_VOCAB.id("BOS"),
                            DEFAULT_VOCAB.id("PAD"), k)
    assert not head.flags.writeable  # the memo shares it
    assert pol._prompt_head.cache_info().maxsize == \
        pol._canonical.cache_info().maxsize


@pytest.mark.parametrize("bad", [V, -1, 2 ** 31, 2 ** 40])
def test_contexts_reject_an_out_of_range_id_anywhere(bad):
    rng = np.random.default_rng(0)
    p = small_params(k=3)
    pairs = _random_pairs(rng, 8)
    for i in (0, 4, 7):
        for part in (0, 1):
            for where in (0, -1):
                if not pairs[i][part]:
                    continue
                seq = list(pairs[i][part])
                seq[where] = bad
                broken = list(pairs)
                broken[i] = (tuple(seq), pairs[i][1]) if part == 0 else \
                    (pairs[i][0], tuple(seq))
                with pytest.raises(DomainError):
                    pol.contexts(p, broken)
    ctx = pol.contexts(p, pairs)
    # contexts are built for one (k, V), and index only their token array
    with pytest.raises(DomainError):
        pol.context_rows(small_params(k=4), ctx)
    for before in (ctx.before - ctx.before.min() - 1,
                   ctx.before + ctx.tokens.size):
        with pytest.raises(DomainError):
            pol.Contexts(ctx.tokens, before, ctx.positions, ctx.arch)


def test_ratio_one_for_unchanged_params():
    p = small_params(k=2, scale=0.2)
    prompt = (DEFAULT_VOCAB.id("BOS"),)
    r = pol.sample_rollout(p, prompt, 1.0, 15, mix(5))
    a = pol.sequence_logprobs(p, prompt, r.response_tokens)
    b = pol.sequence_logprobs(p.copy(), prompt, r.response_tokens)
    assert np.allclose(np.exp(a - b), 1.0, atol=1e-12)


# --- SFT ----------------------------------------------------------------------

def test_sft_schedule_shape():
    s = pol.SftSchedule(peak_lr=1.0, warmup_steps=15, total_steps=200)
    assert pol.lr_at(15, s) == 1.0
    assert pol.lr_at(0, s) < pol.lr_at(10, s) < 1.0
    assert pol.lr_at(s.total_steps - 1, s) <= 1e-3


def test_sft_initial_loss_near_log_v():
    from earl.taskgen import CorpusConfig, build_corpus
    corpus = build_corpus(CorpusConfig({"combinational-easy": 3},
                                       heldout_fraction=0.0), 1)
    p = pol.init_params(DEFAULT_VOCAB, 2, 0)
    _, losses = pol.train_sft(p, corpus.tasks,
                              pol.SftSchedule(peak_lr=0.0, total_steps=1))
    assert abs(losses[0] - math.log(V)) < 0.05


def test_sft_memorizes_single_task():
    from earl.minirtl.lexer import tokenize
    from earl.taskgen import CorpusConfig, build_corpus
    corpus = build_corpus(CorpusConfig({"combinational-easy": 1},
                                       heldout_fraction=0.0), 4)
    task = corpus.tasks[0]
    p = pol.init_params(DEFAULT_VOCAB, 8, 0)
    p, losses = pol.train_sft(p, [task],
                              pol.SftSchedule(peak_lr=2.0, warmup_steps=15,
                                              total_steps=2000))
    expected = tokenize(task.reference_text) + [DEFAULT_VOCAB.id("EOS")]
    # greedy decoding emits expected: a row's logits do not depend on the
    # other rows, and EOS ends expected
    rows = pol.feature_rows(p, task.prompt_tokens, expected)
    assert pol.logits(p, rows).argmax(axis=1).tolist() == expected
    assert losses[-1] < 0.05


def test_sft_and_rl_bytes_are_pinned(tiny_sft):
    """SFT and RL step W and b through one gradient and one update; the
    bytes after each are pinned, so a reordered product or a step scaled
    at another point shows."""
    from earl import rlcore as rl
    tasks, p = tiny_sft
    assert hashlib.sha256(p.W.tobytes() + p.b.tobytes()).hexdigest() == \
        "06b210c5ef9ac56693167f9a1a09d69da9895b7b58a7ee4abe382d00a3e85d10", \
        pin_message("SFT W/b bytes")
    cfg = rl.RlConfig(steps=6, batch_prompts=3, group_size=4,
                      max_resample_attempts=2, max_response_len=48, seed=3,
                      variant="earl", beta=0.01)
    p, metrics = rl.train_rl(cfg, p.copy(), tasks)
    assert sum(m.retained_groups > 0 for m in metrics) == 4
    assert hashlib.sha256(p.W.tobytes() + p.b.tobytes()).hexdigest() == \
        "4d864229011332c1c105ef9b674099e907904730c70606ace30f5c6bd9c8c12d", \
        pin_message("RL W/b bytes")


@pytest.mark.parametrize("field,value", [
    ("batch_contexts", 0), ("warmup_steps", -1), ("total_steps", -1),
    ("peak_lr", math.nan), ("peak_lr", math.inf), ("peak_lr", -8.0)])
def test_sft_schedule_validation(field, value):
    schedule = pol.SftSchedule(**{field: value})
    with pytest.raises(ConfigError, match=f"sft.{field}"):
        schedule.validate()
    p = pol.init_params(DEFAULT_VOCAB, 2, 0)
    with pytest.raises(ConfigError):
        pol.train_sft(p, [], schedule)


def _small_corpus():
    from earl.taskgen import CorpusConfig, build_corpus
    return build_corpus(CorpusConfig({"combinational-easy": 16,
                                      "register-easy": 8},
                                     heldout_fraction=0.0), 5).tasks


def test_sft_examples_are_flat_token_contexts_of_task_rows():
    """SFT keeps one flat int32 token array and its per-context indices;
    the rows a batch gets equal feature_rows for the same contexts."""
    from earl.minirtl.lexer import tokenize
    tasks = _small_corpus()
    p = pol.init_params(DEFAULT_VOCAB, 48, 0)
    ctx, targets = pol._sft_examples(p, tasks)
    eos = DEFAULT_VOCAB.id("EOS")
    responses = [tokenize(t.reference_text) + [eos] for t in tasks]
    want = np.concatenate([pol.feature_rows(p, t.prompt_tokens, r)
                           for t, r in zip(tasks, responses)])
    assert ctx.tokens.dtype == np.int32 and ctx.tokens.size == sum(
        max(48, len(pol.canonical_prompt(t.prompt_tokens))) + len(r)
        for t, r in zip(tasks, responses))
    assert targets.tolist() == [t for r in responses for t in r]
    sel = rng_for("sft-order", 0, 0).permutation(len(targets))[:512]
    rows = pol.context_rows(p, ctx, sel)
    assert rows.dtype == np.int32 and rows.flags.c_contiguous
    assert rows.tobytes() == want[sel].tobytes()
    assert pol.context_rows(p, ctx).tobytes() == want.tobytes()


def test_sft_examples_peak_memory_stays_near_the_flat_arrays():
    """_sft_examples holds the flat arrays and, while it builds them, one
    tuple per sequence: far less than the [n, k+1] int32 feature table,
    which is ~6 times the flat arrays here."""
    import tracemalloc
    tasks = _small_corpus()
    p = pol.init_params(DEFAULT_VOCAB, 48, 0)
    pol._sft_examples(p, tasks)  # first-use allocations are not counted
    tracemalloc.start()
    try:
        ctx, targets = pol._sft_examples(p, tasks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    flat = (ctx.tokens.nbytes + ctx.before.nbytes + ctx.positions.nbytes
            + targets.nbytes)
    assert peak < 1.75 * flat < len(targets) * 49 * 4 / 2


def test_rollout_rejects_mismatched_lengths():
    with pytest.raises(DomainError):
        pol.Rollout((1,), (3, 4), np.zeros(2), np.zeros(1), 1.0, False)


def test_sft_empty_corpus_rejected():
    p = pol.init_params(DEFAULT_VOCAB, 2, 0)
    with pytest.raises(DomainError):
        pol.train_sft(p, [], pol.SftSchedule())


# --- checkpoints --------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    p = small_params(k=3, scale=0.2)
    p.version = 17
    path = tmp_path / "p.ckpt"
    pol.save_checkpoint(p, path)
    q = pol.load_checkpoint(path)
    assert q.k == p.k and q.version == p.version
    assert np.array_equal(q.W, p.W) and np.array_equal(q.b, p.b)
    path2 = tmp_path / "p2.ckpt"
    pol.save_checkpoint(q, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_payload_is_vocab_major(tmp_path):
    p = small_params(k=3, scale=0.2)
    path = tmp_path / "p.ckpt"
    pol.save_checkpoint(p, path)
    data = path.read_bytes()
    start = len(b"EARLCKPT1\n")
    (hlen,) = struct.unpack("<I", data[start:start + 4])
    payload = np.frombuffer(data[start + 4 + hlen:], dtype="<f8")
    assert payload.size == V * (1 + p.F)
    assert np.array_equal(payload[:V], p.b)
    assert np.array_equal(payload[V:].reshape(V, p.F), p.W.T)
    q = pol.load_checkpoint(path)
    assert np.array_equal(q.W, p.W) and q.W.flags.c_contiguous


def test_checkpoint_rejects_garbage_and_wrong_hash(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(DomainError):
        pol.load_checkpoint(bad)
    p = small_params()
    path = tmp_path / "p.ckpt"
    pol.save_checkpoint(p, path)
    data = bytearray(path.read_bytes())
    # flip a character inside the stored vocab hash
    i = data.find(b'"vocab_hash": "') + len(b'"vocab_hash": "')
    data[i] = ord("0") if data[i] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    with pytest.raises(DomainError):
        pol.load_checkpoint(path)


def test_prompt_canonicalization_stable_offsets():
    bos = DEFAULT_VOCAB.id("BOS")
    short = (bos, 5, 6)
    canon = pol.canonical_prompt(short)
    assert len(canon) == PROMPT_MAX_LEN
    assert canon[0] == bos and canon[-2:] == (5, 6)


def test_canonical_prompts_are_memoized_per_bos_and_pad():
    """A prompt is canonicalized once per (prompt, BOS id, PAD id): a
    vocabulary with other ids gets its own canonical prompt, as the
    uncached rule gives it, and the memo keeps at most its bound."""
    from earl.minirtl.vocab import Vocab
    other = Vocab(tuple(reversed(DEFAULT_VOCAB.tokens)))

    def rule(prompt, vocab):
        bos, pad = vocab.id("BOS"), vocab.id("PAD")
        if len(prompt) >= PROMPT_MAX_LEN or not prompt or prompt[0] != bos:
            return tuple(prompt)
        return ((bos,) + (pad,) * (PROMPT_MAX_LEN - len(prompt))
                + tuple(prompt[1:]))

    for vocab in (DEFAULT_VOCAB, other, DEFAULT_VOCAB):
        bos = vocab.id("BOS")
        for prompt in [(bos, 5, 6), [bos, 7], (bos,), (), (5, bos),
                       (bos,) + (9,) * (PROMPT_MAX_LEN - 1)]:
            assert pol.canonical_prompt(prompt, vocab) == rule(prompt, vocab)
    assert (pol.canonical_prompt((other.id("BOS"), 5), other)
            != pol.canonical_prompt((other.id("BOS"), 5)))
    bound = pol._canonical.cache_info().maxsize
    for i in range(bound + 10):
        pol.canonical_prompt((DEFAULT_VOCAB.id("BOS"), i))
    assert pol._canonical.cache_info().currsize == bound
