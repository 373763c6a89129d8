"""Featurized autoregressive softmax policy over the MiniRTL vocabulary.

Architecture: a linear-softmax head over concatenated one-hot features of the
last ``k`` sequence tokens plus 8 coarse response-position buckets, so
F = k*V + 8. Log-probabilities, entropies, and parameter gradients are exact,
which keeps finite-difference verification tractable. A richer architecture
can replace this one behind the same operations without touching the RL core.

W is stored feature-major, [F, V], so a feature row's logits sum k+1
contiguous rows of W (``logits``); checkpoints keep the [V, F] byte order.

Prompts are canonicalized before featurization: PAD tokens are inserted after
BOS to bring every prompt to a fixed length, so specification fields sit at
stable window offsets across tasks. Sampling and scoring share the rule, so
stored and recomputed log-probabilities always agree.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .minirtl.lexer import tokenize
from .minirtl.vocab import BOS, EOS, PAD, DEFAULT_VOCAB, Vocab
from .seeds import rng_for

POSITION_BUCKETS = 8
POSITION_BUCKET_SPAN = 4  # bucket = min(position // span, 7)
PROMPT_PAD_LEN = 48

_CKPT_MAGIC = b"EARLCKPT1\n"
_CKPT_HEADER_TYPES = {"vocab_hash": str, "V": int, "k": int,
                      "version_counter": int}


@dataclass
class PolicyParams:
    vocab: Vocab
    k: int
    W: np.ndarray  # [F, V], C-contiguous; [V, F] in checkpoints
    b: np.ndarray  # [V]
    version: int = 0

    def __post_init__(self):
        if self.W.shape != (self.F, self.V) or self.b.shape != (self.V,):
            raise DomainError(
                f"policy weights W {self.W.shape}, b {self.b.shape}; want "
                f"W ({self.F}, {self.V}) and b ({self.V},)")

    @property
    def V(self) -> int:
        return self.vocab.size

    @property
    def F(self) -> int:
        return self.k * self.V + POSITION_BUCKETS

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.vocab, self.k, self.W.copy(), self.b.copy(),
                            self.version)


@dataclass
class Rollout:
    prompt_tokens: tuple[int, ...]
    response_tokens: tuple[int, ...]
    logprobs: np.ndarray
    entropies: np.ndarray
    temperature: float
    truncated: bool

    def __post_init__(self):
        assert len(self.response_tokens) == len(self.logprobs) \
            == len(self.entropies)


def init_params(vocab: Vocab, k: int, seed: int) -> PolicyParams:
    """Near-zero uniform init in [-0.01, 0.01]; deterministic given seed."""
    if k < 1:
        raise DomainError("context window k must be >= 1")
    rng = rng_for("policy-init", seed)
    V = vocab.size
    F = k * V + POSITION_BUCKETS
    W = rng.uniform(-0.01, 0.01, size=(V, F)).T.copy()  # draws stay [V, F]
    b = rng.uniform(-0.01, 0.01, size=V)
    return PolicyParams(vocab, k, W, b)


# --- featurization -----------------------------------------------------------

def canonical_prompt(prompt, vocab: Vocab = DEFAULT_VOCAB) -> tuple[int, ...]:
    """Left-pad the prompt body to PROMPT_PAD_LEN by inserting PAD after BOS."""
    prompt = tuple(prompt)
    if len(prompt) >= PROMPT_PAD_LEN or not prompt \
            or vocab.token(prompt[0]) != BOS:
        return prompt
    pad = vocab.id(PAD)
    return (prompt[0],) + (pad,) * (PROMPT_PAD_LEN - len(prompt)) + prompt[1:]


def position_bucket(position):
    """Position bucket of a response position, or of an array of them."""
    return np.minimum(position // POSITION_BUCKET_SPAN, POSITION_BUCKETS - 1)


def feature_rows(params: PolicyParams, prompt, response) -> np.ndarray:
    """Feature-index rows [T, k+1], one per response token: the k tokens
    before it in the canonical sequence (most recent first, PAD before the
    start), each offset into its slot, then its position bucket. Shared by
    sampling, re-scoring and SFT."""
    V, k = params.V, params.k
    pad = params.vocab.id(PAD)
    T = len(response)
    canon = canonical_prompt(prompt, params.vocab)
    seq = np.array((pad,) * k + canon + tuple(response[:-1]), dtype=np.int64)
    # seq offsets of tokens t-1, t-2, ..., t-k at t = 0
    back = np.arange(len(canon) + k - 1, len(canon) - 1, -1)
    rows = np.empty((T, k + 1), dtype=np.int64)
    rows[:, :k] = seq[np.arange(T)[:, None] + back]
    rows[:, :k] += np.arange(k, dtype=np.int64) * V
    rows[:, k] = k * V + position_bucket(np.arange(T))
    return rows


def _advance_indices(params: PolicyParams, idx: np.ndarray, token,
                     position: int) -> None:
    """Shift feature rows [B, k+1] by one emitted token per row, in place:
    the sampler's stepper from row 0 of feature_rows."""
    V, k = params.V, params.k
    idx[:, 1:k] = idx[:, :k - 1] + V
    idx[:, 0] = token
    idx[:, k] = k * V + position_bucket(position)


def logits(params: PolicyParams, rows: np.ndarray) -> np.ndarray:
    """Logits [n, V] of feature rows [n, k+1]: ``design_matrix(rows) @ W +
    b``; ``gradient`` is its transpose.

    scipy starts each output row at 0 and adds the row's k+1 rows of W one
    after another, in index order. That is the order of the gather sum
    ``W[rows].sum(axis=-2)`` and of a vocab-major ``W.T[:, rows].sum(axis=-1)``,
    so every logit keeps its bytes; the sampled tokens and stored
    log-probabilities depend on it. No [n, k+1, V] gather is built."""
    z = design_matrix(rows, params.F) @ params.W
    z += params.b
    return z


def distributions(params: PolicyParams, rows: np.ndarray,
                  temperature: float) -> np.ndarray:
    """Next-token distributions [n, V] of feature rows [n, k+1]: the softmax
    of logits / temperature, row by row, computed in place. The result is
    C-contiguous, so each row sums in the order softmax() sums one vector,
    and a row's bytes do not depend on the other rows. The one forward pass
    of sampling, re-scoring, the RL gradient and SFT."""
    z = logits(params, rows)
    z /= temperature
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def token_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; 0*log(0) contributes 0."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


# --- sampling and scoring ----------------------------------------------------

def sample_rollouts(params: PolicyParams, prompts, temperature: float,
                    max_len: int, rngs) -> list[Rollout]:
    """Sample one rollout per (prompt, rng) until EOS or max_len, all
    advancing together one token position at a time; records sampling-time
    logprobs and entropies.

    Each rollout draws from its own generator exactly as
    ``rng.choice(V, p=softmax(z / temperature))`` would (cumsum, one
    uniform, a right-sided search), so its tokens and bytes do not depend on
    the batch it is sampled in. A rollout's t-th uniform is its generator's
    t-th double, but generators advance in whole blocks of up to 64
    (``random(m)``), so one left over from a rollout that ended early is not
    where a ``random()`` per token would have left it.

    Rollouts with the same prompt and the same tokens so far share a node,
    and with it a feature row and a distribution: at each position the
    logits, softmax, CDF, log-probabilities and entropy are computed once per
    distinct node and spread to its rollouts.
    """
    if temperature <= 0:
        raise DomainError("temperature must be > 0")
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    prompts, rngs = [tuple(p) for p in prompts], list(rngs)
    if len(prompts) != len(rngs):
        raise DomainError("sample_rollouts needs one generator per prompt")
    n, eos, V = len(prompts), params.vocab.id(EOS), params.V
    tokens = np.zeros((n, max_len), dtype=np.int64)
    logprobs = np.zeros((n, max_len))
    entropies = np.zeros((n, max_len))
    lengths = np.full(n, max_len)
    active = np.arange(n)  # batch rows still sampling
    # rows 0 of feature_rows read the prompt only
    idx = np.array([feature_rows(params, p, (eos,))[0] for p in prompts],
                   dtype=np.int64).reshape(n, params.k + 1)
    first_of: dict = {}  # equal prompts start at one node
    node = np.array([first_of.setdefault(p, len(first_of)) for p in prompts],
                    dtype=np.int64)
    # uniforms per generator draw; the [144, 64] block of a default RL
    # step's rollouts stays under glibc's 128 KiB mmap threshold
    block = 64
    for t in range(max_len):
        if not active.size:
            break
        if t % block == 0:
            draws = np.array([rngs[i].random(min(block, max_len - t))
                              for i in active])
        _, first, inv = np.unique(node, return_index=True, return_inverse=True)
        p = distributions(params, idx[first], temperature)
        if not np.isfinite(p).all():
            raise DomainError("next-token probabilities are not finite")
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        u = draws[:, t % block]
        # rows of cdf are non-decreasing, so this count is
        # searchsorted(row, u, side="right")
        tok = (cdf[inv] <= u[:, None]).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.log(p)
            h = -(p * logp).sum(axis=1)
        for j in np.flatnonzero(np.isnan(h)):  # a probability underflowed
            h[j] = token_entropy(p[j])
        tokens[active, t] = tok
        logprobs[active, t] = logp[inv, tok]
        entropies[active, t] = h[inv]
        _advance_indices(params, idx, tok, t + 1)
        node = inv * V + tok
        going = tok != eos
        lengths[active[~going]] = t + 1
        active, idx, node, draws = (active[going], idx[going], node[going],
                                    draws[going])
    return [Rollout(prompts[i], tuple(tokens[i, :L].tolist()),
                    logprobs[i, :L].copy(), entropies[i, :L].copy(),
                    temperature, bool(tokens[i, L - 1] != eos))
            for i, L in enumerate(lengths.tolist())]


def sample_rollout(params: PolicyParams, prompt, temperature: float,
                   max_len: int, rng: np.random.Generator) -> Rollout:
    """One rollout through sample_rollouts."""
    return sample_rollouts(params, [prompt], temperature, max_len, [rng])[0]


def response_distributions(params: PolicyParams, prompt, response,
                           temperature: float = 1.0
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Next-token distributions at every response position, vectorized.

    Returns (rows, probs): feature-index rows [T, k+1] and probs [T, V].
    """
    if temperature <= 0:
        raise DomainError("temperature must be > 0")
    rows = feature_rows(params, prompt, response)
    return rows, distributions(params, rows, temperature)


def sequence_logprobs(params: PolicyParams, prompt, response,
                      temperature: float = 1.0) -> np.ndarray:
    """Per-token log-probabilities under params at the sampling contexts."""
    _, probs = response_distributions(params, prompt, response, temperature)
    toks = np.asarray(response, dtype=np.int64)
    return np.log(probs[np.arange(len(toks)), toks])


# --- gradients ---------------------------------------------------------------

@dataclass
class GradAccumulator:
    dW: np.ndarray
    db: np.ndarray


def gradient(params: PolicyParams, rows: np.ndarray,
             G: np.ndarray) -> GradAccumulator:
    """Gradient in W and b of a loss whose gradient in the logits of feature
    rows [n, k+1] is G [n, V]: the transpose of ``logits``. The one backward
    pass of SFT and RL."""
    db = np.zeros_like(params.b)
    db += G.sum(axis=0)  # a column of -0.0 sums to -0.0; db keeps +0.0
    # scipy starts every entry of the product at +0.0 and adds to it, so dW
    # has the bytes of zeros + product, without a W-sized zero fill
    dW = design_matrix(rows, params.F).T @ G
    return GradAccumulator(dW, db)


def apply_update(params: PolicyParams, acc: GradAccumulator,
                 step_size: float) -> None:
    """In-place params += step_size * acc (ascent for positive step_size,
    descent for negative). It consumes acc: the step is scaled inside
    acc.dW and acc.db, since one more W-sized temporary per update would be
    returned to the OS and faulted back in on every step. The one code
    that steps W and b."""
    acc.dW *= step_size
    params.W += acc.dW
    acc.db *= step_size
    params.b += acc.db
    params.version += 1


# --- supervised fine-tuning ---------------------------------------------------

@dataclass
class SftSchedule:
    peak_lr: float = 1.5
    warmup_steps: int = 15
    epochs: int = 3
    total_steps: int | None = None
    batch_contexts: int = 1024
    seed: int = 0

    def validate(self) -> None:
        if self.batch_contexts < 1:
            raise ConfigError("sft.batch_contexts: must be >= 1")
        if self.warmup_steps < 0:
            raise ConfigError("sft.warmup_steps: must be >= 0")
        if self.epochs < 1:
            raise ConfigError("sft.epochs: must be >= 1")
        if self.total_steps is not None and self.total_steps < 0:
            raise ConfigError("sft.total_steps: must be None or >= 0")
        if not math.isfinite(self.peak_lr):
            raise ConfigError("sft.peak_lr: must be finite")


def lr_at(step: int, schedule: SftSchedule, total_steps: int) -> float:
    """Linear warmup to peak at step == warmup_steps, then cosine decay to 0."""
    w = schedule.warmup_steps
    if step < w:
        return schedule.peak_lr * (step + 1) / (w + 1)
    if total_steps <= w + 1:
        return schedule.peak_lr
    frac = (step - w) / (total_steps - 1 - w)
    return schedule.peak_lr * 0.5 * (1.0 + np.cos(np.pi * min(frac, 1.0)))


def _sft_examples(params: PolicyParams, tasks):
    """Feature rows and target tokens of every reference response."""
    eos = params.vocab.id(EOS)
    rows, targets = [], []
    for task in tasks:
        response = tokenize(task.reference_text, params.vocab) + [eos]
        rows.append(feature_rows(params, task.prompt_tokens, response))
        targets += response
    return np.concatenate(rows), np.array(targets, dtype=np.int64)


def design_matrix(rows: np.ndarray, F: int):
    """Sparse one-hot design matrix [n, F] of feature rows [n, k+1]."""
    from scipy import sparse
    n, width = rows.shape
    # int32 indices, which scipy keeps as given; int64 ones it validates and
    # copies down to int32 on every call
    indptr = np.arange(0, (n + 1) * width, width, dtype=np.int32)
    return sparse.csr_matrix(
        (np.ones(n * width), rows.astype(np.int32).ravel(), indptr),
        shape=(n, F))


def train_sft(params: PolicyParams, tasks, schedule: SftSchedule
              ) -> tuple[PolicyParams, list[float]]:
    """Minimize mean per-token NLL of reference responses by gradient descent.

    Deterministic: minibatches are sequential slices of a per-epoch seeded
    permutation. Returns the trained params and the per-step loss log.
    """
    schedule.validate()
    tasks = list(tasks)
    if not tasks:
        raise DomainError("train_sft requires a nonempty corpus")
    rows, targets = _sft_examples(params, tasks)
    n = len(targets)
    bs = min(schedule.batch_contexts, n)
    steps_per_epoch = (n + bs - 1) // bs
    total = (schedule.total_steps if schedule.total_steps is not None
             else schedule.epochs * steps_per_epoch)
    loss_log: list[float] = []
    order = None
    for step in range(total):
        i = step % steps_per_epoch
        if i == 0:
            epoch = step // steps_per_epoch
            order = rng_for("sft-order", schedule.seed, epoch).permutation(n)
        sel = order[i * bs:(i + 1) * bs]
        brows, btgt = rows[sel], targets[sel]
        probs = distributions(params, brows, 1.0)
        m = len(btgt)
        nll = float(-np.log(probs[np.arange(m), btgt]).mean())
        loss_log.append(nll)

        G = probs  # d NLL / d logits, in place
        G[np.arange(m), btgt] -= 1.0
        G /= m
        lr = lr_at(step, schedule, total)
        apply_update(params, gradient(params, brows, G), -lr)
    return params, loss_log


# --- checkpoints ---------------------------------------------------------------

def save_checkpoint(params: PolicyParams, path) -> None:
    meta = {
        "schema_version": 1,
        "k": params.k,
        "V": params.V,
        "P": POSITION_BUCKETS,
        "vocab_hash": params.vocab.hash,
        "version_counter": params.version,
    }
    header = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(np.ascontiguousarray(params.b, dtype=np.float64).tobytes())
        # [V, F] byte order, without a transposed copy of W
        f.write(params.W.T.astype(np.float64, copy=False).tobytes())


def load_checkpoint(path, vocab: Vocab = DEFAULT_VOCAB) -> PolicyParams:
    with open(path, "rb") as f:
        magic = f.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise DomainError("not a policy checkpoint")
        hlen = f.read(4)
        if len(hlen) < 4:
            raise DomainError("checkpoint header length missing")
        try:
            meta = json.loads(f.read(struct.unpack("<I", hlen)[0]))
        except ValueError as e:  # not UTF-8, or not JSON
            raise DomainError(f"checkpoint header is not JSON: {e}") from None
        if not isinstance(meta, dict):
            raise DomainError("checkpoint header is not a JSON object")
        if meta.get("schema_version") != 1:
            raise DomainError("unsupported checkpoint schema version")
        for key, kind in _CKPT_HEADER_TYPES.items():
            if type(meta.get(key)) is not kind:
                raise DomainError(f"checkpoint header: {key!r} is missing or "
                                  f"not {kind.__name__}")
        if meta["vocab_hash"] != vocab.hash:
            raise DomainError("checkpoint vocab hash does not match")
        V, k = meta["V"], meta["k"]
        if V < 1 or k < 1:
            raise DomainError(f"checkpoint header: V {V} and k {k} must be "
                              ">= 1")
        F = k * V + POSITION_BUCKETS
        size = 8 * V * (1 + F)  # b, then W
        payload = f.read(size + 1)
    if len(payload) < size:
        raise DomainError(f"checkpoint payload truncated: {len(payload)} of "
                          f"{size} bytes")
    if len(payload) > size:
        raise DomainError(f"checkpoint has bytes past its {size}-byte payload")
    b = np.frombuffer(payload, dtype=np.float64, count=V).copy()
    W = np.frombuffer(payload, dtype=np.float64,
                      offset=8 * V).reshape(V, F).T.copy()
    return PolicyParams(vocab, k, W, b, meta["version_counter"])
