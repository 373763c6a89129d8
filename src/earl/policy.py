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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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


def position_bucket(position: int) -> int:
    return min(position // POSITION_BUCKET_SPAN, POSITION_BUCKETS - 1)


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
    rows[:, k] = k * V + np.minimum(np.arange(T) // POSITION_BUCKET_SPAN,
                                    POSITION_BUCKETS - 1)
    return rows


def _advance_indices(params: PolicyParams, idx: np.ndarray, token,
                     position: int) -> None:
    """Shift feature rows (one [k+1] row, or a [B, k+1] batch with one token
    per row) by one emitted token, in place: the decoders' stepper from row 0
    of feature_rows."""
    V, k = params.V, params.k
    idx[..., 1:k] = idx[..., :k - 1] + V
    idx[..., 0] = token
    idx[..., k] = k * V + position_bucket(position)


def logits(params: PolicyParams, rows: np.ndarray) -> np.ndarray:
    """Logits [..., V] of feature rows [..., k+1]: ``design_matrix(rows) @ W
    + b``, the CSR x dense product SFT also runs.

    scipy starts each output row at 0 and adds the row's k+1 rows of W one
    after another, in index order. That is the order of the gather sum
    ``W[rows].sum(axis=-2)`` and of a vocab-major ``W.T[:, rows].sum(axis=-1)``,
    so every logit keeps its bytes; the sampled tokens and stored
    log-probabilities depend on it. No [..., k+1, V] gather is built."""
    z = design_matrix(rows.reshape(-1, params.k + 1), params.F) @ params.W
    z += params.b
    return z.reshape(rows.shape[:-1] + (params.V,))


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
    ``random()``, a right-sided search), so its tokens and bytes do not
    depend on the batch it is sampled in.
    """
    if temperature <= 0:
        raise DomainError("temperature must be > 0")
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    prompts, rngs = [tuple(p) for p in prompts], list(rngs)
    if len(prompts) != len(rngs):
        raise DomainError("sample_rollouts needs one generator per prompt")
    n, eos = len(prompts), params.vocab.id(EOS)
    tokens = np.zeros((n, max_len), dtype=np.int64)
    logprobs = np.zeros((n, max_len))
    entropies = np.zeros((n, max_len))
    lengths = np.full(n, max_len)
    active = np.arange(n)  # batch rows still sampling
    # rows 0 of feature_rows read the prompt only
    idx = np.array([feature_rows(params, p, (eos,))[0] for p in prompts],
                   dtype=np.int64).reshape(n, params.k + 1)
    for t in range(max_len):
        if not active.size:
            break
        # C-contiguous [A, V], so row sums below add in the order softmax()
        # and token_entropy() sum one vector
        z = logits(params, idx)
        z /= temperature
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        if not np.isfinite(p).all():
            raise DomainError("next-token probabilities are not finite")
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[i].random() for i in active])
        # rows of cdf are non-decreasing, so this count is
        # searchsorted(row, u, side="right")
        tok = (cdf <= u[:, None]).sum(axis=1)
        rows = np.arange(active.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.log(p)
            h = -(p * logp).sum(axis=1)
        for j in np.flatnonzero(np.isnan(h)):  # a probability underflowed
            h[j] = token_entropy(p[j])
        tokens[active, t] = tok
        logprobs[active, t] = logp[rows, tok]
        entropies[active, t] = h
        _advance_indices(params, idx, tok, t + 1)
        going = tok != eos
        lengths[active[~going]] = t + 1
        active, idx = active[going], idx[going]
    return [Rollout(prompts[i], tuple(tokens[i, :L].tolist()),
                    logprobs[i, :L].copy(), entropies[i, :L].copy(),
                    temperature, bool(tokens[i, L - 1] != eos))
            for i, L in enumerate(lengths.tolist())]


def sample_rollout(params: PolicyParams, prompt, temperature: float,
                   max_len: int, rng: np.random.Generator) -> Rollout:
    """One rollout through sample_rollouts."""
    return sample_rollouts(params, [prompt], temperature, max_len, [rng])[0]


def greedy_decode(params: PolicyParams, prompt, max_len: int) -> list[int]:
    eos = params.vocab.id(EOS)
    idx = feature_rows(params, prompt, (eos,))[0]  # reads the prompt only
    tokens: list[int] = []
    for t in range(max_len):
        tok = int(np.argmax(logits(params, idx)))
        tokens.append(tok)
        _advance_indices(params, idx, tok, t + 1)
        if tok == eos:
            break
    return tokens


def response_distributions(params: PolicyParams, prompt, response,
                           temperature: float = 1.0
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Next-token distributions at every response position, vectorized.

    Returns (rows, probs): feature-index rows [T, k+1] and probs [T, V].
    """
    if temperature <= 0:
        raise DomainError("temperature must be > 0")
    rows = feature_rows(params, prompt, response)
    z = logits(params, rows)
    z /= temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return rows, e / e.sum(axis=1, keepdims=True)


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

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "GradAccumulator":
        return cls(np.zeros_like(params.W), np.zeros_like(params.b))


def apply_update(params: PolicyParams, acc: GradAccumulator,
                 step_size: float) -> None:
    """In-place params += step_size * acc (ascent for positive step_size)."""
    params.W += step_size * acc.dW
    params.b += step_size * acc.db
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
    from .minirtl.lexer import tokenize  # local import to avoid cycle
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
    indptr = np.arange(0, (n + 1) * width, width, dtype=np.int64)
    return sparse.csr_matrix((np.ones(n * width), rows.ravel(), indptr),
                             shape=(n, F))


def train_sft(params: PolicyParams, tasks, schedule: SftSchedule
              ) -> tuple[PolicyParams, list[float]]:
    """Minimize mean per-token NLL of reference responses by gradient descent.

    Deterministic: minibatches are sequential slices of a per-epoch seeded
    permutation. Returns the trained params and the per-step loss log.
    """
    tasks = list(tasks)
    if not tasks:
        raise DomainError("train_sft requires a nonempty corpus")
    rows, targets = _sft_examples(params, tasks)
    X = design_matrix(rows, params.F)
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
        Xb, btgt = X[sel], targets[sel]
        z = Xb @ params.W + params.b[None, :]
        z -= z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        probs = expz / expz.sum(axis=1, keepdims=True)
        m = len(btgt)
        nll = float(-np.log(probs[np.arange(m), btgt]).mean())
        loss_log.append(nll)

        G = probs
        G[np.arange(m), btgt] -= 1.0
        G /= m
        lr = lr_at(step, schedule, total)
        grad = Xb.T @ G
        grad *= lr  # in place: one more W-sized temporary per step would be
        # returned to the OS and faulted back in on every step
        params.W -= grad
        params.b -= lr * G.sum(axis=0)
        params.version += 1
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
