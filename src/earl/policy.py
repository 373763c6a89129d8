"""Featurized autoregressive softmax policy over the MiniRTL vocabulary.

Architecture: a linear-softmax head over concatenated one-hot features of the
last ``k`` sequence tokens plus 8 coarse response-position buckets, so
F = k*V + 8. Log-probabilities, entropies, and parameter gradients are exact,
which keeps finite-difference verification tractable. A richer architecture
can replace this one behind the same operations without touching the RL core.

W is stored feature-major, [F, V], so a feature row's logits sum k+1
contiguous rows of W (``logits``); checkpoints keep the [V, F] byte order.
``logits`` and its transpose ``gradient`` call the kernel that scipy's
sparse ``@`` runs (``_sparsetools.csr_matvecs`` and ``csc_matvecs``) on the
feature rows as they are: building and validating a ``csr_matrix`` around
them cost ~100-130 us a call in the sampling loop, which calls ``logits``
~74 times per default RL step, about as much as the products themselves.

Featurization has one path: ``contexts`` lays many (prompt, response)
sequences out in one flat int32 token array, checked once, and
``context_rows`` builds the feature rows of any of their contexts in one
gather. ``feature_rows`` is the two on one sequence; the sampler's first
rows, the RL batch and each SFT batch are one call each. SFT keeps the flat
array and its per-context indices (~0.5 MB for the default corpus), not an
[n, k+1] feature table (~3.6 MB). Feature rows are int32 from the start,
the index dtype the kernel reads, so no kernel call copies or converts them.

Gradients are the size of the batch: ``gradient`` keeps the rows of X.T @ G
that the batch reads (~2,500 of 6,008 for a 512-context SFT batch at k =
48), and ``apply_update`` adds them into W through the same kernel.

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
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConfigError, DomainError
from .minirtl.lexer import tokenize
from .minirtl.vocab import BOS, EOS, PAD, PROMPT_MAX_LEN, DEFAULT_VOCAB, Vocab
from .seeds import rng_for

POSITION_BUCKETS = 8
POSITION_BUCKET_SPAN = 4  # bucket = min(position // span, 7)
# Distinct prompts _canonical and _prompt_head each keep, the least recently
# used dropped first: about three times the 625 tasks of the default corpus.
# An entry holds ~0.6 KB.
_CANONICAL_CACHE_SIZE = 2048

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
        # the update writes W through W.ravel(), which must be a view
        for name, a in (("W", self.W), ("b", self.b)):
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.flags.c_contiguous):
                raise DomainError(f"policy weights: {name} must be a "
                                  "C-contiguous float64 array")
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
        if not len(self.response_tokens) == len(self.logprobs) \
                == len(self.entropies):
            raise DomainError(
                f"rollout of {len(self.response_tokens)} tokens has "
                f"{len(self.logprobs)} logprobs and {len(self.entropies)} "
                "entropies")


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
    """Left-pad the prompt body to PROMPT_MAX_LEN by inserting PAD after BOS."""
    return _canonical(tuple(prompt), vocab.id(BOS), vocab.id(PAD))


@lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _canonical(prompt: tuple, bos: int, pad: int) -> tuple[int, ...]:
    """canonical_prompt of a prompt tuple, given the vocabulary's BOS and
    PAD ids, which are all it reads of the vocabulary: memoized, since a
    task's prompt is canonicalized on every sampler call, RL batch and eval
    batch. The value is a tuple, never mutated."""
    if len(prompt) >= PROMPT_MAX_LEN or not prompt or prompt[0] != bos:
        return prompt
    return (prompt[0],) + (pad,) * (PROMPT_MAX_LEN - len(prompt)) + prompt[1:]


@lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _prompt_head(prompt: tuple, bos: int, pad: int, k: int) -> np.ndarray:
    """What a sequence of the prompt starts with in ``contexts``, as a
    read-only int32 array: the PADs its first context reads (k less the
    canonical prompt's length, if positive), then the canonical prompt.
    Memoized and bounded as _canonical is, so each call copies a task's
    prompt with one slice assignment. OverflowError on an id past int32."""
    canonical = _canonical(prompt, bos, pad)
    head = np.array((pad,) * (k - len(canonical)) + canonical,
                    dtype=np.int32)
    head.flags.writeable = False
    return head


def position_bucket(position):
    """Position bucket of a response position, or of an array of them."""
    return np.minimum(position // POSITION_BUCKET_SPAN, POSITION_BUCKETS - 1)


@dataclass(frozen=True)
class Contexts:
    """Many contexts over one flat int32 token array, built by ``contexts``:
    each sequence is laid out as the PADs its first context reads (k less
    the prompt's length, if positive), its canonical prompt and its
    response. Context i reads the k tokens ending at ``tokens[before[i]]``
    (most recent first) and the bucket of response position
    ``positions[i]``. The ids are checked against [0, V) once, here: the
    one-hot kernel reads feature rows unchecked."""
    tokens: np.ndarray     # [N] int32
    before: np.ndarray     # [n] intp, each in [k-1, N)
    positions: np.ndarray  # [n] intp
    arch: tuple            # (k, V) of the policies the contexts feed

    def __post_init__(self):
        k, V = self.arch
        if self.tokens.size and (self.tokens.min() < 0
                                 or self.tokens.max() >= V):
            raise DomainError(f"token ids must be in [0, {V})")
        if self.before.size and (self.before.min() < k - 1 or
                                 self.before.max() >= self.tokens.size):
            raise DomainError("context indices outside the token array")


def contexts(params: PolicyParams, pairs) -> Contexts:
    """The Contexts of every response token of (prompt, response) pairs, in
    pair order. Raises on a token id outside [0, V)."""
    k, bos, pad = params.k, params.vocab.id(BOS), params.vocab.id(PAD)
    heads, responses = [], []
    try:
        for prompt, response in pairs:
            heads.append(_prompt_head(tuple(prompt), bos, pad, k))
            responses.append(response)
        T = np.fromiter(map(len, responses), np.intp, len(responses))
        response_tokens = np.fromiter(chain.from_iterable(responses),
                                      np.int32, int(T.sum()))
    except OverflowError:  # an id past int32
        raise DomainError(f"token ids must be in [0, {params.V})") from None
    ends = np.cumsum(np.fromiter(map(len, heads), np.intp, len(heads)) + T)
    starts = ends - T  # each response's first index
    tokens = np.empty(int(ends[-1]) if heads else 0, dtype=np.int32)
    for head, start in zip(heads, starts.tolist()):
        tokens[start - len(head):start] = head
    positions = np.arange(len(response_tokens), dtype=np.intp)
    positions -= np.repeat(np.cumsum(T) - T, T)
    before = np.repeat(starts - 1, T)  # each response's last prompt token
    before += positions
    # the token after each context is one response token, and every
    # response token follows one context
    tokens[before + 1] = response_tokens
    return Contexts(tokens, before, positions, (k, params.V))


def context_rows(params: PolicyParams, ctx: Contexts,
                 sel=None) -> np.ndarray:
    """Feature-index rows [n, k+1], C-contiguous int32, of the contexts
    ``sel`` selects (all of them by default), in that order: the k tokens
    before each (most recent first), each offset into its slot, then its
    position bucket. The one featurization of sampling, RL and SFT.

    The slot tokens are one gather from a strided view of the token array
    whose row i is the window ending at tokens[i + k - 1], read backwards:
    about half the time of an np.take over an [n, k] index array, which
    this does not build."""
    if ctx.arch != (params.k, params.V):
        raise DomainError(f"contexts of (k, V) {ctx.arch} for a policy of "
                          f"{(params.k, params.V)}")
    V, k = params.V, params.k
    before, positions = ((ctx.before, ctx.positions) if sel is None
                         else (ctx.before[sel], ctx.positions[sel]))
    rows = np.empty((len(before), k + 1), dtype=np.int32)
    if len(before):  # then the array holds at least k tokens
        t, step = ctx.tokens, ctx.tokens.itemsize
        windows = np.ndarray((t.size - k + 1, k), t.dtype, t,
                             (k - 1) * step, (step, -step))
        np.add(windows[before - (k - 1)],
               np.arange(0, k * V, V, dtype=np.int32), out=rows[:, :k])
    rows[:, k] = k * V + position_bucket(positions)
    return rows


def feature_rows(params: PolicyParams, prompt, response) -> np.ndarray:
    """Feature-index rows [T, k+1] of one (prompt, response) pair, one per
    response token: ``context_rows`` of its ``contexts``. Raises on a token
    id outside [0, V)."""
    return context_rows(params, contexts(params, [(prompt, response)]))


def _advance_indices(params: PolicyParams, idx: np.ndarray, token,
                     position: int) -> None:
    """Shift feature rows [B, k+1] by one emitted token per row, in place:
    the sampler's stepper from the first context_rows row of a response."""
    V, k = params.V, params.k
    idx[:, 1:k] = idx[:, :k - 1] + V
    idx[:, 0] = token
    idx[:, k] = k * V + position_bucket(position)


def logits(params: PolicyParams, rows: np.ndarray) -> np.ndarray:
    """Logits [n, V] of feature rows [n, k+1]: X @ W + b for the one-hot
    design matrix X [n, F] of the rows; ``gradient`` is its transpose.

    ``csr_matvecs`` starts each output row at 0 and adds the row's k+1 rows
    of W one after another, in index order. That is the order of the gather
    sum ``W[rows].sum(axis=-2)`` and of a vocab-major
    ``W.T[:, rows].sum(axis=-1)``, so every logit keeps its bytes; the
    sampled tokens and stored log-probabilities depend on it. Neither an
    [n, k+1, V] gather nor a sparse matrix object is built."""
    z = np.zeros((len(rows), params.V))
    _onehot_product(rows, params.W, z, transposed=False)
    z += params.b
    return z


def distributions(params: PolicyParams, rows: np.ndarray,
                  temperature: float) -> np.ndarray:
    """Next-token distributions [n, V] of feature rows [n, k+1]: the softmax
    of logits / temperature, row by row, computed in place. The result is
    C-contiguous, so each row sums in the order a one-row softmax sums its
    vector, and a row's bytes do not depend on the other rows. The one
    forward pass of sampling, the RL batch and gradient, and SFT."""
    z = logits(params, rows)
    if temperature != 1.0:  # z / 1.0 is z
        z /= temperature
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def token_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; 0*log(0) contributes 0."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


# --- sampling and scoring ----------------------------------------------------

def sample_rollouts(params: PolicyParams, prompts, temperature: float,
                    max_len: int, seeds) -> list[Rollout]:
    """Sample one rollout per (prompt, seed) until EOS or max_len, all
    advancing together one token position at a time; records sampling-time
    logprobs and entropies.

    Rollout i draws from the stream ``np.random.default_rng(seeds[i])``
    exactly as ``rng.choice(V, p=p)`` would, p the softmax of the logits
    over temperature (cumsum, one uniform, a right-sided search), so its
    tokens and bytes do not depend on the batch it is sampled in. Each
    stream's max_len uniforms are drawn in one call before the first token,
    and token t reads the stream's t-th double.

    Rollouts with the same prompt and the same tokens so far share a node.
    The sampler keeps one feature row per distinct node and ``inv``, each
    active rollout's node row; the logits, softmax, CDF, log-probabilities
    and entropy are computed once per node and spread through ``inv``. A
    child's row is its parent's row advanced by one token, and the distinct
    children are found with one stable argsort of parent * V + token (the
    order ``np.unique`` gives), skipped when every node has one rollout.
    """
    if temperature <= 0:
        raise DomainError("temperature must be > 0")
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    prompts, seeds = [tuple(p) for p in prompts], list(seeds)
    if len(prompts) != len(seeds):
        raise DomainError("sample_rollouts needs one seed per prompt")
    n, eos, V = len(prompts), params.vocab.id(EOS), params.V
    tokens = np.zeros((n, max_len), dtype=np.int64)
    logprobs = np.zeros((n, max_len))
    entropies = np.zeros((n, max_len))
    lengths = np.full(n, max_len)
    active = np.arange(n)  # batch rows still sampling
    first_of: dict = {}  # equal prompts start at one node
    inv = np.array([first_of.setdefault(p, len(first_of)) for p in prompts],
                   dtype=np.int64)
    # a response's first context reads the prompt only: one per distinct
    # prompt, whatever that response's token
    rows = context_rows(params, contexts(params,
                                         [(p, (eos,)) for p in first_of]))
    draws = np.empty((n, max_len))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).random(out=row)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(max_len):
            if not active.size:
                break
            p = distributions(params, rows, temperature)
            cdf = np.cumsum(p, axis=1)
            # a softmax row is in [0, 1], or all NaN (a NaN or +inf logit),
            # so its cumsum ends finite exactly when the whole row is finite
            if not np.isfinite(cdf[:, -1]).all():
                raise DomainError("next-token probabilities are not finite")
            cdf /= cdf[:, -1:]
            u = draws[active, t]
            # rows of cdf are non-decreasing, so this count is
            # searchsorted(row, u, side="right")
            tok = np.count_nonzero(cdf[inv] <= u[:, None], axis=1)
            logp = np.log(p)
            h = -(p * logp).sum(axis=1)
            for j in np.flatnonzero(np.isnan(h)):  # a probability underflowed
                h[j] = token_entropy(p[j])
            tokens[active, t] = tok
            logprobs[active, t] = logp[inv, tok]
            entropies[active, t] = h[inv]
            going = tok != eos
            lengths[active[~going]] = t + 1
            if len(rows) == active.size:  # distinct parents, distinct children
                parent, tok = inv[going], tok[going]
                inv = np.arange(parent.size)
            else:
                key = inv[going] * V + tok[going]
                order = np.argsort(key, kind="stable")
                key = key[order]
                new = np.empty(key.size, dtype=bool)
                new[:1] = True
                np.not_equal(key[1:], key[:-1], out=new[1:])
                inv = np.empty_like(order)
                inv[order] = np.cumsum(new) - 1
                parent, tok = np.divmod(key[new], V)
            rows = rows[parent]
            _advance_indices(params, rows, tok, t + 1)
            active = active[going]
    return [Rollout(prompts[i], tuple(tokens[i, :L].tolist()),
                    logprobs[i, :L].copy(), entropies[i, :L].copy(),
                    temperature, bool(tokens[i, L - 1] != eos))
            for i, L in enumerate(lengths.tolist())]


def sample_rollout(params: PolicyParams, prompt, temperature: float,
                   max_len: int, seed: int) -> Rollout:
    """One rollout through sample_rollouts."""
    return sample_rollouts(params, [prompt], temperature, max_len, [seed])[0]


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
    ids: np.ndarray  # [m] ascending int32 feature ids the batch reads
    dW: np.ndarray  # [m, V]: row j is the gradient in W[ids[j]]
    db: np.ndarray  # [V]


def gradient(params: PolicyParams, rows: np.ndarray,
             G: np.ndarray) -> GradAccumulator:
    """Gradient in W and b of a loss whose gradient in the logits of feature
    rows [n, k+1] is G [n, V]: X.T @ G through ``csc_matvecs``, the
    transpose of ``logits``, kept only at the rows the batch reads. The one
    backward pass of SFT and RL.

    The ids are found without a sort: mark them, take ``flatnonzero``, and
    map each id to its compact row with ``cumsum(mark) - 1``. The kernel
    then runs on the remapped rows into a zeroed [m, V] buffer, so each
    compact row sums the same contexts in the same order as the dense
    product does, and has its bytes; every other row of X.T @ G is +0.0."""
    idx = rows.astype(np.intp)  # numpy indexes fastest with intp
    mark = np.zeros(params.F, dtype=bool)
    mark[idx] = True
    ids = np.flatnonzero(mark).astype(np.int32)
    compact = np.take(np.cumsum(mark, dtype=np.int32) - 1, idx)
    dW = np.zeros((ids.size, params.V))
    _onehot_product(compact, G, dW, transposed=True)
    db = np.zeros_like(params.b)
    db += G.sum(axis=0)  # a column of -0.0 sums to -0.0; db keeps +0.0
    return GradAccumulator(ids, dW, db)


def _onehot_product(rows: np.ndarray, dense: np.ndarray, out: np.ndarray,
                    transposed: bool) -> None:
    """out += X @ dense, or out += X.T @ dense when transposed, for the
    one-hot design matrix X of feature rows [n, width]: the kernel scipy's
    ``@`` runs for a CSR matrix (X) and for its CSC transpose (X.T), given
    the arrays such a matrix holds (int32 indices, ones, a fixed indptr),
    without the matrix object. Into zeros, as that ``@`` runs it, it gives
    that product's bytes. C-contiguous int32 rows (feature_rows') are the
    kernel's indices as they are; others are converted once per call. Like
    that ``@``, it reads the indices unchecked: rows index dense (X @ dense)
    or out (X.T @ dense). out is C-contiguous float64 (a caller's zeros, or
    W as PolicyParams keeps it), so the kernel writes through out.ravel()."""
    from scipy.sparse import _sparsetools
    n, width = rows.shape
    M, N = (len(out), n) if transposed else (n, len(dense))
    # the kernel reads dense and writes out without bounds checks
    if dense.shape != (N, out.shape[1]) or len(out) != M:
        raise DomainError(f"one-hot product: dense {dense.shape} and out "
                          f"{out.shape} for {n} rows")
    kernel = (_sparsetools.csc_matvecs if transposed
              else _sparsetools.csr_matvecs)
    kernel(M, N, dense.shape[1],
           np.arange(0, (n + 1) * width, width, dtype=np.int32),
           rows.astype(np.int32, copy=False).ravel(), np.ones(n * width),
           dense.ravel(), out.ravel())


def apply_update(params: PolicyParams, acc: GradAccumulator,
                 step_size: float) -> None:
    """In-place params += step_size * acc (ascent for positive step_size,
    descent for negative). It consumes acc: the step is scaled inside
    acc.dW and acc.db. The one code that steps W and b.

    W[ids] += dW runs through the transposed one-hot kernel with one-slot
    rows ids[:, None] and W as its output, so no gather or scatter
    temporary is made; each touched entry gets the bytes of W + step * dW.
    Rows outside ids are not written: a -0.0 there stays -0.0, where adding
    a dense gradient's +0.0 made it +0.0."""
    if acc.ids.size and (acc.ids.min() < 0 or acc.ids.max() >= params.F):
        raise DomainError(f"gradient feature ids must be in [0, {params.F})")
    acc.dW *= step_size
    _onehot_product(acc.ids[:, None], acc.dW, params.W, transposed=True)
    acc.db *= step_size
    params.b += acc.db
    params.version += 1


# --- supervised fine-tuning ---------------------------------------------------

@dataclass
class SftSchedule:
    peak_lr: float = 8.0
    warmup_steps: int = 15
    total_steps: int = 6000
    batch_contexts: int = 512
    seed: int = 0

    def validate(self) -> None:
        if self.batch_contexts < 1:
            raise ConfigError("sft.batch_contexts: must be >= 1")
        if self.warmup_steps < 0:
            raise ConfigError("sft.warmup_steps: must be >= 0")
        if self.total_steps < 0:
            raise ConfigError("sft.total_steps: must be >= 0")
        if not 0.0 <= self.peak_lr < math.inf:
            raise ConfigError("sft.peak_lr: must be finite and >= 0")


def lr_at(step: int, schedule: SftSchedule) -> float:
    """Linear warmup to peak at step == warmup_steps, then cosine decay to 0."""
    w, total = schedule.warmup_steps, schedule.total_steps
    if step < w:
        return schedule.peak_lr * (step + 1) / (w + 1)
    if total <= w + 1:
        return schedule.peak_lr
    frac = (step - w) / (total - 1 - w)
    return schedule.peak_lr * 0.5 * (1.0 + np.cos(np.pi * min(frac, 1.0)))


def require_minirtl_vocab(params: PolicyParams, caller: str) -> None:
    """Raise unless params run over DEFAULT_VOCAB: SFT targets and sampled
    responses are read as MiniRTL token ids."""
    if params.vocab != DEFAULT_VOCAB:
        raise DomainError(f"{caller} requires a policy over the MiniRTL "
                          "vocabulary")


def _sft_examples(params: PolicyParams, tasks) -> tuple[Contexts,
                                                        np.ndarray]:
    """The Contexts of every reference response token, in task order, and
    their targets [n] (int32), the token after each context: the flat token
    array, not a feature table; train_sft builds each batch's rows from
    it."""
    eos = params.vocab.id(EOS)
    ctx = contexts(params, [(task.prompt_tokens,
                             tokenize(task.reference_text) + [eos])
                            for task in tasks])
    return ctx, ctx.tokens[ctx.before + 1]


def train_sft(params: PolicyParams, tasks, schedule: SftSchedule
              ) -> tuple[PolicyParams, list[float]]:
    """Minimize mean per-token NLL of reference responses by gradient descent.

    Deterministic: minibatches are sequential slices of a per-epoch seeded
    permutation. Returns the trained params and the per-step loss log.
    """
    schedule.validate()
    require_minirtl_vocab(params, "train_sft")
    tasks = list(tasks)
    if not tasks:
        raise DomainError("train_sft requires a nonempty corpus")
    ctx, targets = _sft_examples(params, tasks)
    n = len(targets)
    bs = min(schedule.batch_contexts, n)
    steps_per_epoch = (n + bs - 1) // bs
    loss_log: list[float] = []
    order = None
    for step in range(schedule.total_steps):
        i = step % steps_per_epoch
        if i == 0:
            epoch = step // steps_per_epoch
            order = rng_for("sft-order", schedule.seed, epoch).permutation(n)
        sel = order[i * bs:(i + 1) * bs]
        brows, btgt = context_rows(params, ctx, sel), targets[sel]
        probs = distributions(params, brows, 1.0)
        m = len(btgt)
        nll = float(-np.log(probs[np.arange(m), btgt]).mean())
        loss_log.append(nll)

        G = probs  # d NLL / d logits, in place
        G[np.arange(m), btgt] -= 1.0
        G /= m
        lr = lr_at(step, schedule)
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


def load_checkpoint(path) -> PolicyParams:
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
        if meta["vocab_hash"] != DEFAULT_VOCAB.hash:
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
    return PolicyParams(DEFAULT_VOCAB, k, W, b, meta["version_counter"])
