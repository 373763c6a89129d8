"""Entropy-gated group policy optimization.

Implements the clipped-surrogate objective family over groups of rollouts
sharing one prompt: group-normalized advantages, asymmetric (clip-higher)
ratio clipping, token-level normalization by the total retained token count,
an entropy gate restricting updates to tokens above a response-level entropy
quantile, KL regularization to a frozen reference policy, and the dynamic
sampling constraint that keeps only mixed-quality groups (0 < passes < G).

A variant is a row of VARIANTS: its clipping (symmetric at eps_low, or
clip-higher up to eps_high), its token gate ('none'; 'mask', the tokens at
or above the response's rho entropy quantile; or 'archer-weight', token
entropy over the response's maximum) and its advantage baseline ('std', or
'mean', which stands in for PPO without a critic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import policy as pol
from . import reward as rew
from .errors import ConfigError, DegenerateGroup, DomainError
from .seeds import mix, rng_for

ADV_STD_EPS = 1e-8


class Variant(NamedTuple):
    clip_higher: bool  # clip at [1-eps_low, 1+eps_high], else 1 +- eps_low
    gate: str          # 'none', 'mask' or 'archer-weight'
    baseline: str      # 'std' or 'mean'


VARIANTS = {
    "grpo": Variant(False, "none", "std"),
    "dapo": Variant(True, "none", "std"),
    "earl": Variant(True, "mask", "std"),
    "ppo-baseline": Variant(False, "none", "mean"),
    "archer": Variant(True, "archer-weight", "std"),
}


@dataclass(frozen=True)
class RlConfig:
    group_size: int = 6
    rho: float = 0.8
    eps_low: float = 0.2
    eps_high: float = 0.28
    beta: float = 0.01
    learning_rate: float = 8.0
    temperature: float = 1.0
    max_response_len: int = 256
    batch_prompts: int = 8
    max_resample_attempts: int = 2
    variant: str = "earl"
    steps: int = 500
    seed: int = 0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"rl.variant: unknown variant {self.variant!r}")
        if self.group_size < 2:
            raise ConfigError("rl.group_size: must be >= 2")
        if self.eps_low <= 0 or self.eps_high <= 0:
            raise ConfigError("rl.eps_low/eps_high: must be > 0")
        if self.temperature <= 0:
            raise ConfigError("rl.temperature: must be > 0")
        if self.max_response_len < 1:
            raise ConfigError("rl.max_response_len: must be >= 1")
        if self.batch_prompts < 1:
            raise ConfigError("rl.batch_prompts: must be >= 1")
        if self.steps < 0:
            raise ConfigError("rl.steps: must be >= 0")
        if self.max_resample_attempts < 0:
            raise ConfigError("rl.max_resample_attempts: must be >= 0")
        for name in ("beta", "learning_rate"):  # a negative beta rewards KL
            if getattr(self, name) < 0:
                raise ConfigError(f"rl.{name}: must be >= 0")
        for name in ("beta", "learning_rate", "rho", "eps_low", "eps_high",
                     "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"rl.{name}: must be finite")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rl.rho: must be in [0, 1)")

    def resolved_eps(self) -> tuple[float, float]:
        """Symmetric variants clip at eps_low on both sides."""
        if VARIANTS[self.variant].clip_higher:
            return self.eps_low, self.eps_high
        return self.eps_low, self.eps_low


@dataclass
class Group:
    task: object
    rollouts: list
    breakdowns: list
    rewards: np.ndarray

    @property
    def pass_count(self) -> int:
        return sum(1 for b in self.breakdowns if b.functional_pass)

    @property
    def size(self) -> int:
        return len(self.rollouts)


# --- gating -------------------------------------------------------------------

def entropy_threshold(entropies, rho: float) -> float:
    """Nearest-rank quantile: the ceil(rho*T)-th smallest entropy.

    rho = 0 returns -inf so that every token is selected.
    """
    h = np.asarray(entropies, dtype=float)
    if h.size < 1:
        raise ConfigError("entropy_threshold requires at least one token")
    if not 0.0 <= rho < 1.0:
        raise ConfigError("rho must be in [0, 1)")
    if rho == 0.0:
        return -math.inf
    rank = math.ceil(rho * h.size)
    return float(np.sort(h)[rank - 1])


def entropy_mask(entropies, tau: float) -> np.ndarray:
    """mask_t = 1 iff H_t >= tau (inclusive)."""
    return (np.asarray(entropies, dtype=float) >= tau).astype(float)


def archer_weights(entropies) -> np.ndarray:
    """w_t = H_t / max_s H_s; all-ones when every entropy is zero."""
    h = np.asarray(entropies, dtype=float)
    top = h.max() if h.size else 0.0
    if top <= 0.0:
        return np.ones_like(h)
    return h / top


def gate_values(entropies, mode: str, rho: float) -> np.ndarray:
    if mode == "none":
        return np.ones(len(entropies))
    if mode == "mask":
        return entropy_mask(entropies, entropy_threshold(entropies, rho))
    return archer_weights(entropies)


# --- advantages and filtering ---------------------------------------------------

def group_advantages(rewards, baseline: str = "std") -> np.ndarray:
    """Group-normalized advantages (population statistics).

    'std': (R - mean)/(std + 1e-8); raises DegenerateGroup when the spread is
    (near-)zero, which filtered groups cannot exhibit under binary pass
    rewards. 'mean': R - mean (critic-free stand-in for PPO).
    """
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise ConfigError("group_advantages requires G >= 2")
    mean = r.mean()
    if baseline == "mean":
        return r - mean
    std = r.std()
    if std < 1e-12:
        raise DegenerateGroup(f"zero reward spread in group: {r.tolist()}")
    return (r - mean) / (std + ADV_STD_EPS)


def filter_groups(groups) -> list:
    """Dynamic sampling: retain exactly the mixed groups, 0 < c < G."""
    return [g for g in groups if 0 < g.pass_count < g.size]


# --- surrogate coefficients ------------------------------------------------------

def per_token_coefficients(new_logprobs, old_logprobs, advantages, gates,
                           eps_low: float, eps_high: float, token_total: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clip rule, for the objective and its gradient: the per-token
    gated surrogate, the per-token scalar coefficients of the log-prob
    gradient, and the mask of the tokens whose clipped branch is active.

    surrogate_t = gate_t*min(r_t*A_t, clip(r_t, 1-eps_low, 1+eps_high)*A_t),
    A_t a scalar or one advantage per token. When the unclipped branch is
    active the gradient coefficient is gate_t*r_t*A_t / token_total; the
    clipped branch carries zero gradient. Ties count as unclipped (the
    branches agree there).
    """
    r = np.exp(np.asarray(new_logprobs) - np.asarray(old_logprobs))
    unclipped = r * advantages
    clipped = np.clip(r, 1.0 - eps_low, 1.0 + eps_high) * advantages
    active_unclipped = unclipped <= clipped
    g = np.asarray(gates, dtype=float)
    coeffs = np.where(active_unclipped, g * unclipped / token_total, 0.0)
    return g * np.minimum(unclipped, clipped), coeffs, ~active_unclipped


# --- batch preparation, objective, gradient ---------------------------------------

@dataclass
class PreparedBatch:
    """One RL batch: everything an update reads that pi_new does not change.
    Rollout j of ``rollouts`` (the groups' rollouts in group order) has
    advantage ``advantages[j]`` and owns tokens ``bounds[j]:bounds[j+1]`` of
    the token axis, on which the per-token arrays hold one entry per token.
    A mini-batch is the prepare_batch of a subset of the groups."""
    groups: list            # retained Groups with a reward spread
    rollouts: list          # their rollouts, in (group, rollout) order
    advantages: np.ndarray  # one per rollout
    gates: np.ndarray       # one per token
    bounds: list            # token offsets, len(rollouts) + 1 ints
    rows: np.ndarray        # feature rows [n, k+1]
    toks: np.ndarray        # response tokens [n]
    old_lp: np.ndarray      # pi_old's log-prob of each token, as sampled [n]
    ref_logp: np.ndarray | None  # log pi_ref [n, V]; None if beta == 0
    arch: tuple             # (k, V) of the policies the rows index

    @property
    def token_total(self) -> int:
        return self.bounds[-1]

    @property
    def token_advantages(self) -> np.ndarray:
        return np.repeat(self.advantages, np.diff(self.bounds))

    @property
    def gated_fraction(self) -> float:
        """Mean gate value per token: the share of tokens a 0/1 mask keeps,
        the mean weight under archer-weight."""
        n = self.token_total
        return _rollout_sum(self, self.gates) / n if n else 0.0


def _rollout_sum(batch: PreparedBatch, values: np.ndarray) -> float:
    """Sum of per-token values, added rollout by rollout: the bytes of the
    logged metrics depend on this order."""
    total = 0.0
    for a, b in zip(batch.bounds, batch.bounds[1:]):
        total += float(values[a:b].sum())
    return total


def prepare_batch(groups, config: RlConfig, pi_ref: pol.PolicyParams
                  ) -> PreparedBatch:
    """The batch of the retained groups, degenerate ones dropped. Rows are
    independent, so one context_rows call over every rollout and one pi_ref
    distributions call give the bytes of laying out rollout by rollout."""
    variant = VARIANTS[config.variant]
    # each list starts with an empty array, so a batch of no group concatenates
    kept, advantages = [], [np.zeros(0)]
    for g in groups:
        try:
            advantages.append(group_advantages(g.rewards, variant.baseline))
        except DegenerateGroup:
            continue
        kept.append(g)
    rollouts = [r for g in kept for r in g.rollouts]
    gates = [np.zeros(0)] + [gate_values(r.entropies, variant.gate,
                                         config.rho) for r in rollouts]
    bounds = [0, *accumulate(len(r.response_tokens) for r in rollouts)]
    rows = pol.context_rows(pi_ref, pol.contexts(
        pi_ref, [(r.prompt_tokens, r.response_tokens) for r in rollouts]))
    toks = np.array([t for r in rollouts for t in r.response_tokens],
                    dtype=np.int64)
    old_lp = np.concatenate([np.zeros(0)] + [r.logprobs for r in rollouts])
    ref_logp = (np.log(pol.distributions(pi_ref, rows, config.temperature))
                if config.beta != 0.0 else None)
    return PreparedBatch(kept, rollouts, np.concatenate(advantages),
                         np.concatenate(gates), bounds, rows, toks, old_lp,
                         ref_logp, (pi_ref.k, pi_ref.V))


def _pi_new_terms(batch: PreparedBatch, pi_new: pol.PolicyParams,
                  config: RlConfig):
    """pi_new over the batch's rows: p_new [n, V], the per-token surrogate,
    gradient coefficients and clipped mask of per_token_coefficients and,
    None when beta == 0, s = log p_new - log p_ref [n, V] and the per-token
    KL(p_new || p_ref). Only reads the batch."""
    if (pi_new.k, pi_new.V) != batch.arch:
        raise DomainError(f"pi_new's (k, V) is not the batch's {batch.arch}")
    p_new = pol.distributions(pi_new, batch.rows, config.temperature)
    new_lp = np.log(p_new[np.arange(len(batch.toks)), batch.toks])
    surr, coeffs, clipped = per_token_coefficients(
        new_lp, batch.old_lp, batch.token_advantages, batch.gates,
        *config.resolved_eps(), batch.token_total)
    s = kl = None
    if batch.ref_logp is not None:
        s = np.log(p_new)
        s -= batch.ref_logp
        kl = (p_new * s).sum(axis=1)
    return p_new, surr, coeffs, clipped, s, kl


def objective_value(batch: PreparedBatch, pi_new: pol.PolicyParams,
                    config: RlConfig) -> float:
    """Scalar objective consistent with the assembled gradient: token-level
    normalized gated surrogate minus beta times the KL to pi_ref on every
    token. The ratio's denominator is each rollout's sampling-time
    log-probs."""
    if batch.token_total == 0:
        return 0.0
    _, surr, _, _, _, kl = _pi_new_terms(batch, pi_new, config)
    total = 0.0
    for a, b in zip(batch.bounds, batch.bounds[1:]):
        total += float(surr[a:b].sum())
        if kl is not None:
            total -= config.beta * float(kl[a:b].sum())
    return total / batch.token_total


def assemble_gradient(batch: PreparedBatch, pi_new: pol.PolicyParams,
                      config: RlConfig
                      ) -> tuple[pol.GradAccumulator, float, float]:
    """Gradient of objective_value in pi_new from one pi_new pass over the
    batch: the logit gradient is written in place into p_new (its KL term
    into s), so the batch itself is left unchanged. Returns (accumulator,
    clip rate, mean per-token KL); the accumulator holds the W rows the
    batch's feature rows read (policy.gradient)."""
    n = batch.token_total
    G, _, coeffs, clipped, d, kl = _pi_new_terms(batch, pi_new, config)
    if kl is not None:
        d -= kl[:, None]  # p_new * (s - kl) * -beta / n, in place
        d *= G
        d *= -config.beta / n if n else 0.0
    # d/dz of coeff * log p(tok): (one-hot - p) * coeff / T, in place
    np.negative(G, out=G)
    G *= coeffs[:, None]
    G[np.arange(n), batch.toks] += coeffs
    if kl is not None:
        G += d
    G /= config.temperature
    clip_rate = int(clipped.sum()) / n if n else 0.0
    mean_kl = _rollout_sum(batch, kl) / n if kl is not None and n else 0.0
    return pol.gradient(pi_new, batch.rows, G), clip_rate, mean_kl


# --- training loop -----------------------------------------------------------

def sample_groups(params: pol.PolicyParams, tasks, G: int,
                  temperature: float, max_len: int, rng_parts) -> list[Group]:
    """G rollouts per task, all sampled in one batch, then scored. Rollout g
    of task i draws from the stream seeded mix(*rng_parts[i], g), the one
    rng_for(*rng_parts[i], g) returns, so its bytes do not depend on the
    batch: train_rl samples every resample attempt of a step in one call,
    and eval_suite several tasks per call. score is pure, so each distinct
    (task, response, truncated) is scored once per call."""
    pol.require_minirtl_vocab(params, "sample_groups")
    tasks = list(tasks)
    rollouts = pol.sample_rollouts(
        params, [t.prompt_tokens for t in tasks for _ in range(G)],
        temperature, max_len,
        [mix(*parts, g) for parts in rng_parts for g in range(G)])
    scored: dict = {}  # keyed by id(task): tasks holds every task
    groups = []
    for i, task in enumerate(tasks):
        rs = rollouts[i * G:(i + 1) * G]
        breakdowns = []
        for r in rs:
            key = (id(task), r.response_tokens, r.truncated)
            if key not in scored:
                scored[key] = rew.score(r.response_tokens, task,
                                        truncated=r.truncated)
            breakdowns.append(scored[key])
        groups.append(Group(task, rs, breakdowns,
                            np.array([bd.reward for bd in breakdowns])))
    return groups


def sample_group(params: pol.PolicyParams, task, config: RlConfig,
                 rng_parts: tuple) -> Group:
    """One task's group through sample_groups."""
    return sample_groups(params, [task], config.group_size,
                         config.temperature, config.max_response_len,
                         [rng_parts])[0]


@dataclass
class StepMetrics:
    step: int
    mean_reward: float
    pass_rate: float
    clip_rate: float
    gated_fraction: float
    mean_kl: float
    mean_entropy: float
    retained_groups: int

    def row(self) -> list:
        return [getattr(self, name) for name in METRIC_COLUMNS]


METRIC_COLUMNS = tuple(f.name for f in fields(StepMetrics))


def metrics_to_csv(metrics) -> str:
    from .analysis import csv_text  # analysis imports rlcore
    return csv_text(METRIC_COLUMNS, (m.row() for m in metrics))


def train_rl(config: RlConfig, params: pol.PolicyParams, train_tasks
             ) -> tuple[pol.PolicyParams, list[StepMetrics]]:
    """Entropy-aware RL from an SFT initialization.

    Per step: draw the prompt batch of every attempt 0..max_resample_attempts
    (rng_for(seed, "rl-prompts", step, attempt), in attempt order), sample G
    rollouts each from params in one batch, and score them. params stay fixed
    until the step's update, so the rollouts' stored log-probs are the old
    policy's, and each rollout draws from its own generator, so sampling the
    attempts together gives the bytes of sampling them one by one. Walk the
    attempts in order, keeping mixed groups, and stop at the first attempt
    that fills batch_prompts; later attempts' groups are dropped. Then
    compute advantages/gates/coefficients, ascend the objective, and log one
    metrics row. pi_ref is frozen to the incoming params.
    """
    config.validate()
    tasks = list(train_tasks)
    if not tasks:
        raise ConfigError("train_rl requires at least one training task")
    pi_ref = params.copy()
    n_prompts = min(config.batch_prompts, len(tasks))
    attempts = range(config.max_resample_attempts + 1)
    metrics: list[StepMetrics] = []
    for step in range(config.steps):
        # attempt 0's draw comes first: it starts the step
        drawn = [rng_for(config.seed, "rl-prompts", step, attempt).choice(
                     len(tasks), size=n_prompts, replace=False)
                 for attempt in attempts]
        sampled = sample_groups(
            params, [tasks[int(i)] for idx in drawn for i in idx],
            config.group_size, config.temperature, config.max_response_len,
            [(config.seed, "rl-rollout", step, attempt, int(i))
             for attempt, idx in zip(attempts, drawn) for i in idx])
        groups: list[Group] = []
        for attempt in attempts:
            groups += sampled[attempt * n_prompts:(attempt + 1) * n_prompts]
            retained = filter_groups(groups)
            if len(retained) >= config.batch_prompts:
                break

        all_rewards = np.concatenate([g.rewards for g in groups])
        all_pass = sum(g.pass_count for g in groups)
        n_roll = sum(g.size for g in groups)
        ent = np.concatenate([r.entropies for g in groups
                              for r in g.rollouts])
        mean_entropy = float(ent.mean()) if ent.size else 0.0

        batch = prepare_batch(retained, config, pi_ref)
        if batch.token_total:
            acc, clip_rate, mean_kl = assemble_gradient(batch, params, config)
            pol.apply_update(params, acc, config.learning_rate)
        else:
            # No trainable group: skip the update, log the empty step.
            clip_rate, mean_kl = 0.0, 0.0
        metrics.append(StepMetrics(
            step=step,
            mean_reward=float(all_rewards.mean()),
            pass_rate=all_pass / n_roll,
            clip_rate=clip_rate,
            gated_fraction=batch.gated_fraction,
            mean_kl=mean_kl,
            mean_entropy=mean_entropy,
            retained_groups=len(batch.groups),
        ))
    return params, metrics
