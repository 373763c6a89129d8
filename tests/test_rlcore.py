"""RL core: gating, advantages, filtering, coefficients, reductions.

Oracle values frozen from independent computation:
rewards (1,1,0,0,0,0): mean 1/3, population std = sqrt(2)/3, so
advantages = (+sqrt(2), +sqrt(2), -sqrt(2)/2 x4) up to the 1e-8 guard.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earl import policy as pol
from earl import rlcore as rl
from earl.errors import ConfigError, DegenerateGroup
from earl.minirtl.vocab import DEFAULT_VOCAB
from earl.seeds import rng_for
from earl.taskgen import CorpusConfig, build_corpus


# --- gating -------------------------------------------------------------------

def test_threshold_nearest_rank():
    h = [0.1, 0.5, 0.3, 0.2, 0.4]
    # rho=0.8, T=5 -> rank ceil(4)=4 -> 4th smallest = 0.4
    assert rl.entropy_threshold(h, 0.8) == 0.4
    assert rl.entropy_threshold(h, 0.0) == -math.inf


def test_mask_inclusive_and_count():
    h = np.array([0.1, 0.5, 0.3, 0.2, 0.4])
    tau = rl.entropy_threshold(h, 0.8)
    mask = rl.entropy_mask(h, tau)
    # selected count = T - ceil(rho*T) + 1
    assert mask.sum() == 5 - math.ceil(0.8 * 5) + 1
    assert mask[np.argmax(h)] == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0, 4), min_size=1, max_size=40, unique=True),
       st.floats(0.01, 0.99))
def test_mask_count_formula_on_distinct_entropies(h, rho):
    tau = rl.entropy_threshold(h, rho)
    mask = rl.entropy_mask(h, tau)
    T = len(h)
    assert mask.sum() == T - math.ceil(rho * T) + 1


def test_rho_zero_selects_everything():
    h = [0.0, 0.0, 1.0]
    mask = rl.entropy_mask(h, rl.entropy_threshold(h, 0.0))
    assert mask.sum() == 3


def test_archer_weights_normalized():
    w = rl.archer_weights([1.0, 2.0, 4.0])
    assert np.allclose(w, [0.25, 0.5, 1.0])
    assert np.allclose(rl.archer_weights([0.0, 0.0]), 1.0)


def test_invalid_rho_rejected():
    with pytest.raises(ConfigError):
        rl.entropy_threshold([1.0], 1.0)
    with pytest.raises(ConfigError):
        rl.entropy_threshold([], 0.5)


# --- advantages ---------------------------------------------------------------

def test_advantages_example_values():
    adv = rl.group_advantages([1, 1, 0, 0, 0, 0])
    s2 = math.sqrt(2)
    expect = np.array([s2, s2, -s2 / 2, -s2 / 2, -s2 / 2, -s2 / 2])
    assert np.allclose(adv, expect, atol=1e-6)
    assert abs(adv.sum()) < 1e-9


def test_advantages_degenerate_raises():
    with pytest.raises(DegenerateGroup):
        rl.group_advantages([0.5, 0.5, 0.5])


def test_mean_baseline_mode():
    adv = rl.group_advantages([1.0, 0.0], baseline="mean")
    assert np.allclose(adv, [0.5, -0.5])


def test_group_size_one_rejected():
    with pytest.raises(ConfigError):
        rl.group_advantages([1.0])


# --- filtering ----------------------------------------------------------------

def _group_with_passes(c, G=6):
    class Bd:
        def __init__(self, ok):
            self.functional_pass = ok
    rewards = np.array([1.0] * c + [0.0] * (G - c))
    return rl.Group(None, [None] * G, [Bd(i < c) for i in range(G)], rewards)


def test_filter_keeps_only_mixed_groups():
    groups = [_group_with_passes(c) for c in (0, 1, 3, 6)]
    kept = rl.filter_groups(groups)
    assert [g.pass_count for g in kept] == [1, 3]


# --- coefficients -------------------------------------------------------------

def test_coefficients_unclipped_branch():
    c, clipped = rl.per_token_coefficients(
        np.log([1.0]), np.log([1.0]), 2.0, [1.0], 0.2, 0.28, 10)
    assert np.allclose(c, [2.0 / 10])
    assert not clipped.any() and clipped.size == 1


def test_coefficients_clipped_branch_zero_gradient():
    # ratio 2.0 with positive advantage exceeds 1+eps_high -> clipped, 0
    c, clipped = rl.per_token_coefficients(
        np.log([2.0]), np.log([1.0]), 1.0, [1.0], 0.2, 0.28, 10)
    assert c[0] == 0.0 and clipped.tolist() == [True]
    # same ratio with negative advantage: unclipped branch is the min
    c, clipped = rl.per_token_coefficients(
        np.log([2.0]), np.log([1.0]), -1.0, [1.0], 0.2, 0.28, 10)
    assert np.allclose(c, [-2.0 / 10]) and clipped.tolist() == [False]


def test_coefficients_gate_masks_tokens():
    c, clipped = rl.per_token_coefficients(
        np.log([1.0, 1.0]), np.log([1.0, 1.0]), 1.0, [0.0, 1.0],
        0.2, 0.28, 4)
    assert c[0] == 0.0 and np.allclose(c[1], 0.25)
    assert not clipped.any()


def test_ties_count_as_unclipped():
    _, clipped = rl.per_token_coefficients(np.log([1.0]), np.log([1.0]),
                                           1.0, [1.0], 0.2, 0.28, 1)
    assert not clipped.any()


# --- config resolution --------------------------------------------------------

def _ones(h):
    return np.ones(len(h))


def test_variant_table_gates_advantages_and_eps():
    ents = [np.array([0.1, 0.5, 0.3, 0.2, 0.4]), np.array([0.0, 0.0]),
            np.array([2.0]), np.array([0.3, 0.9, 0.6])]
    rollouts = [pol.Rollout((1,), (3,) * len(h), np.zeros(len(h)), h, 1.0,
                            False) for h in ents]
    group = rl.Group(None, rollouts, [], np.array([1.0, 1.0, 0.0, 0.0]))
    # (gate of entropies h, advantages, eps) per variant, at rho 0.5
    expect = {
        "grpo": (_ones, [1, 1, -1, -1], (0.2, 0.2)),
        "dapo": (_ones, [1, 1, -1, -1], (0.2, 0.28)),
        "earl": (lambda h: rl.entropy_mask(h, rl.entropy_threshold(h, 0.5)),
                 [1, 1, -1, -1], (0.2, 0.28)),
        "ppo-baseline": (_ones, [0.5, 0.5, -0.5, -0.5], (0.2, 0.2)),
        "archer": (rl.archer_weights, [1, 1, -1, -1], (0.2, 0.28)),
    }
    assert set(rl.VARIANTS) == set(expect)
    for variant, (gate, adv, eps) in expect.items():
        cfg = rl.RlConfig(variant=variant, rho=0.5)
        assert cfg.resolved_eps() == eps
        batch = rl.prepare_batch([group], cfg)
        assert batch.token_total == 11 and batch.bounds == [0, 5, 7, 8, 11]
        assert batch.groups == [group] and batch.rollouts == rollouts
        assert np.allclose(batch.advantages, adv)
        assert np.array_equal(batch.gates,
                              np.concatenate([gate(h) for h in ents]))
    earl = rl.prepare_batch([group], rl.RlConfig(rho=0.5))
    assert earl.gates[:5].tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        rl.RlConfig(variant="bogus").validate()
    with pytest.raises(ConfigError):
        rl.RlConfig(group_size=1).validate()
    with pytest.raises(ConfigError):
        rl.RlConfig(rho=1.0).validate()
    with pytest.raises(ConfigError, match="max_resample_attempts"):
        rl.RlConfig(max_resample_attempts=-1).validate()
    for name in ("eps_low", "eps_high", "temperature"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{name}: must be finite"):
                rl.RlConfig(**{name: value}).validate()


def test_metrics_csv_header_and_shape():
    m = rl.StepMetrics(0, 0.5, 0.1, 0.0, 0.2, 0.01, 1.2, 3)
    text = rl.metrics_to_csv([m])
    lines = text.strip().split("\n")
    assert lines[0] == ("step,mean_reward,pass_rate,clip_rate,gated_fraction,"
                       "mean_kl,mean_entropy,retained_groups")
    assert len(lines) == 2


# --- training-loop reductions -------------------------------------------------

def _tiny_setup(k=4, steps=8):
    corpus = build_corpus(CorpusConfig({"combinational-easy": 12},
                                       heldout_fraction=0.0), 17)
    tasks = corpus.tasks
    params = pol.init_params(DEFAULT_VOCAB, k, 0)
    params, _ = pol.train_sft(
        params, tasks, pol.SftSchedule(peak_lr=4.0, warmup_steps=10,
                                       total_steps=400, batch_contexts=256))
    return tasks, params


def _run(tasks, params, **kw):
    cfg = rl.RlConfig(steps=6, batch_prompts=3, group_size=4,
                      max_resample_attempts=2, max_response_len=48,
                      seed=3, **kw)
    trained, metrics = rl.train_rl(cfg, params.copy(), tasks)
    return trained, metrics


def test_earl_rho_zero_reproduces_dapo_bitwise():
    tasks, params = _tiny_setup()
    p1, m1 = _run(tasks, params, variant="earl", rho=0.0)
    p2, m2 = _run(tasks, params, variant="dapo", rho=0.0)
    assert np.array_equal(p1.W, p2.W) and np.array_equal(p1.b, p2.b)
    assert rl.metrics_to_csv(m1) == rl.metrics_to_csv(m2)


def test_archer_run_has_finite_metrics():
    tasks, params = _tiny_setup()
    trained, metrics = _run(tasks, params, variant="archer")
    assert len(metrics) == 6 and any(m.retained_groups for m in metrics)
    assert all(math.isfinite(v) for m in metrics for v in m.row())
    assert np.isfinite(trained.W).all() and np.isfinite(trained.b).all()
    assert not np.array_equal(trained.W, params.W)


def test_grpo_equals_dapo_with_symmetric_eps():
    tasks, params = _tiny_setup()
    p1, m1 = _run(tasks, params, variant="grpo", eps_low=0.2, eps_high=0.2)
    p2, m2 = _run(tasks, params, variant="dapo", eps_low=0.2, eps_high=0.2)
    assert np.array_equal(p1.W, p2.W)
    assert rl.metrics_to_csv(m1) == rl.metrics_to_csv(m2)


def test_train_rl_deterministic():
    tasks, params = _tiny_setup()
    p1, m1 = _run(tasks, params, variant="earl")
    p2, m2 = _run(tasks, params, variant="earl")
    assert np.array_equal(p1.W, p2.W)
    assert rl.metrics_to_csv(m1) == rl.metrics_to_csv(m2)


def _attempt_groups(config, params, tasks, step):
    """One step's groups sampled attempt by attempt, each attempt in its own
    sample_groups call, stopping at the first attempt that fills the batch:
    the sequential reference for train_rl's single sampling batch. Returns
    (groups, retained, attempts used)."""
    groups = []
    for attempt in range(config.max_resample_attempts + 1):
        idx = rng_for(config.seed, "rl-prompts", step, attempt).choice(
            len(tasks), size=min(config.batch_prompts, len(tasks)),
            replace=False)
        groups += rl.sample_groups(
            params, [tasks[int(i)] for i in idx], config.group_size,
            config.temperature, config.max_response_len,
            [(config.seed, "rl-rollout", step, attempt, int(i))
             for i in idx])
        retained = rl.filter_groups(groups)
        if len(retained) >= config.batch_prompts:
            break
    return groups, retained, attempt + 1


def _attempt_by_attempt_rl(config, params, tasks):
    """Reference train_rl over _attempt_groups; returns (params, metrics,
    attempts used per step)."""
    pi_ref = params.copy()
    metrics, used = [], []
    for step in range(config.steps):
        groups, retained, n_attempts = _attempt_groups(config, params, tasks,
                                                       step)
        used.append(n_attempts)
        ent = np.concatenate([r.entropies for g in groups
                              for r in g.rollouts])
        batch = rl.prepare_batch(retained, config)
        clip_rate, mean_kl = 0.0, 0.0
        if batch.token_total:
            acc, clip_rate, mean_kl = rl.assemble_gradient(batch, params,
                                                           pi_ref, config)
            pol.apply_update(params, acc, config.learning_rate)
        metrics.append(rl.StepMetrics(
            step, float(np.concatenate([g.rewards for g in groups]).mean()),
            sum(g.pass_count for g in groups) / sum(g.size for g in groups),
            clip_rate, batch.gated_fraction, mean_kl,
            float(ent.mean()) if ent.size else 0.0, len(batch.groups)))
    return params, metrics, used


@pytest.mark.parametrize("batch_prompts,stops_early", [(3, False), (1, True)])
def test_one_batch_per_step_matches_attempt_by_attempt(batch_prompts,
                                                       stops_early):
    tasks, params = _tiny_setup()
    cfg = rl.RlConfig(steps=6, batch_prompts=batch_prompts, group_size=4,
                      max_resample_attempts=2, max_response_len=48, seed=3)
    p_ref, m_ref, used = _attempt_by_attempt_rl(cfg, params.copy(), tasks)
    # the first setup exhausts every attempt; the second stops early, so
    # train_rl must drop the groups of the attempts after the stop
    assert (min(used) < 3) == stops_early and max(used) == 3
    p, m = rl.train_rl(cfg, params.copy(), tasks)
    assert rl.metrics_to_csv(m) == rl.metrics_to_csv(m_ref)
    assert np.array_equal(p.W, p_ref.W) and np.array_equal(p.b, p_ref.b)


def test_prompt_draws_start_each_step_in_attempt_order(monkeypatch):
    # an RL step starts at its attempt-0 prompt draw through rlcore's
    # rng_for, and the benchmark's step clock taps exactly that call
    calls = []

    def recording(*parts):
        calls.append(parts)
        return rng_for(*parts)

    monkeypatch.setattr(rl, "rng_for", recording)
    tasks, params = _tiny_setup()
    cfg = rl.RlConfig(steps=3, batch_prompts=2, group_size=2,
                      max_resample_attempts=2, max_response_len=8, seed=5)
    rl.train_rl(cfg, params, tasks)
    assert [c[2] for c in calls] == sorted(c[2] for c in calls)
    for step in range(cfg.steps):
        in_step = [c for c in calls if c[2] == step]
        assert in_step[0] == (5, "rl-prompts", step, 0)
        assert [c for c in in_step if c[1] == "rl-prompts"] == \
            [(5, "rl-prompts", step, a) for a in range(3)]


def test_archer_gated_fraction_is_mean_weight():
    tasks, params = _tiny_setup()
    cfg = rl.RlConfig(steps=1, batch_prompts=3, group_size=4,
                      max_resample_attempts=2, max_response_len=48, seed=3,
                      variant="archer")
    _, (m,) = rl.train_rl(cfg, params.copy(), tasks)
    _, retained, _ = _attempt_groups(cfg, params, tasks, 0)
    batch = rl.prepare_batch(retained, cfg)
    weights = batch.gates
    assert m.retained_groups > 0 and weights.size == batch.token_total
    assert m.gated_fraction < 1.0
    assert m.gated_fraction == pytest.approx(weights.mean(), rel=1e-12)


def test_sample_group_stores_exact_logprobs():
    # assemble_gradient takes each rollout's stored log-probs as pi_old's
    tasks, params = _tiny_setup()
    for T in (1.0, 0.7):
        cfg = rl.RlConfig(group_size=4, max_response_len=48, temperature=T)
        for j, task in enumerate(tasks[:3]):
            g = rl.sample_group(params, task, cfg, (3, "stored-lp", j))
            for r in g.rollouts:
                lp = pol.sequence_logprobs(params, r.prompt_tokens,
                                           r.response_tokens, T)
                assert np.array_equal(lp, r.logprobs)


def test_train_rl_requires_tasks():
    _, params = _tiny_setup()
    with pytest.raises(ConfigError):
        rl.train_rl(rl.RlConfig(steps=1), params, [])


def test_train_rl_rejects_negative_resample_attempts():
    tasks, params = _tiny_setup()
    with pytest.raises(ConfigError, match="max_resample_attempts"):
        rl.train_rl(rl.RlConfig(steps=1, max_resample_attempts=-1), params,
                    tasks[:4])


# --- one re-scoring pass per batch --------------------------------------------

def _per_rollout_objective(batch, pi_new, pi_ref, config):
    """objective_value re-scoring rollout by rollout."""
    if batch.token_total == 0:
        return 0.0
    eps_low, eps_high = config.resolved_eps()
    T = config.temperature
    total = 0.0
    for j, rollout in enumerate(batch.rollouts):
        prompt, resp = rollout.prompt_tokens, rollout.response_tokens
        new_lp = pol.sequence_logprobs(pi_new, prompt, resp, T)
        r = np.exp(new_lp - rollout.logprobs)
        adv = batch.advantages[j]
        surr = np.minimum(r * adv,
                          np.clip(r, 1 - eps_low, 1 + eps_high) * adv)
        gates = batch.gates[batch.bounds[j]:batch.bounds[j + 1]]
        total += float((gates * surr).sum())
        if config.beta != 0.0:
            _, p_new = pol.response_distributions(pi_new, prompt, resp, T)
            _, p_ref = pol.response_distributions(pi_ref, prompt, resp, T)
            kl = (p_new * (np.log(p_new) - np.log(p_ref))).sum(axis=1)
            w = gates if config.gated_kl else 1.0
            total -= config.beta * float((w * kl).sum())
    return total / batch.token_total


def _per_rollout_gradient(batch, pi_new, pi_ref, config):
    """assemble_gradient re-scoring rollout by rollout: two
    response_distributions calls per rollout. Returns (accumulator, clip
    rate, gated fraction, mean KL)."""
    acc = pol.GradAccumulator(np.zeros_like(pi_new.W),
                              np.zeros_like(pi_new.b))
    eps_low, eps_high = config.resolved_eps()
    T = config.temperature
    tokens, n_clipped, gate_weight = 0, 0, 0.0
    kl_sum, kl_count = 0.0, 0
    row_chunks, grad_chunks = [], []
    for j, rollout in enumerate(batch.rollouts):
        prompt, resp = rollout.prompt_tokens, rollout.response_tokens
        if not resp:
            continue
        gates = batch.gates[batch.bounds[j]:batch.bounds[j + 1]]
        rows, p_new = pol.response_distributions(pi_new, prompt, resp, T)
        toks = np.asarray(resp, dtype=np.int64)
        ar = np.arange(len(toks))
        new_lp = np.log(p_new[ar, toks])
        coeffs, clipped = rl.per_token_coefficients(
            new_lp, rollout.logprobs, batch.advantages[j], gates,
            eps_low, eps_high, batch.token_total)
        tokens += len(toks)
        n_clipped += int(clipped.sum())
        gate_weight += float(gates.sum())
        G = -p_new * coeffs[:, None]
        G[ar, toks] += coeffs
        if config.beta != 0.0:
            _, p_ref = pol.response_distributions(pi_ref, prompt, resp, T)
            s = np.log(p_new) - np.log(p_ref)
            kl = (p_new * s).sum(axis=1)
            w = gates if config.gated_kl else np.ones(len(toks))
            c = -config.beta * w / batch.token_total
            G += p_new * (s - kl[:, None]) * c[:, None]
            kl_sum += float(kl.sum())
            kl_count += len(toks)
        G /= T
        row_chunks.append(rows)
        grad_chunks.append(G)
    if row_chunks:
        X = pol.design_matrix(np.concatenate(row_chunks), pi_new.F)
        Gall = np.concatenate(grad_chunks)
        acc.dW += X.T @ Gall
        acc.db += Gall.sum(axis=0)
    return (acc, n_clipped / tokens if tokens else 0.0,
            gate_weight / tokens if tokens else 0.0,
            kl_sum / kl_count if kl_count else 0.0)


def _nudged(params, scale, seed):
    p = params.copy()
    rng = np.random.default_rng(seed)
    p.W += rng.normal(0, scale, p.W.shape)
    p.b += rng.normal(0, scale, p.b.shape)
    return p


@pytest.mark.parametrize("variant,beta,gated_kl,T", [
    ("earl", 0.01, False, 1.0), ("earl", 0.0, False, 0.7),
    ("earl", 0.01, True, 0.7), ("archer", 0.01, True, 1.0),
    ("grpo", 0.01, False, 0.7), ("grpo", 0.0, False, 1.0)])
def test_group_rescoring_matches_per_rollout(variant, beta, gated_kl, T):
    tasks, params = _tiny_setup()
    cfg = rl.RlConfig(group_size=4, max_response_len=48, temperature=T,
                      variant=variant, beta=beta, gated_kl=gated_kl)
    groups = rl.sample_groups(params, tasks[:8], 4, T, 48,
                              [(7, "rescore", j) for j in range(8)])
    batch = rl.prepare_batch(groups, cfg)
    # one rollout's response emptied, its gates and tokens taken out of the
    # batch: re-scoring skips it, as before
    r = batch.rollouts[1]
    batch.rollouts[1] = pol.Rollout(r.prompt_tokens, (), np.zeros(0),
                                    np.zeros(0), T, False)
    a, b = batch.bounds[1], batch.bounds[2]
    batch.gates = np.delete(batch.gates, np.s_[a:b])
    batch.bounds = batch.bounds[:2] + [x - (b - a) for x in batch.bounds[2:]]
    assert len(batch.groups) >= 3
    assert batch.bounds[-1] == sum(len(r.response_tokens)
                                   for r in batch.rollouts)
    pi_new, pi_ref = _nudged(params, 0.3, 1), _nudged(params, 0.1, 2)
    acc, clip_rate, mean_kl = rl.assemble_gradient(batch, pi_new, pi_ref,
                                                   cfg)
    ref_acc, ref_clip, ref_gated, ref_kl = _per_rollout_gradient(
        batch, pi_new, pi_ref, cfg)
    assert acc.dW.tobytes() == ref_acc.dW.tobytes()  # signs of zeros too
    assert acc.db.tobytes() == ref_acc.db.tobytes()
    assert clip_rate == ref_clip > 0
    assert batch.gated_fraction == ref_gated
    assert mean_kl == ref_kl and (mean_kl > 0) == (beta != 0)
    assert rl.objective_value(batch, pi_new, pi_ref, cfg) == \
        _per_rollout_objective(batch, pi_new, pi_ref, cfg)


def test_rescore_kl_zero_at_copy_positive_after_perturbation():
    tasks, params = _tiny_setup()
    cfg = rl.RlConfig(group_size=4, max_response_len=48)
    group = rl.sample_groups(params, tasks[:1], 4, 1.0, 48,
                             [(7, "kl", 0)])[0]
    bounds = [0]
    for r in group.rollouts:
        bounds.append(bounds[-1] + len(r.response_tokens))
    batch = rl.PreparedBatch([group], group.rollouts, np.zeros(4),
                             np.zeros(bounds[-1]), bounds)
    rs = rl.rescore(batch, params, params.copy(), cfg)
    assert rs.kl.size > 0 and np.all(rs.kl == 0.0)
    rs = rl.rescore(batch, params, _nudged(params, 0.1, 2), cfg)
    assert np.all(rs.kl >= 0.0) and np.any(rs.kl > 0.0)


def test_empty_batch_gradient_is_positive_zero():
    """A batch whose responses are all empty takes the general path: dW and
    db of W's and b's shapes, every entry +0.0."""
    tasks, params = _tiny_setup()
    cfg = rl.RlConfig(group_size=4, max_response_len=48, beta=0.01)
    group = rl.sample_groups(params, tasks[:1], 4, 1.0, 48,
                             [(7, "empty", 0)])[0]
    for i, r in enumerate(group.rollouts):
        group.rollouts[i] = pol.Rollout(r.prompt_tokens, (), np.zeros(0),
                                        np.zeros(0), 1.0, False)
    batch = rl.PreparedBatch([group], group.rollouts, np.ones(4),
                             np.zeros(0), [0] * 5)
    acc, clip_rate, mean_kl = rl.assemble_gradient(batch, params,
                                                   params.copy(), cfg)
    assert acc.dW.shape == params.W.shape and acc.db.shape == params.b.shape
    for a in (acc.dW, acc.db):
        assert not a.any() and not np.signbit(a).any()
    assert clip_rate == 0.0 and mean_kl == 0.0


def test_assemble_gradient_leaves_batch_unchanged():
    # an update re-scores its batch and writes only rescore's own arrays,
    # so one batch can serve several updates
    tasks, params = _tiny_setup()
    pi_new, pi_ref = _nudged(params, 0.3, 1), _nudged(params, 0.1, 2)
    groups = rl.sample_groups(params, tasks[:8], 4, 0.7, 48,
                              [(7, "reuse", j) for j in range(8)])
    for variant in ("earl", "archer"):
        cfg = rl.RlConfig(group_size=4, max_response_len=48,
                          temperature=0.7, variant=variant, beta=0.01,
                          gated_kl=True)
        batch = rl.prepare_batch(groups, cfg)
        assert batch.token_total > 0
        before = (batch.gates.tobytes(), batch.advantages.tobytes(),
                  list(batch.bounds),
                  [r.logprobs.tobytes() for r in batch.rollouts])
        results = []
        for _ in range(2):
            acc, clip_rate, mean_kl = rl.assemble_gradient(batch, pi_new,
                                                           pi_ref, cfg)
            results.append((acc.dW.tobytes(), acc.db.tobytes(), clip_rate,
                            mean_kl))
        assert results[0] == results[1]
        assert (batch.gates.tobytes(), batch.advantages.tobytes(),
                list(batch.bounds),
                [r.logprobs.tobytes() for r in batch.rollouts]) == before


def test_rl_bytes_are_pinned_for_every_variant():
    # W, b and metrics.csv of a short gated-KL run per variant, in sorted
    # variant order; a change to any summation order moves this digest
    tasks, params = _tiny_setup()
    h = hashlib.sha256()
    for variant in sorted(rl.VARIANTS):
        trained, metrics = _run(tasks, params, variant=variant, beta=0.01,
                                gated_kl=True, temperature=0.7)
        assert all(m.retained_groups for m in metrics)
        h.update(trained.W.tobytes() + trained.b.tobytes()
                 + rl.metrics_to_csv(metrics).encode())
    assert h.hexdigest() == ("b3899a3470903368380fd15990cd76d2"
                             "d0896f1057e1aaf5c7f4aa16f81a2c51")
