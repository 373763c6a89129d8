"""RL core: gating, advantages, filtering, coefficients, reductions.

Oracle values frozen from independent computation:
rewards (1,1,0,0,0,0): mean 1/3, population std = sqrt(2)/3, so
advantages = (+sqrt(2), +sqrt(2), -sqrt(2)/2 x4) up to the 1e-8 guard.
"""

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
    diag = rl.CoeffDiagnostics()
    c = rl.per_token_coefficients(
        np.log([1.0]), np.log([1.0]), 2.0, [1.0], 0.2, 0.28, 10, diag)
    assert np.allclose(c, [2.0 / 10])
    assert diag.clipped == 0 and diag.tokens == 1


def test_coefficients_clipped_branch_zero_gradient():
    # ratio 2.0 with positive advantage exceeds 1+eps_high -> clipped, 0
    c = rl.per_token_coefficients(
        np.log([2.0]), np.log([1.0]), 1.0, [1.0], 0.2, 0.28, 10)
    assert c[0] == 0.0
    # same ratio with negative advantage: unclipped branch is the min
    c = rl.per_token_coefficients(
        np.log([2.0]), np.log([1.0]), -1.0, [1.0], 0.2, 0.28, 10)
    assert np.allclose(c, [-2.0 / 10])


def test_coefficients_gate_masks_tokens():
    c = rl.per_token_coefficients(
        np.log([1.0, 1.0]), np.log([1.0, 1.0]), 1.0, [0.0, 1.0],
        0.2, 0.28, 4)
    assert c[0] == 0.0 and np.allclose(c[1], 0.25)


def test_ties_count_as_unclipped():
    diag = rl.CoeffDiagnostics()
    rl.per_token_coefficients(np.log([1.0]), np.log([1.0]), 1.0, [1.0],
                              0.2, 0.28, 1, diag)
    assert diag.clipped == 0


def test_kl_divergence_nonnegative_zero_at_equal():
    p = np.array([0.3, 0.7])
    assert rl.kl_divergence(p, p) == 0.0
    assert rl.kl_divergence(p, np.array([0.5, 0.5])) > 0.0


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
        assert batch.token_total == 11
        (pg,) = batch.groups
        assert np.allclose(pg.advantages, adv)
        for h, g in zip(ents, pg.gates):
            assert np.array_equal(g, gate(h))
    earl = rl.prepare_batch([group], rl.RlConfig(rho=0.5)).groups[0]
    assert earl.gates[0].tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        rl.RlConfig(variant="bogus").validate()
    with pytest.raises(ConfigError):
        rl.RlConfig(group_size=1).validate()
    with pytest.raises(ConfigError):
        rl.RlConfig(rho=1.0).validate()


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
