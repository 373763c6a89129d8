"""Acceptance suite: ten primary criteria, one test (and one summary
pass/fail line) per criterion.

Each test prints "[criterion N] PASS: ..." on success; tolerances are
stated inline next to each assertion.
"""

import math
import time

import numpy as np
import pytest

from conftest import dense_dW, every_input_stimulus, reference_simulate
from earl import analysis as an
from earl import policy as pol
from earl import reward as rew
from earl import rlcore as rl
from earl import taskgen as tg
from earl.minirtl import (Vocab, build_vectors, equivalence_fraction,
                          parse, simulate_packed, tokenize)
from earl.minirtl.vocab import DEFAULT_VOCAB
from earl.seeds import mix, rng_for


# --- 1. gradient correctness --------------------------------------------------

def _small_vocab(V):
    names = ["PAD", "BOS", "EOS"] + [f"w{i}" for i in range(V - 3)]
    return Vocab(tuple(names))


def _random_instance(rng, vocab, k, G):
    """Synthetic prepared batch: random params, rollouts, rewards, a
    temperature and a pi_ref the batch is laid out against; each rollout
    stores its log-probs under a separate pi_old at that temperature."""
    params = pol.init_params(vocab, k, int(rng.integers(1 << 30)))
    params.W += rng.normal(0, 0.2, params.W.T.shape).T  # drawn [V, F]
    params.b += rng.normal(0, 0.2, params.b.shape)
    pi_old = pol.init_params(vocab, k, int(rng.integers(1 << 30)))
    pi_old.W += rng.normal(0, 0.2, pi_old.W.T.shape).T
    pi_ref = pol.init_params(vocab, k, int(rng.integers(1 << 30)))
    pi_ref.W += rng.normal(0, 0.2, pi_ref.W.T.shape).T
    prompt = (vocab.id("BOS"),)
    T = float(rng.choice([1.0, 0.7]))
    cfg = rl.RlConfig(group_size=G, variant="earl", temperature=T,
                      rho=float(rng.choice([0.0, 0.5, 0.8])),
                      beta=float(rng.choice([0.0, 0.01, 0.1])))
    rng.integers(2)  # unused draw: keeps the same 50 instances in the stream
    groups = []
    for _ in range(int(rng.integers(1, 3))):
        rollouts = []
        for g in range(G):
            n = int(rng.integers(1, 13))  # rollout length <= 12
            toks = tuple(int(t) for t in rng.integers(0, vocab.size, n))
            lp = pol.sequence_logprobs(pi_old, prompt, toks, T)
            ent = rng.uniform(0, 2, n)
            rollouts.append(pol.Rollout(prompt, toks, lp, ent, T, False))
        rewards = rng.uniform(0, 1, G)
        groups.append(rl.Group(None, rollouts, [], rewards))
    batch = rl.prepare_batch(groups, cfg, pi_ref)
    return params, cfg, batch


def test_criterion_1_gradient_matches_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    for inst in range(50):
        V = int(rng.integers(8, 31))       # V <= 30
        k = int(rng.integers(1, 4))        # k <= 3
        G = int(rng.choice([2, 3]))
        vocab = _small_vocab(V)
        params, cfg, batch = _random_instance(rng, vocab, k, G)
        if not batch.groups:
            continue
        acc, _, _ = rl.assemble_gradient(batch, params, cfg)
        dW = dense_dW(acc, params)
        h = 1e-5
        for _ in range(12):
            v = int(rng.integers(params.V))
            f = int(rng.integers(params.F))
            pp, pm = params.copy(), params.copy()
            pp.W[f, v] += h
            pm.W[f, v] -= h
            fd = (rl.objective_value(batch, pp, cfg)
                  - rl.objective_value(batch, pm, cfg)) / (2 * h)
            denom = max(1e-8, abs(fd), abs(dW[f, v]))
            relerr = abs(fd - dW[f, v]) / denom
            worst = max(worst, relerr)
            assert relerr < 1e-4, (inst, v, f, fd, dW[f, v])
            checked += 1
    elapsed = time.time() - t0
    assert checked >= 500
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS: {checked} coordinates over 50 instances, "
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --- 2. reduction identities --------------------------------------------------

def test_criterion_2_reduction_identities(tiny_sft):
    t0 = time.time()
    tasks, params = tiny_sft

    def run(**kw):
        cfg = rl.RlConfig(steps=6, batch_prompts=3, group_size=4,
                          max_resample_attempts=2, max_response_len=48,
                          seed=5, **kw)
        trained, metrics = rl.train_rl(cfg, params.copy(), tasks)
        return trained, rl.metrics_to_csv(metrics)

    p1, m1 = run(variant="earl", rho=0.0)
    p2, m2 = run(variant="dapo", rho=0.0)
    assert np.array_equal(p1.W, p2.W) and np.array_equal(p1.b, p2.b)
    assert m1 == m2  # bitwise-identical metrics

    p3, m3 = run(variant="grpo", eps_low=0.2, eps_high=0.2)
    p4, m4 = run(variant="dapo", eps_low=0.2, eps_high=0.2)
    assert np.array_equal(p3.W, p4.W) and m3 == m4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 2] PASS: EARL(rho=0)==DAPO and GRPO==DAPO "
          f"bitwise, {elapsed:.1f}s")


# --- 3. entropy math ----------------------------------------------------------

def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_criterion_3_entropy_math_properties():
    V = 4
    assert pol.token_entropy(np.array([1.0, 0, 0, 0])) == 0.0
    assert abs(pol.token_entropy(np.full(V, 0.25)) - math.log(4)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 20))
        z = rng.uniform(-8, 8, n)
        t1, t2 = sorted(rng.uniform(0.05, 10, 2))
        h1 = pol.token_entropy(_softmax(z / t1))
        h2 = pol.token_entropy(_softmax(z / t2))
        assert -1e-9 <= h1 <= math.log(n) + 1e-12
        assert h2 >= h1 - 1e-9  # temperature monotonicity
    for _ in range(300):
        T = int(rng.integers(1, 40))
        h = rng.permutation(np.linspace(0.01, 3.0, T))  # distinct entropies
        rho = float(rng.uniform(0.01, 0.99))
        mask = rl.entropy_mask(h, rl.entropy_threshold(h, rho))
        assert mask.sum() == T - math.ceil(rho * T) + 1
    print("\n[criterion 3] PASS: bounds, one-hot, uniform, temperature "
          "monotonicity (1000 draws), nearest-rank mask count (300 draws)")


# --- 4. pass@k ----------------------------------------------------------------

def test_criterion_4_pass_at_k_exact_and_monte_carlo():
    closed = {(c, k): 1 - math.comb(5 - c, k) / math.comb(5, k)
              for c in range(6) for k in (1, 5) if 5 - c >= 0}
    for (c, k), want in closed.items():
        got = an.pass_at_k(5, c, k)
        assert abs(got - want) < 1e-12
    assert abs(an.pass_at_k(5, 2, 1) - 0.4) < 1e-12
    assert an.pass_at_k(5, 2, 5) == 1.0
    rng = rng_for("acceptance-passk")
    for c in range(6):
        for k in (1, 2, 5):
            trials = 100_000
            chosen = rng.random((trials, 5)).argsort(axis=1) < k
            mc = chosen[:, :c].any(axis=1).mean()
            assert abs(mc - an.pass_at_k(5, c, k)) < 0.01
    print("\n[criterion 4] PASS: closed form exact for n=5, Monte-Carlo "
          "within 0.01 over 1e5 draws")


# --- 5. reward cascade --------------------------------------------------------

def test_criterion_5_reward_cascade():
    cfg = tg.CorpusConfig({
        "combinational-easy": 100, "combinational-medium": 100,
        "combinational-hard": 50, "mux-easy": 50, "register-easy": 50,
        "register-medium": 50, "counter-easy": 50, "fsm-lite-easy": 50,
    }, heldout_fraction=0.0)
    corpus = tg.build_corpus(cfg, 29)
    assert len(corpus.tasks) == 500
    for task in corpus.tasks:
        bd = rew.score(tokenize(task.reference_text), task)
        assert bd.reward == 1.0 and bd.functional_pass, task.id
    # random candidates: stage bounds and monotonicity over 1e4 draws
    rng = np.random.default_rng(3)
    tasks = corpus.tasks
    n_mutated = 0
    for i in range(10_000):
        task = tasks[int(rng.integers(len(tasks)))]
        if rng.random() < 0.5:
            toks = [int(x) for x in
                    rng.integers(0, DEFAULT_VOCAB.size,
                                 int(rng.integers(1, 40)))]
        else:
            toks = tokenize(task.reference_text)
            j = int(rng.integers(len(toks)))
            toks[j] = int(rng.integers(0, DEFAULT_VOCAB.size))
            n_mutated += 1
        bd = rew.score(toks, task)
        assert 0.0 <= bd.reward <= 1.0
        if bd.stage_reached == rew.STAGE_PARSE_FAIL:
            assert bd.reward == 0.0
        elif bd.stage_reached == rew.STAGE_INTERFACE:
            assert bd.reward <= 0.5 and not bd.functional_pass
        else:
            assert bd.reward >= 0.5
            if bd.functional_fraction < 1.0:
                assert not bd.functional_pass and bd.reward < 1.0
            if bd.reward == 1.0:
                assert bd.functional_pass
    assert n_mutated > 3000
    print(f"\n[criterion 5] PASS: 500/500 self-scores 1.0; cascade bounds "
          f"hold on 10000 candidates ({n_mutated} mutated references)")


# --- 6. equivalence oracle ----------------------------------------------------

def _truth_table(ast):
    """The output bits over every input combination, from the tests'
    per-cycle reference simulator, which does not call earl.minirtl.sim."""
    bits = []
    for cyc in reference_simulate(ast, every_input_stimulus(ast)):
        for p in ast.interface.output_ports:
            bits += [(cyc[p.name] >> b) & 1 for b in range(p.width)]
    return bits


def _mutate_once(text, rng):
    swaps = {"&": "|", "|": "^", "^": "&", "a": "b", "b": "a", "~": ""}
    toks = text.split()
    idxs = [i for i, t in enumerate(toks) if t in swaps and i > 6]
    if not idxs:
        return None
    i = idxs[int(rng.integers(len(idxs)))]
    toks[i] = swaps[toks[i]]
    return " ".join(t for t in toks if t)


def test_criterion_6_equivalence_oracle_agreement():
    rng = np.random.default_rng(7)
    pairs = mutations = 0
    while pairs < 200:
        seed = int(rng.integers(1 << 30))
        diff = ["easy", "medium", "hard"][int(rng.integers(3))]
        a = tg.generate_task(seed, "combinational", diff, task_id="a")
        b = tg.generate_task(seed + 1, "combinational", diff, task_id="b")
        ref = a.reference
        # align the candidate's module name with the reference interface
        cand_text = b.reference_text.replace(
            f"module {b.reference.interface.module_name} ",
            f"module {ref.interface.module_name} ", 1)
        cand = parse(tokenize(cand_text))
        if {(p.name, p.direction, p.width) for p in cand.interface.ports} != \
           {(p.name, p.direction, p.width) for p in ref.interface.ports}:
            continue
        vectors = build_vectors(ref)
        expected = simulate_packed(ref, vectors)
        m, eq = equivalence_fraction(cand, vectors, expected)
        ta, tb = _truth_table(ref), _truth_table(cand)
        agree = sum(1 for x, y in zip(ta, tb) if x == y)
        assert abs(m - agree / len(ta)) < 1e-12
        assert eq == (agree == len(ta))
        pairs += 1
        mut_text = _mutate_once(a.reference_text, rng)
        if mut_text is None:
            continue
        try:
            mut = parse(tokenize(mut_text))
        except Exception:
            continue
        m2, eq2 = equivalence_fraction(mut, vectors, expected)
        tm = _truth_table(mut)
        semantic_noop = tm == ta
        assert eq2 == semantic_noop  # non-equivalent unless a no-op
        mutations += 1
    assert mutations >= 100
    print(f"\n[criterion 6] PASS: {pairs} random pairs agree exactly with "
          f"the truth-table oracle; {mutations} single-literal mutations "
          f"classified correctly")


# --- 7. end-to-end learning ---------------------------------------------------

def _pass1(params, tasks, n=5, seed=0):
    rollouts = pol.sample_rollouts(
        params, [task.prompt_tokens for task in tasks for _ in range(n)],
        1.0, 256, [mix(seed, "eval", ti, j)
                   for ti in range(len(tasks)) for j in range(n)])
    total = 0.0
    for ti, task in enumerate(tasks):
        c = 0
        for r in rollouts[ti * n:(ti + 1) * n]:
            bd = rew.score(r.response_tokens, task, truncated=r.truncated)
            c += bd.functional_pass
        total += c / n
    return total / len(tasks)


@pytest.mark.slow
def test_criterion_7_end_to_end_learning():
    t0 = time.time()
    corpus = tg.build_corpus(
        tg.CorpusConfig({"combinational-easy": 200,
                         "combinational-medium": 200}), 7)
    train, heldout = corpus.train(), corpus.heldout()[:20]
    assert len(heldout) == 20
    params = pol.init_params(DEFAULT_VOCAB, 48, 0)
    params, _ = pol.train_sft(
        params, train,
        pol.SftSchedule(peak_lr=8.0, warmup_steps=15, total_steps=2000,
                        batch_contexts=512))
    baseline = _pass1(params, heldout)
    t_rl = time.time()
    deltas = []
    for seed in (0, 1, 2):
        cfg = rl.RlConfig(seed=seed)  # EARL defaults: rho=0.8, 500 steps
        assert cfg.variant == "earl" and cfg.rho == 0.8 and cfg.steps == 500
        trained, _ = rl.train_rl(cfg, params.copy(), train)
        deltas.append(_pass1(trained, heldout) - baseline)
    rl_elapsed = time.time() - t_rl
    mean_delta = float(np.mean(deltas))
    assert mean_delta >= 0.15, (baseline, deltas)
    assert rl_elapsed <= 900.0  # 15 min for 3 x 500 RL steps + eval
    print(f"\n[criterion 7] PASS: baseline pass@1 {baseline:.3f}, deltas "
          f"{[f'{d:+.3f}' for d in deltas]}, mean {mean_delta:+.3f} "
          f">= +0.15; RL+eval {rl_elapsed:.0f}s (total {time.time()-t0:.0f}s)")


# --- 8. entropy skew ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_entropy_skew_direction():
    corpus = tg.build_corpus(
        tg.CorpusConfig({"combinational-easy": 60, "combinational-medium": 60,
                         "register-medium": 60, "fsm-lite-easy": 60}), 19)
    params = pol.init_params(DEFAULT_VOCAB, 48, 0)
    params, _ = pol.train_sft(
        params, corpus.train(),
        pol.SftSchedule(peak_lr=8.0, warmup_steps=15, total_steps=2500,
                        batch_contexts=512))
    _, rollouts = an.eval_suite(params, corpus.heldout(), n=5, ks=(1, 5),
                                temperature=1.0, seed=0, max_len=256,
                                collect_rollouts=True)
    summary = an.entropy_summary(rollouts)
    assert summary["median"] < summary["mean"]  # right skew
    stats = an.token_class_stats(rollouts)
    hi_counts = (stats["control-flow"]["count"]
                 + stats["process-sensitivity"]["count"])
    assert hi_counts > 0 and stats["structural-terminator"]["count"] > 0
    hi = ((stats["control-flow"]["mean"] or 0)
          * stats["control-flow"]["count"]
          + (stats["process-sensitivity"]["mean"] or 0)
          * stats["process-sensitivity"]["count"]) / hi_counts
    lo = stats["structural-terminator"]["mean"]
    assert hi > lo
    print(f"\n[criterion 8] PASS: median {summary['median']:.4f} < mean "
          f"{summary['mean']:.4f}; control/process entropy {hi:.4f} > "
          f"terminator {lo:.4f}")


# --- 9. ablation grid ---------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_ablation_grid_and_gate_calibration():
    corpus = tg.build_corpus(
        tg.CorpusConfig({"combinational-easy": 60,
                         "combinational-medium": 60}), 23)
    params = pol.init_params(DEFAULT_VOCAB, 48, 0)
    params, _ = pol.train_sft(
        params, corpus.train(),
        pol.SftSchedule(peak_lr=8.0, warmup_steps=15, total_steps=1500,
                        batch_contexts=512))
    cfg = rl.RlConfig(steps=40, batch_prompts=4, max_resample_attempts=2)
    rows = an.ablation_grid(cfg, params, corpus.train(), corpus.heldout()[:10],
                            rhos=an.ABLATION_RHOS, seeds=(0,), n=5)
    text = an.ablation_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "rho,pass@1,pass@5,syn@5"
    assert len(lines) == 7  # header + 6 rows
    assert not any(r.failed for r in rows)
    for r in rows:
        if r.rho > 0:
            assert abs(r.gated_fraction - (1.0 - r.rho)) <= 0.05, \
                (r.rho, r.gated_fraction)
    gates = {r.rho: round(r.gated_fraction, 3) for r in rows}
    print(f"\n[criterion 9] PASS: 6-row CSV well-formed; training-mean "
          f"gated fraction vs 1-rho within 0.05: {gates}")


# --- 10. determinism ----------------------------------------------------------

def test_criterion_10_pipeline_determinism(tmp_path):
    import json as _json
    from earl import cli
    config = {
        "seed": 5,
        "policy_k": 8,
        "corpus": {"counts": {"combinational-easy": 12,
                              "register-easy": 4}},
        "sft": {"peak_lr": 4.0, "warmup_steps": 10, "total_steps": 120,
                "batch_contexts": 256},
        "rl": {"steps": 3, "batch_prompts": 2, "group_size": 3,
               "max_resample_attempts": 1, "max_response_len": 40},
        "eval": {"n": 5, "ks": [1, 5]},
    }
    path = tmp_path / "c.json"
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        config["out_dir"] = str(out)
        path.write_text(_json.dumps(config))
        for sub in ("gen-data", "sft", "train", "eval"):
            assert cli.main([sub, "--config", str(path)]) == 0
        outs.append(out)
    for artifact in ("corpus.json", "metrics.csv", "eval.csv"):
        assert (outs[0] / artifact).read_bytes() == \
            (outs[1] / artifact).read_bytes(), artifact
    print("\n[criterion 10] PASS: corpus.json, metrics.csv, eval.csv "
          "byte-identical across repeated runs")
