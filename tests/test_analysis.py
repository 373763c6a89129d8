"""Analysis: pass@k closed form, histograms, class stats, tables, exports.

pass@k oracle (hand binomial arithmetic, n=5):
c=2, k=1: 1 - C(3,1)/C(5,1) = 1 - 3/5 = 0.4
c=2, k=5: 1 - C(3,5)/C(5,5) = 1 (C(3,5) = 0)
"""

import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earl import analysis as an
from earl import policy as pol
from earl import reward as rew
from earl.errors import DomainError
from earl.minirtl.vocab import DEFAULT_VOCAB
from earl.seeds import mix, rng_for


# --- pass@k -------------------------------------------------------------------

def test_pass_at_k_exact_table():
    expected = {
        (5, 0, 1): 0.0, (5, 1, 1): 0.2, (5, 2, 1): 0.4, (5, 3, 1): 0.6,
        (5, 4, 1): 0.8, (5, 5, 1): 1.0,
        (5, 0, 5): 0.0, (5, 1, 5): 1.0, (5, 2, 5): 1.0, (5, 3, 5): 1.0,
        (5, 4, 5): 1.0, (5, 5, 5): 1.0,
    }
    for (n, c, k), want in expected.items():
        assert abs(an.pass_at_k(n, c, k) - want) < 1e-12, (n, c, k)


def test_pass_at_k_monotone_in_k():
    for c in range(6):
        values = [an.pass_at_k(5, c, k) for k in range(1, 6)]
        assert values == sorted(values)
        assert (an.pass_at_k(5, c, 5) == 1.0) == (c > 0)


def test_pass_at_k_rejects_bad_args():
    for n, c, k in [(5, 6, 1), (5, -1, 1), (5, 2, 0), (5, 2, 6)]:
        with pytest.raises(DomainError):
            an.pass_at_k(n, c, k)
    with pytest.raises(DomainError):
        an.pass_at_k(5.0, 2, 1)


def test_pass_at_k_monte_carlo_agreement():
    rng = rng_for("mc-passk")
    n = 5
    for c in range(n + 1):
        for k in (1, 2, 5):
            hits = 0
            trials = 100_000
            wins = rng.random((trials, n)).argsort(axis=1) < k
            # choose k of n uniformly; success iff any chosen index < c
            hits = (wins[:, :c].any(axis=1)).sum()
            assert abs(hits / trials - an.pass_at_k(n, c, k)) < 0.01


# --- histogram ----------------------------------------------------------------

def test_histogram_all_zero_entropies():
    edges = [0.0, 0.15, math.log(DEFAULT_VOCAB.size)]
    counts = an.entropy_histogram(np.zeros(37), edges)
    assert counts.tolist() == [37, 0]


def test_histogram_empty_input():
    counts = an.entropy_histogram([], [0.0, 1.0, 2.0])
    assert counts.tolist() == [0, 0]


def test_histogram_conserves_total_and_closes_last_bin():
    edges = an.default_bin_edges()
    top = math.log(DEFAULT_VOCAB.size)
    vals = [0.0, 0.05, top, top - 1e-9, 1.0]
    counts = an.entropy_histogram(vals, edges)
    assert counts.sum() == len(vals)
    assert counts[-1] >= 1  # ln V sits inside the closed last bin


def test_histogram_counts_a_uniform_row_in_the_last_bin():
    # the sampler's entropy of a uniform row is ln V plus one ulp
    p = pol.init_params(DEFAULT_VOCAB, 2, 0)
    p.W[:] = 0.0
    p.b[:] = 0.0
    r = pol.sample_rollout(p, (DEFAULT_VOCAB.id("BOS"),), 1.0, 99, mix(0))
    top = math.log(DEFAULT_VOCAB.size)
    assert len(r.entropies) == 99 and (r.entropies > top).all()
    counts = an.entropy_histogram(r.entropies, an.default_bin_edges())
    assert counts.sum() == counts[-1] == len(r.entropies)
    # a value clearly above the last edge is still out of range
    counts = an.entropy_histogram([top + 1e-9, top + 0.01],
                                  an.default_bin_edges())
    assert counts.sum() == 0


def test_histogram_rejects_bad_edges():
    with pytest.raises(DomainError):
        an.entropy_histogram([0.1], [0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        an.entropy_histogram([0.1], [1.0])


def test_near_uniform_init_mass_in_last_bin():
    p = pol.init_params(DEFAULT_VOCAB, 2, 0)
    r = pol.sample_rollout(p, (DEFAULT_VOCAB.id("BOS"),), 1.0, 30, mix(0))
    edges = [0.0, 0.15, math.log(DEFAULT_VOCAB.size)]
    counts = an.entropy_histogram(r.entropies, edges)
    assert counts[-1] == len(r.entropies)


# --- class stats and token tables ---------------------------------------------

def _rollout(tokens, entropies):
    n = len(tokens)
    return pol.Rollout((DEFAULT_VOCAB.id("BOS"),), tuple(tokens),
                       np.full(n, -1.0), np.asarray(entropies, dtype=float),
                       1.0, False)


def test_class_map_total_and_expected_members():
    assert len(an.TOKEN_CLASS_OF) == DEFAULT_VOCAB.size
    expected = {"always": "process-sensitivity", "if": "control-flow",
                "assign": "binding-connection", "module": "module-head",
                "endmodule": "structural-terminator", "a": "identifier",
                "and2": "identifier", "0": "literal", "PAD": "other",
                "SPEC": "other"}
    for tok, cls in expected.items():
        assert an.TOKEN_CLASS_OF[DEFAULT_VOCAB.id(tok)] == cls, tok


def test_class_stats_two_level_synthetic():
    iftok, endtok = DEFAULT_VOCAB.id("if"), DEFAULT_VOCAB.id("end")
    r = _rollout([iftok, endtok, iftok, endtok], [0.9, 0.1, 0.9, 0.1])
    stats = an.token_class_stats([r])
    assert stats["control-flow"]["mean"] == pytest.approx(0.9)
    assert stats["structural-terminator"]["mean"] == pytest.approx(0.1)
    assert stats["literal"]["count"] == 0
    assert stats["literal"]["mean"] is None


def test_class_stats_requires_rollouts():
    with pytest.raises(DomainError):
        an.token_class_stats([])


def test_top_tokens_frequency_floor_and_ranking():
    iftok, endtok = DEFAULT_VOCAB.id("if"), DEFAULT_VOCAB.id("end")
    r = _rollout([iftok, endtok] * 3, [0.9, 0.1] * 3)
    hi, lo = an.top_tokens_by_entropy([r], k=1, min_frequency=2)
    assert hi[0][0] == "if" and hi[0][1] == pytest.approx(0.9)
    assert lo[0][0] == "end"
    hi, lo = an.top_tokens_by_entropy([r], k=5, min_frequency=10)
    assert hi == [] and lo == []


def test_heatmap_projection_is_bitwise():
    r = _rollout([3, 4, 5], [0.25, 0.5, 0.75])
    records = an.heatmap_export(r)
    assert len(records) == 3
    assert [h for _, _, h in records] == list(r.entropies)
    csv = an.heatmap_to_csv(records)
    assert csv.splitlines()[0] == "position,token,entropy"
    svg = an.heatmap_to_svg(records)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_csv_cells():
    r = _rollout([DEFAULT_VOCAB.id("if")], [0.5])
    lines = an.token_classes_to_csv(an.token_class_stats([r])).splitlines()
    assert "literal,0,," in lines and "control-flow,1,0.5,0.5" in lines
    text = an.top_tokens_to_csv([(",", 0.5, 3)], [("if", 0.25, 2)])
    assert text == ('rank,direction,token,mean_entropy,frequency\n'
                    '1,highest,",",0.5,3\n1,lowest,if,0.25,2\n')
    report = an.EvalReport((an.TaskEval("a,b", 5, 2, 3, 0.5),), (1,))
    lines = an.eval_to_csv(report).splitlines()
    assert lines[1] == '"a,b",5,2,3,0.5,0.4,0.6'
    assert lines[2] == "aggregate,,,,0.5,0.4,0.6"
    rows = list(csv.reader(lines))
    assert [len(row) for row in rows] == [len(rows[0])] * 3


# --- eval suite and ablation format -------------------------------------------

def _mini_eval():
    from earl.taskgen import CorpusConfig, build_corpus
    corpus = build_corpus(CorpusConfig({"combinational-easy": 5},
                                       heldout_fraction=0.4), 23)
    p = pol.init_params(DEFAULT_VOCAB, 4, 0)
    return p, corpus.heldout()


def test_eval_suite_shape_and_syntax_dominates_functional():
    p, tasks = _mini_eval()
    report = an.eval_suite(p, tasks, n=5, ks=(1, 5), temperature=1.0,
                           seed=0, max_len=30)
    assert len(report.tasks) == len(tasks)
    for t in report.tasks:
        for k in (1, 5):
            assert t.syn_at(k) >= t.pass_at(k)


def test_eval_suite_deterministic():
    p, tasks = _mini_eval()
    a = an.eval_suite(p, tasks, n=3, ks=(1,), temperature=1.0, seed=7,
                      max_len=30)
    b = an.eval_suite(p, tasks, n=3, ks=(1,), temperature=1.0, seed=7,
                      max_len=30)
    assert an.eval_to_csv(a) == an.eval_to_csv(b)


def test_eval_suite_rejects_empty_and_small_n():
    p, tasks = _mini_eval()
    with pytest.raises(DomainError):
        an.eval_suite(p, [], n=5, ks=(1, 5), temperature=1.0, seed=0,
                      max_len=256)
    with pytest.raises(DomainError):
        an.eval_suite(p, tasks, n=3, ks=(1, 5), temperature=1.0, seed=0,
                      max_len=256)


def _eval_by_slices(params, tasks, n, seed, max_len, temperature):
    """The earlier eval_suite loop, the oracle for the current one: the
    rollouts (task, j) in task order, sampled in slices of 48 that may split
    a task, then scored one by one."""
    jobs = [(task, j) for task in tasks for j in range(n)]
    rollouts, breakdowns = [], []
    for start in range(0, len(jobs), 48):
        chunk = jobs[start:start + 48]
        batch = pol.sample_rollouts(
            params, [task.prompt_tokens for task, _ in chunk], temperature,
            max_len, [mix(seed, "eval", task.id, j) for task, j in chunk])
        breakdowns += [rew.score(r.response_tokens, task,
                                 truncated=r.truncated)
                       for (task, _), r in zip(chunk, batch)]
        rollouts += batch
    rows = []
    for ti, task in enumerate(tasks):
        bds = breakdowns[ti * n:(ti + 1) * n]
        rows.append(an.TaskEval(task.id, n,
                                sum(bd.functional_pass for bd in bds),
                                sum(bd.syntax_ok for bd in bds),
                                float(np.mean([bd.reward for bd in bds]))))
    return an.EvalReport(tuple(rows), (1,)), rollouts


@pytest.fixture(scope="module")
def sft_eval_setup():
    from earl.taskgen import CorpusConfig, build_corpus
    corpus = build_corpus(CorpusConfig({"combinational-easy": 40,
                                        "mux-easy": 20},
                                       heldout_fraction=0.0), 5)
    p = pol.init_params(DEFAULT_VOCAB, 4, 0)
    p, _ = pol.train_sft(p, corpus.tasks,
                         pol.SftSchedule(peak_lr=4.0, warmup_steps=10,
                                         total_steps=300, batch_contexts=256))
    return p, corpus.tasks


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_eval_suite_matches_slice_loop(sft_eval_setup, n):
    p, tasks = sft_eval_setup
    want, want_rollouts = _eval_by_slices(p, tasks, n, 11, 40, 0.9)
    report, rollouts = an.eval_suite(p, tasks, n=n, ks=(1,), temperature=0.9,
                                     seed=11, max_len=40,
                                     collect_rollouts=True)
    assert an.eval_to_csv(report) == an.eval_to_csv(want)
    assert an.eval_to_csv(an.eval_suite(
        p, tasks, n=n, ks=(1,), temperature=0.9, seed=11,
        max_len=40)) == an.eval_to_csv(want)
    assert len(rollouts) == len(want_rollouts) == n * len(tasks)
    for r, w in zip(rollouts, want_rollouts):
        assert r.prompt_tokens == w.prompt_tokens
        assert r.response_tokens == w.response_tokens
        assert r.truncated == w.truncated
        assert r.logprobs.tobytes() == w.logprobs.tobytes()
        assert r.entropies.tobytes() == w.entropies.tobytes()
    # the tasks' rewards differ, so a task's row reads its own rollouts
    assert len({t.mean_reward for t in want.tasks}) > 1


def test_eval_csv_bytes_are_pinned(sft_eval_setup):
    """eval_suite samples at T = 1.0 and scores through sample_groups; the
    eval.csv bytes of one run are pinned, so a change to a sampled token,
    a reward or the CSV text shows."""
    p, tasks = sft_eval_setup
    report = an.eval_suite(p, tasks, n=5, ks=(1, 5), temperature=1.0, seed=3,
                           max_len=40)
    assert report.aggregate_pass(1) > 0.0
    assert hashlib.sha256(an.eval_to_csv(report).encode()).hexdigest() == \
        "77dfe24c5811668d373356f977d336c8b2e2b619bfa8d7c00f95ffcc57204676"


def test_ablation_csv_header():
    rows = [an.AblationRow(0.0, 0.1, 0.2, 0.3, 1.0)]
    text = an.ablation_to_csv(rows)
    assert text.splitlines()[0] == "rho,pass@1,pass@5,syn@5"


def test_ablation_failed_cell_marks_nan_without_abort():
    from earl import rlcore
    p, tasks = _mini_eval()
    cfg = rlcore.RlConfig(steps=1, batch_prompts=1, group_size=2,
                          max_resample_attempts=0, max_response_len=20)
    # rho validation passes but training on an empty task list fails per cell
    rows = an.ablation_grid(cfg, p, [], tasks, rhos=(0.0, 0.8), seeds=(0,),
                            n=5)
    assert len(rows) == 2
    assert all(r.failed and math.isnan(r.pass1) for r in rows)
    assert rows[0].error == \
        "ConfigError: train_rl requires at least one training task"


def test_ablation_one_failed_cell_keeps_its_cause():
    from earl import rlcore
    p, tasks = _mini_eval()
    cfg = rlcore.RlConfig(steps=1, batch_prompts=1, group_size=2,
                          max_resample_attempts=0, max_response_len=20)
    # rho = 1.0 fails RlConfig.validate inside its cell only
    rows = an.ablation_grid(cfg, p, tasks, tasks, rhos=(0.0, 1.0),
                            seeds=(0,), n=5)
    assert not rows[0].failed and rows[0].error is None
    assert math.isfinite(rows[0].pass1)
    assert rows[1].failed and math.isnan(rows[1].pass1)
    assert rows[1].error == "ConfigError: rl.rho: must be in [0, 1)"
    assert an.ablation_to_csv(rows).splitlines()[2] == "1.0,nan,nan,nan"
