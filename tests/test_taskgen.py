"""Task generation: determinism, passing references, diversity, prompts."""

import json

import pytest

from earl import reward
from earl.errors import ConfigError
from earl.minirtl import DEFAULT_VOCAB, tokenize
from earl.minirtl.vocab import EOS
from earl.taskgen import (PROMPT_MAX_LEN, CorpusConfig, build_corpus,
                          corpus_to_json, generate_task, load_corpus,
                          save_corpus)


def test_generate_easy_comb_structure():
    task = generate_task(7, "combinational", "easy", task_id="t")
    iface = task.reference.interface
    assert len(iface.inputs()) == 2
    assert len(task.reference.assigns) == 1
    assert not task.reference.is_sequential()


def test_register_tasks_have_register_and_clock():
    for difficulty in ("easy", "medium", "hard"):
        task = generate_task(11, "register", difficulty, task_id="t")
        assert len(task.reference.registers) == 1
        assert any(p.name == "clk" for p in task.reference.interface.inputs())


def test_generated_tasks_all_validate():
    """Each draw's own reference text scores a pass on its vectors, which
    also requires the vectors to be exhaustive."""
    kinds = ["combinational", "register", "counter", "mux", "fsm-lite"]
    eos = DEFAULT_VOCAB.id(EOS)
    n = 0
    for seed in range(67):
        for kind in kinds:
            for difficulty in ("easy", "medium", "hard"):
                task = generate_task(seed * 31 + n, kind, difficulty,
                                     task_id=f"t{n}")
                tokens = tokenize(task.reference_text) + [eos]
                assert reward.score(tokens, task).functional_pass, \
                    (kind, difficulty, seed)
                n += 1
    assert n >= 1000


def test_prompt_starts_bos_ends_endspec():
    task = generate_task(3, "combinational", "medium", task_id="t")
    toks = DEFAULT_VOCAB.strings(task.prompt_tokens)
    assert toks[0] == "BOS" and toks[-1] == "ENDSPEC"


def test_prompt_length_bound_all_kinds():
    for seed in range(50):
        for kind in ("combinational", "register", "counter", "mux",
                     "fsm-lite"):
            for difficulty in ("easy", "medium", "hard"):
                task = generate_task(seed, kind, difficulty, task_id="t")
                assert len(task.prompt_tokens) <= PROMPT_MAX_LEN


def test_encoding_deterministic_for_identical_tasks():
    a = generate_task(5, "combinational", "easy", task_id="x")
    b = generate_task(5, "combinational", "easy", task_id="y")
    assert b.prompt_tokens == a.prompt_tokens


def test_corpus_determinism_byte_identical():
    cfg = CorpusConfig({"combinational-easy": 50})
    c1 = build_corpus(cfg, 1)
    c2 = build_corpus(cfg, 1)
    assert corpus_to_json(c1) == corpus_to_json(c2)


def test_corpus_counts_and_split():
    cfg = CorpusConfig({"combinational-easy": 20, "register-easy": 5})
    corpus = build_corpus(cfg, 9)
    assert len(corpus.tasks) == 25
    train, held = corpus.train(), corpus.heldout()
    assert len(held) == 5  # 20% of 25
    assert {t.id for t in train}.isdisjoint({t.id for t in held})


def test_default_corpus_is_500_train_125_heldout():
    cfg = CorpusConfig()
    assert sum(cfg.counts.values()) == 625
    assert int(round(625 * cfg.heldout_fraction)) == 125


def test_invalid_counts_rejected():
    with pytest.raises(ConfigError):
        CorpusConfig({"combinational-easy": 0}).validate()
    with pytest.raises(ConfigError):
        CorpusConfig({"bogus-easy": 5}).validate()
    with pytest.raises(ConfigError):
        CorpusConfig({}).validate()


def test_behavioral_diversity_among_comb_tasks():
    from earl.minirtl import Stimulus, simulate
    cfg = CorpusConfig({"combinational-easy": 170, "combinational-medium": 170,
                        "combinational-hard": 160}, heldout_fraction=0.0)
    corpus = build_corpus(cfg, 13)
    tables = set()
    for task in corpus.tasks:
        trace = simulate(task.reference, task.vectors)
        outs = tuple(p.name for p in task.reference.interface.outputs())
        tables.add(tuple(tuple(c[o] for o in outs) for c in trace))
    assert len(tables) >= 50


def test_corpus_json_round_trip(tmp_path):
    cfg = CorpusConfig({"combinational-easy": 8, "counter-easy": 4})
    corpus = build_corpus(cfg, 2)
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert corpus_to_json(loaded) == corpus_to_json(corpus)
    for a, b in zip(corpus.tasks, loaded.tasks):
        assert a.prompt_tokens == b.prompt_tokens
        assert a.reference_text == b.reference_text
        assert a.reference.interface == b.reference.interface

