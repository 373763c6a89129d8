"""Task generation: determinism, passing references, diversity, prompts."""

import hashlib
import json

import pytest

from earl import reward, taskgen
from earl.errors import ConfigError, EarlError
from earl.minirtl import DEFAULT_VOCAB, is_exhaustive, tokenize
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
    """Each draw's vectors are exhaustive for its reference, and its own
    reference text scores a pass on them."""
    kinds = ["combinational", "register", "counter", "mux", "fsm-lite"]
    eos = DEFAULT_VOCAB.id(EOS)
    n = 0
    for seed in range(67):
        for kind in kinds:
            for difficulty in ("easy", "medium", "hard"):
                task = generate_task(seed * 31 + n, kind, difficulty,
                                     task_id=f"t{n}")
                assert is_exhaustive(task.vectors, task.reference), \
                    (kind, difficulty, seed)
                tokens = tokenize(task.reference_text) + [eos]
                assert reward.score(tokens, task).functional_pass, \
                    (kind, difficulty, seed)
                n += 1
    assert n >= 1000


def test_prompt_starts_bos_ends_endspec():
    task = generate_task(3, "combinational", "medium", task_id="t")
    toks = [DEFAULT_VOCAB.token(i) for i in task.prompt_tokens]
    assert toks[0] == "BOS" and toks[-1] == "ENDSPEC"


def test_prompt_length_bound_all_kinds():
    for seed in range(50):
        for kind in ("combinational", "register", "counter", "mux",
                     "fsm-lite"):
            for difficulty in ("easy", "medium", "hard"):
                task = generate_task(seed, kind, difficulty, task_id="t")
                assert len(task.prompt_tokens) <= PROMPT_MAX_LEN


def test_prompt_over_the_bound_raises(monkeypatch):
    # no drawn module reaches PROMPT_MAX_LEN, so the bound is lowered
    monkeypatch.setattr(taskgen, "PROMPT_MAX_LEN", 5)
    with pytest.raises(EarlError, match="prompt too long"):
        generate_task(3, "combinational", "medium", task_id="t")


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
        outs = tuple(p.name for p in task.reference.interface.output_ports)
        tables.add(tuple(tuple(c[o] for o in outs) for c in trace))
    assert len(tables) >= 50


def _task_fields(task):
    return (task.id, task.prompt_tokens, task.reference_text, task.reference,
            task.vectors, task.expected, task.kind, task.difficulty,
            task.split)


def test_corpus_json_round_trip(default_corpus, tmp_path):
    """corpus.json stores no vectors; load_corpus builds each task's from its
    reference, equal to the generated task's, expected outputs included."""
    path = tmp_path / "corpus.json"
    save_corpus(default_corpus, path)
    assert all("vectors" not in r for r in json.loads(path.read_text()))
    loaded = load_corpus(path)
    assert corpus_to_json(loaded) == corpus_to_json(default_corpus)
    assert [_task_fields(t) for t in loaded.tasks] == \
        [_task_fields(t) for t in default_corpus.tasks]


def test_corpus_with_stored_vectors_loads_to_the_same_tasks(default_corpus,
                                                            tmp_path):
    """A corpus.json in the earlier format, each record with the vectors
    object it no longer stores (the bytes of the earlier pin), loads to the
    same tasks: the key is ignored, as every key load_corpus does not read."""
    records = json.loads(corpus_to_json(default_corpus))
    for r, t in zip(records, default_corpus.tasks):
        r["vectors"] = {
            "cycles": [dict(sorted(c.items())) for c in t.vectors.cycles],
            "reset_prefix": t.vectors.reset_prefix}
    text = json.dumps(records, indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "aab284e455aaef0940e7beb5251a35ad8aa42a9ce5b67ec016b4f3bb0d7f33ff"
    path = tmp_path / "corpus.json"
    path.write_text(text)
    assert [_task_fields(t) for t in load_corpus(path).tasks] == \
        [_task_fields(t) for t in default_corpus.tasks]


def test_corpus_json_is_the_indented_sorted_json_dumps(default_corpus):
    """corpus_to_json writes the records' layout itself; json.dumps with
    indent=1 and sort_keys is its oracle, for an empty corpus and an empty
    prompt too."""
    from dataclasses import replace
    from earl.taskgen import Corpus

    def oracle(corpus):
        return json.dumps([
            {"id": t.id, "prompt_tokens": list(t.prompt_tokens),
             "reference_text": t.reference_text, "kind": t.kind,
             "difficulty": t.difficulty, "split": t.split}
            for t in corpus.tasks], indent=1, sort_keys=True)

    tasks = default_corpus.tasks
    escaped = replace(tasks[2], id='t"\\x', kind="k\u00e9\n")
    for corpus in (default_corpus, Corpus(()),
                   Corpus((replace(tasks[0], prompt_tokens=()), tasks[1])),
                   Corpus((escaped,))):
        assert corpus_to_json(corpus) == oracle(corpus)


def test_default_corpus_bytes_are_pinned():
    text = corpus_to_json(build_corpus(CorpusConfig(), 0))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "ba043d783d116453cf5cdaa95806fd79f4e970d8e63b2d07233f0f63348bd2e8"
