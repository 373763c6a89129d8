"""Synthetic generation of specification-code-testbench triples.

Each task pairs a structured prompt (the specification), a reference MiniRTL
module, and exhaustive test vectors. Templates replace an LLM generator. The
vectors are built from the reference, so a generated reference passes them by
construction; ``load_corpus`` checks corpora read from outside the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, EarlError
from .minirtl import (Binary, Const, Index, MiniRtlError, ModuleAst,
                      Stimulus, Ternary, Unary, Var, build_vectors, parse,
                      simulate, tokenize)
from .minirtl.vocab import (BOS, DEFAULT_VOCAB, ENDSPEC, IN, KIND_COUNT,
                            KIND_DFF, KIND_FSM, MODULE_NAMES, OUT, SPEC, TT)
from .seeds import mix, rng_for

KINDS = ("combinational", "register", "counter", "mux", "fsm-lite")
DIFFICULTIES = ("easy", "medium", "hard")

DIGEST_ROWS = 16  # leading cycles of the reference trace the prompt digests
DIGEST_BITS = 16  # output bits kept from those cycles
PROMPT_MAX_LEN = 48

_SEQ_KIND_TAG = {"register": KIND_DFF, "counter": KIND_COUNT,
                 "fsm-lite": KIND_FSM}


@dataclass(frozen=True)
class Task:
    id: str
    prompt_tokens: tuple[int, ...]
    reference_text: str
    reference: ModuleAst
    vectors: Stimulus
    kind: str
    difficulty: str
    split: str = "train"


@dataclass(frozen=True)
class Corpus:
    tasks: tuple[Task, ...]

    def train(self) -> tuple[Task, ...]:
        return tuple(t for t in self.tasks if t.split == "train")

    def heldout(self) -> tuple[Task, ...]:
        return tuple(t for t in self.tasks if t.split == "eval-heldout")


# 625 tasks -> 500 train / 125 heldout at the default heldout fraction.
DEFAULT_CORPUS_COUNTS = {
    "combinational-easy": 150, "combinational-medium": 150,
    "combinational-hard": 50,
    "mux-easy": 50, "mux-medium": 25,
    "register-easy": 50, "register-medium": 25,
    "counter-easy": 50,
    "fsm-lite-easy": 50, "fsm-lite-medium": 25,
}


@dataclass(frozen=True)
class CorpusConfig:
    counts: dict = field(
        default_factory=lambda: dict(DEFAULT_CORPUS_COUNTS))
    heldout_fraction: float = 0.2

    def validate(self) -> None:
        if not self.counts:
            raise ConfigError("corpus.counts: empty")
        for key, n in self.counts.items():
            kind, difficulty = split_count_key(key)
            if kind not in KINDS or difficulty not in DIFFICULTIES:
                raise ConfigError(f"corpus.counts.{key}: unknown kind/difficulty")
            if type(n) is not int or n < 1:
                raise ConfigError(f"corpus.counts.{key}: must be an int >= 1")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ConfigError("corpus.heldout_fraction: must be in [0, 1)")


def split_count_key(key: str) -> tuple[str, str]:
    base, _, difficulty = key.rpartition("-")
    return base, difficulty


# --- expression templates ----------------------------------------------------

_BINOPS = ("&", "|", "^")


def _rand_expr(rng: np.random.Generator, names: list[str], depth: int):
    """Random expression tree over 1-bit variables, nesting depth <= depth."""
    if depth <= 1:
        return Var(names[int(rng.integers(len(names)))])
    r = rng.random()
    if r < 0.18:
        return Var(names[int(rng.integers(len(names)))])
    if r < 0.36:
        return Unary("~", _rand_expr(rng, names, depth - 1))
    if r < 0.46 and depth >= 3 and len(names) >= 3:
        return Ternary(Var(names[int(rng.integers(len(names)))]),
                       _rand_expr(rng, names, depth - 1),
                       _rand_expr(rng, names, depth - 1))
    op = _BINOPS[int(rng.integers(len(_BINOPS)))]
    return Binary(op, _rand_expr(rng, names, depth - 1),
                  _rand_expr(rng, names, depth - 1))


def _easy_comb_expr(rng: np.random.Generator, names: list[str]):
    """Canonical easy form: optionally negated binary op over the two inputs."""
    a, b = Var(names[0]), Var(names[1])
    op = ("&", "|", "^", "==")[int(rng.integers(4))]
    e = Binary(op, a, b)
    if rng.random() < 0.5:
        e = Unary("~", e)
    return e


def _expr_text(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Index):
        return f"{e.name} [ {e.bit} ]"
    if isinstance(e, Unary):
        # Binary/ternary operands already render parenthesized.
        return f"~ {_expr_text(e.operand)}"
    if isinstance(e, Binary):
        return f"( {_expr_text(e.left)} {e.op} {_expr_text(e.right)} )"
    if isinstance(e, Ternary):
        return (f"( {_expr_text(e.cond)} ? {_expr_text(e.then)} : "
                f"{_expr_text(e.other)} )")
    raise AssertionError(e)


# --- module templates --------------------------------------------------------

def _comb_source(name: str, inputs: list[str], expr_text: str) -> str:
    ports = " , ".join(f"input {n}" for n in inputs) + " , output y"
    return f"module {name} ( {ports} ) ; assign y = {expr_text} ; endmodule"


def _seq_source(name: str, inputs: list[str], outputs: list[str],
                regs: list[tuple[str, str, str | None]], edge: str) -> str:
    """regs: (target, next-expr text, reset-condition text or None)."""
    ports = " , ".join([f"input {n}" for n in inputs]
                       + [f"output {n}" for n in outputs])
    body = []
    for target, nxt, rst in regs:
        body.append(f"reg {target} ;")
    for target, nxt, rst in regs:
        if rst is None:
            stmt = f"{target} <= {nxt} ;"
        else:
            stmt = f"if ( {rst} ) {target} <= 0 ; else {target} <= {nxt} ;"
        body.append(f"always @ ( {edge} clk ) begin {stmt} end")
    return f"module {name} ( {ports} ) ; " + " ".join(body) + " endmodule"


def _draw_source(rng: np.random.Generator, kind: str, difficulty: str) -> str:
    name = MODULE_NAMES[int(rng.integers(len(MODULE_NAMES)))]
    if kind == "combinational":
        if difficulty == "easy":
            inputs = ["a", "b"]
            expr = _easy_comb_expr(rng, inputs)
        elif difficulty == "medium":
            inputs = ["a", "b", "c"]
            expr = _rand_expr(rng, inputs, 4)
        else:
            inputs = ["a", "b", "c", "d"]
            expr = _rand_expr(rng, inputs, 5)
        return _comb_source(name, inputs, _expr_text(expr))
    if kind == "mux":
        if difficulty == "easy":
            return _comb_source(name, ["sel", "a", "b"], "( sel ? a : b )")
        inputs = ["sel", "a", "b", "c"]
        op = _BINOPS[int(rng.integers(3))]
        arm = f"( a {op} b )" if rng.random() < 0.5 else "a"
        return _comb_source(name, inputs, f"( sel ? {arm} : c )")
    edge = "posedge" if rng.random() < 0.8 else "negedge"
    if kind == "register":
        if difficulty == "easy":
            return _seq_source(name, ["clk", "d"], ["q"],
                               [("q", "d", None)], edge)
        if difficulty == "medium":
            nxt = _expr_text(_rand_expr(rng, ["d", "q"], 2))
            return _seq_source(name, ["clk", "rst", "d"], ["q"],
                               [("q", nxt, "rst")], edge)
        nxt = _expr_text(_rand_expr(rng, ["d", "e", "q"], 3))
        return _seq_source(name, ["clk", "rst", "d", "e"], ["q"],
                           [("q", f"( e ? {nxt} : q )", "rst")], edge)
    if kind == "counter":
        regs = [("q0", "~ q0", "rst"), ("q1", "( q1 ^ q0 )", "rst")]
        if difficulty == "hard":
            regs = [("q0", "( e ? ~ q0 : q0 )", "rst"),
                    ("q1", "( e ? ( q1 ^ q0 ) : q1 )", "rst")]
            return _seq_source(name, ["clk", "rst", "e"], ["q0", "q1"],
                               regs, edge)
        return _seq_source(name, ["clk", "rst"], ["q0", "q1"], regs, edge)
    if kind == "fsm-lite":
        n0 = _expr_text(_rand_expr(rng, ["sel", "q0"], 2))
        if difficulty == "hard":
            n1 = _expr_text(_rand_expr(rng, ["sel", "q0", "q1"], 3))
            return _seq_source(name, ["clk", "rst", "sel"], ["q0", "q1"],
                               [("q0", n0, "rst"), ("q1", n1, "rst")], edge)
        return _seq_source(name, ["clk", "rst", "sel"], ["q0"],
                           [("q0", n0, "rst")], edge)
    raise ConfigError(f"unknown kind {kind!r}")


# --- prompt encoding ---------------------------------------------------------

def encode_prompt(reference: ModuleAst, kind: str,
                  trace: list[dict[str, int]]) -> tuple[int, ...]:
    """Deterministic structured encoding of the task specification.

    Layout: BOS SPEC <name> IN <inputs> OUT <outputs>, then TT for
    combinational designs or a kind tag for sequential ones, then the
    output bits of trace (at most DIGEST_BITS), closed by ENDSPEC. trace is
    the reference's outputs over the first DIGEST_ROWS cycles of its vectors
    (for combinational designs, the leading truth-table rows).
    """
    v = DEFAULT_VOCAB
    iface = reference.interface
    toks = [BOS, SPEC, iface.module_name, IN]
    toks += [p.name for p in iface.inputs()]
    toks.append(OUT)
    toks += [p.name for p in iface.outputs()]
    toks.append(_SEQ_KIND_TAG[kind] if reference.is_sequential() else TT)
    bits = [(row[p.name] >> i) & 1 for row in trace
            for p in iface.outputs() for i in range(p.width)]
    toks += [str(bit) for bit in bits[:DIGEST_BITS]]
    toks.append(ENDSPEC)
    assert len(toks) <= PROMPT_MAX_LEN, f"prompt too long: {len(toks)}"
    return tuple(v.id(t) for t in toks)


# --- generation --------------------------------------------------------------

def generate_task(seed: int, kind: str, difficulty: str,
                  task_id: str | None = None) -> Task:
    """Generate one task; redraws degenerate (constant) behaviors."""
    if kind not in KINDS or difficulty not in DIFFICULTIES:
        raise ConfigError(f"unknown kind/difficulty {kind!r}/{difficulty!r}")
    rng = rng_for("task", seed, kind, difficulty)
    for _ in range(100):
        text = _draw_source(rng, kind, difficulty)
        reference = parse(tokenize(text))
        vectors = build_vectors(reference, seed=seed)
        trace = simulate(reference, Stimulus(vectors.cycles[:DIGEST_ROWS],
                                             vectors.reset_prefix))
        if any(len({row[p.name] for row in trace}) < 2
               for p in reference.interface.outputs()):
            continue  # some output is constant over the digest trace
        return Task(id=task_id or f"{kind}-{difficulty}-s{seed}",
                    prompt_tokens=encode_prompt(reference, kind, trace),
                    reference_text=text, reference=reference,
                    vectors=vectors, kind=kind, difficulty=difficulty)
    raise EarlError(
        f"no non-degenerate draw for ({seed}, {kind}, {difficulty}) "
        "after 100 attempts")


def build_corpus(config: CorpusConfig, seed: int) -> Corpus:
    """Exact requested counts per kind/difficulty; deterministic given seed."""
    config.validate()
    tasks: list[Task] = []
    index = 0
    for key in sorted(config.counts):
        kind, difficulty = split_count_key(key)
        for _ in range(config.counts[key]):
            task_seed = mix(seed, "corpus-task", index)
            task = generate_task(task_seed, kind, difficulty,
                                 task_id=f"t{index:04d}-{key}")
            tasks.append(task)
            index += 1
    total = len(tasks)
    n_heldout = int(round(total * config.heldout_fraction))
    order = rng_for(seed, "corpus-split").permutation(total)
    heldout_idx = set(int(i) for i in order[:n_heldout])
    final = [replace(t, split="eval-heldout" if i in heldout_idx else "train")
             for i, t in enumerate(tasks)]
    return Corpus(tuple(final))


# --- persistence -------------------------------------------------------------

def corpus_to_json(corpus: Corpus) -> str:
    records = []
    for t in corpus.tasks:
        records.append({
            "id": t.id,
            "prompt_tokens": list(t.prompt_tokens),
            "reference_text": t.reference_text,
            "vectors": {
                "cycles": [dict(sorted(c.items())) for c in t.vectors.cycles],
                "reset_prefix": t.vectors.reset_prefix,
            },
            "kind": t.kind,
            "difficulty": t.difficulty,
            "split": t.split,
        })
    return json.dumps(records, indent=1, sort_keys=True)


def save_corpus(corpus: Corpus, path) -> None:
    Path(path).write_text(corpus_to_json(corpus))


def _wrong_field_type(r: dict) -> str | None:
    """The first field of a corpus record whose JSON type or value is wrong,
    if any; a missing key raises KeyError."""
    for key in ("id", "kind", "difficulty"):
        if not isinstance(r[key], str):
            return f"{key} is not a string"
    if r["split"] not in ("train", "eval-heldout"):
        return f"split {r['split']!r} is not 'train' or 'eval-heldout'"
    V = DEFAULT_VOCAB.size
    toks = r["prompt_tokens"]
    if not (isinstance(toks, list)
            and all(type(t) is int and 0 <= t < V for t in toks)):
        return "prompt_tokens is not a list of token ids"
    if not isinstance(r["reference_text"], str):
        return "reference_text is not a string"
    vectors = r["vectors"]
    if not isinstance(vectors, dict):
        return "vectors is not an object"
    cycles = vectors["cycles"]
    if not (isinstance(cycles, list)
            and all(isinstance(c, dict) for c in cycles)):
        return "vectors.cycles is not a list of objects"
    if type(vectors["reset_prefix"]) is not int:
        return "vectors.reset_prefix is not an int"
    return None


def _bad_cycle(cycles, reference: ModuleAst) -> str | None:
    """What is wrong with the first vector cycle that does not drive exactly
    the reference's inputs with int values in range, or None."""
    widths = {p.name: p.width for p in reference.interface.inputs()}
    for c, row in enumerate(cycles):
        if row.keys() != widths.keys():
            return f"cycle {c} drives {sorted(row)}, not {sorted(widths)}"
        for name, value in row.items():
            if type(value) is not int or not 0 <= value < 1 << widths[name]:
                return (f"cycle {c}: {name} = {value!r} is not a "
                        f"{widths[name]}-bit value")
    return None


def load_corpus(path) -> Corpus:
    try:
        records = json.loads(Path(path).read_text())
    except ValueError as e:  # not UTF-8, or not JSON
        raise DomainError(f"corpus: not a JSON file: {e}") from None
    if not isinstance(records, list):
        raise DomainError("corpus: top level is not a list of records")
    tasks = []
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            raise DomainError(f"corpus record {i}: not an object")
        try:
            wrong = _wrong_field_type(r)
            if wrong:
                raise DomainError(f"corpus record {i}: {wrong}")
            fields = dict(id=r["id"], prompt_tokens=tuple(r["prompt_tokens"]),
                          reference_text=r["reference_text"], kind=r["kind"],
                          difficulty=r["difficulty"], split=r["split"])
            vectors = Stimulus(tuple(r["vectors"]["cycles"]),
                               r["vectors"]["reset_prefix"])
        except KeyError as e:
            raise DomainError(f"corpus record {i}: missing key {e.args[0]!r}"
                              ) from None
        try:
            reference = parse(tokenize(fields["reference_text"]))
        except MiniRtlError as e:
            raise DomainError(f"corpus record {i}: reference_text does not "
                              f"parse: {e}") from None
        bad = _bad_cycle(vectors.cycles, reference)
        if bad:
            raise DomainError(f"corpus record {i}: vectors: {bad}")
        tasks.append(Task(reference=reference, vectors=vectors, **fields))
    return Corpus(tuple(tasks))
