"""Shared fixtures: the default corpus, the pinned candidate set that the
MiniRTL parser and simulator pins score, and the tiny SFT policy that the RL
tests start from; the failure message of the float pins; and the per-cycle
stimulus constructor of the simulator tests."""

import numpy as np
import pytest

from earl import policy as pol
from earl.errors import DomainError
from earl.minirtl import DEFAULT_VOCAB, Stimulus, tokenize
from earl.minirtl.ast import LANE, LANE_MASK
from earl.minirtl.vocab import IDENTIFIERS, MODULE_NAMES
from earl.seeds import rng_for
from earl.taskgen import CorpusConfig, build_corpus

PIN_DRAWS = 6  # candidates per kind of edit and reference
# Interchangeable tokens: a swap within a class keeps most candidates
# parsing, so the semantic checks and the simulator see them too.
TOKEN_CLASSES = [("&", "|", "^", "=="), ("0", "1", "2", "3"),
                 ("posedge", "negedge"), ("wire", "reg"),
                 ("input", "output"), IDENTIFIERS, MODULE_NAMES]


# What the float pins (the W/b digests of the SFT and RL tests) were taken
# under: numpy's float64 exp and log kernels differ in the last bit between
# SIMD targets, and those digests move with them.
PIN_DISPATCH = ("numpy 2.4 on x86-64, CPU baseline X86_V2, dispatch targets "
                "X86_V3 X86_V4 AVX512_ICL AVX512_SPR, all enabled")


def numpy_dispatch() -> str:
    """numpy's version, its CPU baseline, the SIMD targets it dispatches to
    that this CPU enables (and all it was built for), and the CPU features
    it enables: a float pin's failure message names them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [f for f, on in umath.__cpu_features__.items() if on]
    dispatch = umath.__cpu_dispatch__
    return (f"numpy {np.__version__}; CPU baseline "
            f"{' '.join(umath.__cpu_baseline__)}; dispatch targets enabled "
            f"{' '.join(t for t in dispatch if t in enabled) or 'none'} "
            f"(built for {' '.join(dispatch)}); enabled features "
            f"{' '.join(enabled)}")


def pin_message(what: str) -> str:
    """The failure message of a float pin: what moved, the dispatch the pin
    was taken under and this run's."""
    return (f"{what} differ from the pin taken under {PIN_DISPATCH}; this "
            f"run: {numpy_dispatch()}")


def dense_dW(acc, params):
    """The dense [F, V] W gradient of a policy.GradAccumulator: its dW rows
    scattered into +0.0 zeros at its feature ids, which is what X.T @ G
    holds outside the rows a batch reads."""
    dW = np.zeros_like(params.W)
    dW[acc.ids] = acc.dW
    return dW


def stimulus_from_rows(rows, reset_prefix=0):
    """The Stimulus driving rows[c] ({input name: value}) in cycle c; a row
    that leaves a name out drives it to 0. Raises DomainError on a value
    that is not an int in [0, 16), which would carry into the next lane;
    Stimulus itself checks the reset prefix."""
    packed = {}
    for shift, row in zip(range(0, LANE * len(rows), LANE), rows):
        for name, value in row.items():
            if not isinstance(value, int) or not 0 <= value <= LANE_MASK:
                raise DomainError(
                    f"stimulus value {value!r} for {name!r} is not an int "
                    f"in [0, {LANE_MASK + 1})")
            packed[name] = packed.get(name, 0) | value << shift
    return Stimulus(packed, len(rows), reset_prefix)


@pytest.fixture(scope="session")
def default_corpus():
    """The corpus `earl gen-data` writes at seed 0."""
    return build_corpus(CorpusConfig(), 0)


@pytest.fixture(scope="session")
def tiny_sft():
    """(tasks, params): 12 combinational-easy tasks at corpus seed 17 and a
    k = 4 policy after 400 SFT steps on them. Shared by the session, so a
    test that trains or updates takes params.copy(): train_rl steps its
    params in place."""
    tasks = build_corpus(CorpusConfig({"combinational-easy": 12},
                                      heldout_fraction=0.0), 17).tasks
    params, _ = pol.train_sft(
        pol.init_params(DEFAULT_VOCAB, 4, 0), tasks,
        pol.SftSchedule(peak_lr=4.0, warmup_steps=10, total_steps=400,
                        batch_contexts=256))
    return tasks, params


@pytest.fixture(scope="session")
def pinned_candidates(default_corpus):
    """(task, token ids) pairs, derived from every default-corpus reference
    with a generator seeded by the task id: the reference itself,
    PIN_DRAWS single-token substitutions by any vocabulary id, PIN_DRAWS
    by another token of the substituted one's class and PIN_DRAWS prefix
    truncations."""
    v = DEFAULT_VOCAB
    class_of = {v.id(t): [v.id(u) for u in c if u != t]
                for c in TOKEN_CLASSES for t in c}
    cases = []
    for task in default_corpus.tasks:
        ref = tokenize(task.reference_text)
        rng = rng_for("pin-candidates", task.id)
        cases.append((task, ref))
        for _ in range(PIN_DRAWS):
            i = int(rng.integers(len(ref)))
            cases.append((task, ref[:i] + [int(rng.integers(v.size))]
                          + ref[i + 1:]))
        sites = [i for i, t in enumerate(ref) if t in class_of]
        for _ in range(PIN_DRAWS):
            i = sites[int(rng.integers(len(sites)))]
            others = class_of[ref[i]]
            cases.append((task, ref[:i] + [others[int(rng.integers(
                len(others)))]] + ref[i + 1:]))
        for _ in range(PIN_DRAWS):
            cases.append((task, ref[:int(rng.integers(len(ref)))]))
    return cases
