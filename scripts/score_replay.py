#!/usr/bin/env python3
"""Cold replay of the reward.score calls that RL training makes.

Usage: python3 scripts/score_replay.py [--sft-steps 1000] [--rl-steps 45]
                                       [--seed 1] [--passes 15]
                                       [--against CHECKOUT]

It builds the default corpus (`earl gen-data` at seed 0) and trains a
k = 48 policy for --sft-steps SFT steps at seed 0 (peak lr 8, 15 warmup
steps, 512 contexts a batch: the benchmark's rl-train set-up). It then runs
--rl-steps steps of `train_rl` at the default RL config and --seed,
recording every `reward.score` call, and replays those calls --passes
times in this process. Before each pass it clears the parser's header
cache (`parser._header.cache_clear()`), so every pass starts as cold as the
recording did, and runs a full garbage collection (`gc.collect()`) before
the clock starts, so no pass pays for an earlier pass's garbage. A
benchmark pool scored round after round is warm after its first round;
this replay measures scoring as RL traffic meets it.

It prints the recorded calls' stage mix, the calls that simulate the
candidate split by its design (one-pass, without registers, or with
registers, whose passes repeat until the registers settle), the header
cache's hits and misses in one pass, the median and quartiles over passes
of the milliseconds of scoring per RL step (CPU time of this process, the
benchmark's clock), and whether every replayed breakdown equals the
recorded one. It exits 1 when one differs. Standard library and earl only.

With --against CHECKOUT it loads CHECKOUT/src/earl in this process too,
under the package name earl_against (every import inside src/earl is
relative), and replays the calls recorded with this checkout through both
checkouts' reward.score, alternating them pass by pass (which side goes
first alternates too). Before each of its passes, each side clears its own
header cache. It prints each side's median milliseconds of scoring per RL
step, the number of passes in which CHECKOUT was lower and the median over
passes of CHECKOUT's time over this checkout's in the same pass, then whether
every breakdown of either side equals the recorded one, compared field by
field (the two checkouts' classes differ), and exits 1 when one differs.
Both sides read the same recorded arguments: this checkout's tasks and
the sampled token tuples. Separate processes time the same
code several percent apart, so a change of a few percent needs both sides
in one process.
"""

import argparse
import dataclasses
import gc
import importlib.machinery
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import earl.policy as pol
import earl.reward as rew
import earl.rlcore as rlcore
import earl.taskgen as tg
from earl.minirtl import parse, parser
from earl.minirtl.vocab import DEFAULT_VOCAB, EOS

POLICY_K = 48  # earl.cli.DEFAULT_POLICY_K
SFT = {"peak_lr": 8.0, "warmup_steps": 15, "batch_contexts": 512}
CORPUS_SEED = SFT_SEED = 0
AGAINST_PACKAGE = "earl_against"  # the package name of --against's checkout


def record(rl_steps: int, seed: int, sft_steps: int, counts=None) -> list:
    """(args, kwargs, breakdown) of each reward.score call, in call order,
    over rl_steps train_rl steps from an SFT policy trained sft_steps steps
    on the corpus of counts (the default corpus by default)."""
    config = tg.CorpusConfig() if counts is None else tg.CorpusConfig(counts)
    train = tg.build_corpus(config, CORPUS_SEED).train()
    params, _ = pol.train_sft(
        pol.init_params(DEFAULT_VOCAB, POLICY_K, SFT_SEED), train,
        pol.SftSchedule(**SFT, total_steps=sft_steps, seed=SFT_SEED))
    calls = []
    score = rew.score

    def recorded(*args, **kwargs):
        breakdown = score(*args, **kwargs)
        calls.append((args, kwargs, breakdown))
        return breakdown

    rew.score = recorded
    try:
        rlcore.train_rl(rlcore.RlConfig(steps=rl_steps, seed=seed), params,
                        train)
    finally:
        rew.score = score
    return calls


def timed_pass(score, header, calls) -> tuple[float, list]:
    """The CPU seconds that score took over calls, after clearing header
    (the parser's header cache of score's checkout) and a full garbage
    collection outside the timed region, and its breakdowns."""
    header.cache_clear()
    gc.collect()
    clock = time.process_time
    t0 = clock()
    got = [score(*args, **kwargs) for args, kwargs, _ in calls]
    return clock() - t0, got


def replay(calls, passes: int):
    """Per pass, the CPU seconds that scoring calls took, each pass after
    a cleared header cache; the header cache's info after the first pass;
    and whether every replayed breakdown equals the recorded one."""
    seconds, info, same = [], None, True
    for i in range(passes):
        s, got = timed_pass(rew.score, parser._header, calls)
        seconds.append(s)
        same = same and got == [bd for _, _, bd in calls]
        if i == 0:
            info = parser._header.cache_info()
    return seconds, info, same


def load_checkout(root):
    """reward.score and the parser's header cache of root/src/earl, loaded
    as the package AGAINST_PACKAGE (replacing any loaded under it before)."""
    name, src = AGAINST_PACKAGE, Path(root) / "src" / "earl"
    if not (src / "reward.py").is_file():
        raise FileNotFoundError(f"{src} holds no reward.py")
    for key in [k for k in sys.modules
                if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
    spec.submodule_search_locations = [str(src)]
    sys.modules[name] = importlib.util.module_from_spec(spec)
    reward = importlib.import_module(name + ".reward")
    header = importlib.import_module(name + ".minirtl.parser")._header
    return reward.score, header


def _fields(breakdown) -> list:
    return [(f.name, getattr(breakdown, f.name))
            for f in dataclasses.fields(breakdown)]


def replay_against(calls, passes: int, other):
    """Per pass, the CPU seconds that scoring calls took in this checkout
    and through other ((score, header cache) of another checkout, as
    load_checkout gives), the two alternating pass by pass, each pass
    after clearing its own side's header cache; and whether every
    breakdown of either side equals the recorded one field by field."""
    sides = [(rew.score, parser._header), other]
    seconds, same = ([], []), True
    recorded = [_fields(bd) for _, _, bd in calls]
    for i in range(passes):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            s, got = timed_pass(*sides[side], calls)
            seconds[side].append(s)
            same = same and list(map(_fields, got)) == recorded
    return seconds[0], seconds[1], same


def stage_mix(breakdowns) -> dict:
    """Calls per outcome: parse failure (truncated or not), interface
    stage, near miss and pass."""
    mix = dict.fromkeys(("parse-fail", "interface", "near-miss", "pass"), 0)
    for bd in breakdowns:
        if bd.stage_reached == rew.STAGE_PARSE_FAIL:
            mix["parse-fail"] += 1
        elif bd.stage_reached == rew.STAGE_INTERFACE:
            mix["interface"] += 1
        else:
            mix["pass" if bd.functional_pass else "near-miss"] += 1
    return mix


def simulated_mix(calls) -> dict:
    """Calls whose candidate is simulated (it reaches the functional stage),
    by its design: "one-pass" without registers and "registers", whose
    passes repeat until the registers settle."""
    mix = dict.fromkeys(("one-pass", "registers"), 0)
    eos = DEFAULT_VOCAB.id(EOS)
    for args, _, bd in calls:
        if bd.stage_reached == rew.STAGE_FUNCTIONAL:
            tokens = list(args[0])
            if tokens and tokens[-1] == eos:
                tokens.pop()
            mix["registers" if parse(tokens).registers else "one-pass"] += 1
    return mix


def main(argv=None, counts=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--sft-steps", type=int, default=1000)
    ap.add_argument("--rl-steps", type=int, default=45)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="a second source checkout to replay alternately")
    args = ap.parse_args(argv)
    if min(args.rl_steps, args.passes) < 1 or args.sft_steps < 0:
        ap.error("--rl-steps and --passes must be >= 1, --sft-steps >= 0")
    if args.against is not None:
        try:
            other = load_checkout(args.against)
        except FileNotFoundError as e:
            ap.error(f"--against: {e}")

    calls = record(args.rl_steps, args.seed, args.sft_steps, counts)
    n = len(calls)
    truncated = sum(kwargs.get("truncated", False) for _, kwargs, _ in calls)
    print(f"recorded {n} score calls over {args.rl_steps} RL steps "
          f"(seed {args.seed}, {args.sft_steps} SFT steps), "
          f"{truncated} truncated")
    for stage, count in stage_mix(bd for _, _, bd in calls).items():
        print(f"  {stage:<10} {count:>7}  {count / max(n, 1):6.1%}")
    sim = simulated_mix(calls)
    print(f"calls that simulate: {sim['one-pass']} one-pass "
          f"({sim['one-pass'] / max(n, 1):.1%}), {sim['registers']} with "
          f"registers ({sim['registers'] / max(n, 1):.1%})")
    if args.against is not None:
        mine, theirs, same = replay_against(calls, args.passes, other)
        ms = [1e3 * statistics.median(s) / args.rl_steps
              for s in (mine, theirs)]
        lower = sum(b < a for a, b in zip(mine, theirs))
        ratio = statistics.median(b / a for a, b in zip(mine, theirs))
        print(f"scoring per RL step, alternating with {args.against}: this "
              f"checkout {ms[0]:.3f} ms, CHECKOUT {ms[1]:.3f} ms (medians of "
              f"{args.passes} cold passes each); CHECKOUT lower in {lower} "
              f"of {args.passes} passes, median per-pass ratio CHECKOUT / "
              f"this checkout {ratio:.4f}")
        print(f"both checkouts' breakdowns equal the recorded ones field by "
              f"field: {'yes' if same else 'NO'}")
        return 0 if same else 1
    seconds, info, same = replay(calls, args.passes)
    print(f"header cache in one pass: {info.hits} hits, {info.misses} "
          f"misses, {info.currsize} headers kept")
    ms = sorted(1e3 * s / args.rl_steps for s in seconds)
    q1, q3 = (statistics.quantiles(ms, n=4)[::2] if len(ms) > 1
              else (ms[0], ms[0]))
    print(f"scoring per RL step: {statistics.median(ms):.3f} ms "
          f"(quartiles {q1:.3f}-{q3:.3f}, {args.passes} cold passes)")
    print(f"replayed breakdowns equal the recorded ones: "
          f"{'yes' if same else 'NO'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
