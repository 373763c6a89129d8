"""Per-layer instrumentation for the traced run.

``install`` wraps the public entry points of each earl layer by module
attribute and counts work at each boundary; ``metrics`` turns the spans and
counts into the per-layer metrics named in BENCHMARK.json. A metric whose
layer the workload never calls reads 0.

Spans of the set-up layers (taskgen, checkpoints, SFT, tokenize) are summed
over the whole traced run, because the rl-train set-up is where they run.
All other layers are summed over the traced timed pass only.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

import calibrate
from spans import now

# (name, unit, better), in the order BENCHMARK.json lists them.
CATALOG = [
    ("policy.sample_rollout.calls", "count", "lower"),
    ("policy.sample_rollout.tokens", "count", "lower"),
    ("policy.sample_rollout.self_s", "s", "lower"),
    ("policy.sample_rollout.tok_per_s", "1/s", "higher"),
    ("policy.sample_rollout.mean_len", "tokens", "lower"),
    ("policy.sample_rollout.truncated_ratio", "ratio", "lower"),
    ("policy.sequence_logprobs.calls", "count", "lower"),
    ("policy.sequence_logprobs.tokens", "count", "lower"),
    ("policy.sequence_logprobs.self_s", "s", "lower"),
    ("policy.response_distributions.calls", "count", "lower"),
    ("policy.response_distributions.self_s", "s", "lower"),
    ("policy.apply_update.self_s", "s", "lower"),
    ("policy.train_sft.self_s", "s", "lower"),
    ("policy.train_sft.step_ms.p50", "ms", "lower"),
    ("policy.train_sft.step_ms.tail", "ms", "lower"),
    ("policy.save_checkpoint.s", "s", "lower"),
    ("policy.load_checkpoint.s", "s", "lower"),
    ("policy.checkpoint.bytes", "bytes", "lower"),
    ("taskgen.build_corpus.s", "s", "lower"),
    ("taskgen.parse_per_task", "ratio", "lower"),
    ("taskgen.save_corpus.s", "s", "lower"),
    ("taskgen.load_corpus.s", "s", "lower"),
    ("taskgen.corpus.bytes", "bytes", "lower"),
    ("reward.score.calls", "count", "lower"),
    ("reward.score.self_s", "s", "lower"),
    ("reward.score.us_per_call", "us", "lower"),
    ("reward.stage.parse_fail", "count", "lower"),
    ("reward.stage.interface", "count", "lower"),
    ("reward.stage.near_miss", "count", "lower"),
    ("reward.stage.pass", "count", "higher"),
    ("minirtl.parse.calls", "count", "lower"),
    ("minirtl.parse.self_s", "s", "lower"),
    ("minirtl.parse.fail_ratio", "ratio", "lower"),
    ("minirtl.simulate.calls", "count", "lower"),
    ("minirtl.simulate.cycles", "count", "lower"),
    ("minirtl.simulate.self_s", "s", "lower"),
    ("minirtl.simulate.reference_share", "ratio", "lower"),
    ("minirtl.is_exhaustive.calls", "count", "lower"),
    ("minirtl.is_exhaustive.self_s", "s", "lower"),
    ("minirtl.tokenize.self_s", "s", "lower"),
    ("rlcore.filter_groups.retained_ratio", "ratio", "higher"),
    ("rlcore.attempts_per_step", "ratio", "lower"),
    ("rlcore.sample_group.self_s", "s", "lower"),
    ("rlcore.prepare_batch.self_s", "s", "lower"),
    ("rlcore.assemble_gradient.calls", "count", "lower"),
    ("rlcore.assemble_gradient.self_s", "s", "lower"),
    ("rlcore.assemble_gradient.us_per_token", "us", "lower"),
    ("rlcore.step.share.sample", "ratio", "lower"),
    ("rlcore.step.share.score", "ratio", "lower"),
    ("rlcore.step.share.gradient", "ratio", "lower"),
    ("rlcore.step.share.update", "ratio", "lower"),
    ("analysis.eval_suite.s", "s", "lower"),
    ("analysis.eval_suite.rollouts", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("rl_reward_mean", "reward", "higher"),
    ("eval_pass1", "ratio", "higher"),
    ("sft_loss_final", "nats", "lower"),
]

GUARDS = ("rl_reward_mean", "eval_pass1", "sft_loss_final")
SFT_KERNEL_EVERY = 50  # SFT steps per calibration kernel run (fewer than ten
# post-kernel steps per repeat, so they stay out of the step tail)


def percentile_tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def install_clocks(rec, ticks: bool = False) -> None:
    """Step clocks, the calibration kernel and a token counter; cheap enough
    for untraced runs.

    An RL step starts at its attempt-0 prompt draw, whose seed derivation
    rng_for(seed, "rl-prompts", step, attempt) the byte-determinism contract
    fixes; an SFT step runs from one lr_at call to the next. Each clock
    stamps "<name>.end" before and "<name>" after the kernel it runs between
    two steps, so step times leave the kernel out. With ``ticks``, a tick
    runs next to each kernel and after each sampled rollout, for
    ``between_ticks``; traced runs leave them out, because a span would
    count them.
    """
    def step(name, with_kernel):
        rec.stamp(f"{name}.end")
        if with_kernel:
            rec.stamp("kernel", calibrate.run())
            if ticks:
                tick(rec)
        rec.stamp(name)

    def rollout(args, r):
        rec.stamp("tokens", len(r.response_tokens))
        if ticks:
            tick(rec)

    def prompts(args, _):
        if len(args) >= 4 and args[1] == "rl-prompts":
            rec.stamp("rl.attempt")
            if args[3] == 0:
                step("rl.step", True)

    rec.tap("earl.rlcore", "rng_for", prompts)
    rec.tap("earl.policy", "lr_at",
            lambda args, _: step("sft.step", args[0] % SFT_KERNEL_EVERY == 0))
    rec.tap("earl.policy", "sample_rollout", rollout)


def step_seconds(rec, phase: str, name: str) -> list[float]:
    """Durations of consecutive steps timed by a clock, kernel excluded."""
    starts, ends = rec.series[phase, name], rec.series[phase, f"{name}.end"]
    return [end - start for start, end in zip(starts, ends[1:])]


def tick(rec) -> None:
    """Run calibrate.tick and record when it started and ended."""
    start = now()
    rec.stamp("tick", calibrate.tick())
    rec.stamp("tick.start", start)
    rec.stamp("tick.end")


def between_ticks(rec, phase: str, starts, ends, scaled: bool = True):
    """Durations of the ops [starts[i], ends[i]) without the ticks inside
    them, or None when the phase ran no ticks. With ``scaled``, the stretch
    between two ticks counts at the reference speed of calibrate.tick: its
    CPU time times TICK_REFERENCE_S over the mean of the two ticks. Time
    before the first tick and after the last one is not counted, so a
    workload ticks before its first op and after its last."""
    k = np.asarray(rec.series[phase, "tick"])
    if len(k) < 2:
        return None
    lo = np.asarray(rec.series[phase, "tick.end"])[:-1]
    hi = np.asarray(rec.series[phase, "tick.start"])[1:]
    rate = (2 * calibrate.TICK_REFERENCE_S / (k[:-1] + k[1:]) if scaled
            else np.ones(len(lo)))
    done = np.concatenate([[0.0], np.cumsum((hi - lo) * rate)])

    def at(x):  # counted time from the first tick's end to x
        i = np.clip(np.searchsorted(lo, x, side="right") - 1, 0, len(lo) - 1)
        return done[i] + np.clip(x - lo[i], 0, hi[i] - lo[i]) * rate[i]

    return (at(np.asarray(ends)) - at(np.asarray(starts))).tolist()


def speed_factor(rec, phase: str) -> float:
    """Reference over measured kernel time in a phase: multiply a CPU time
    by it to get the time at the reference machine speed."""
    return calibrate.REFERENCE_S / statistics.median(rec.series[phase,
                                                               "kernel"])


def install(rec, reference_ids: set) -> None:
    """Wrap each layer's entry points; reference_ids holds id() of the task
    reference modules, filled in by the workload after set-up."""
    def rollout(c, args, r, s):
        c["tokens"] += len(r.response_tokens)
        c["truncated"] += r.truncated

    def response_tokens(c, args, r, s):
        c["tokens"] += len(args[2])

    def file_bytes(c, args, r, s):
        c["bytes"] += os.path.getsize(args[1])

    def tasks(c, args, r, s):
        c["tasks"] += len(r.tasks)

    def stage(c, args, r, s):
        key = ("pass" if r.functional_pass else
               {"lex/parse-fail": "parse_fail", "interface": "interface",
                "functional": "near_miss"}[r.stage_reached])
        c[key] += 1

    def simulate(c, args, r, s):
        c["cycles"] += len(args[1].cycles)
        if id(args[0]) in reference_ids:
            c["reference_s"] += s

    def retained(c, args, r, s):
        rec.stamp("filter", (len(args[0]), len(r)))

    def batch_tokens(c, args, r, s):
        c["tokens"] += args[0].token_total

    def eval_rollouts(c, args, r, s):
        report = r[0] if isinstance(r, tuple) else r
        c["rollouts"] += sum(t.n for t in report.tasks)

    for module, attr, label, on_exit in [
        ("earl.policy", "sample_rollout", "policy.sample_rollout", rollout),
        ("earl.policy", "sequence_logprobs", "policy.sequence_logprobs",
         response_tokens),
        ("earl.policy", "response_distributions",
         "policy.response_distributions", None),
        ("earl.policy", "apply_update", "policy.apply_update", None),
        ("earl.policy", "train_sft", "policy.train_sft", None),
        ("earl.policy", "save_checkpoint", "policy.save_checkpoint",
         file_bytes),
        ("earl.policy", "load_checkpoint", "policy.load_checkpoint", None),
        ("earl.taskgen", "build_corpus", "taskgen.build_corpus", tasks),
        ("earl.taskgen", "save_corpus", "taskgen.save_corpus", file_bytes),
        ("earl.taskgen", "load_corpus", "taskgen.load_corpus", None),
        ("earl.reward", "score", "reward.score", stage),
        ("earl.minirtl.parser", "parse", "minirtl.parse", None),
        ("earl.minirtl.sim", "simulate", "minirtl.simulate", simulate),
        ("earl.minirtl.sim", "is_exhaustive", "minirtl.is_exhaustive", None),
        ("earl.minirtl.lexer", "tokenize", "minirtl.tokenize", None),
        ("earl.rlcore", "train_rl", "rlcore.train_rl", None),
        ("earl.rlcore", "sample_group", "rlcore.sample_group", None),
        ("earl.rlcore", "filter_groups", "rlcore.filter_groups", retained),
        ("earl.rlcore", "prepare_batch", "rlcore.prepare_batch", None),
        ("earl.rlcore", "assemble_gradient", "rlcore.assemble_gradient",
         batch_tokens),
        ("earl.analysis", "eval_suite", "analysis.eval_suite",
         eval_rollouts),
    ]:
        rec.span(module, attr, label, on_exit)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(rec, overhead_ratio: float, guards: dict) -> dict:
    """Every CATALOG metric, from the spans and counts of a traced run."""
    A = rec.arrays()
    timed = rec.under("bench.timed", A)
    whole = timed | rec.under("bench.setup", A)

    def pick(label, mask):
        return rec.is_label(label, A) & mask

    def calls(label, mask=timed):
        return int(pick(label, mask).sum())

    def self_s(label, mask=timed):
        return float(A["self"][pick(label, mask)].sum())

    def incl_s(label, mask=timed):
        return float(A["duration"][pick(label, mask)].sum())

    def count(label, key, phases=("timed",)):
        return sum(rec.counts[p, label][key] for p in phases)

    both = ("setup", "timed")
    m = {}
    label = "policy.sample_rollout"
    n, tokens, busy = calls(label), count(label, "tokens"), self_s(label)
    m.update({f"{label}.calls": n, f"{label}.tokens": tokens,
              f"{label}.self_s": busy,
              f"{label}.tok_per_s": _ratio(tokens, busy),
              f"{label}.mean_len": _ratio(tokens, n),
              f"{label}.truncated_ratio": _ratio(count(label, "truncated"),
                                                 n)})
    label = "policy.sequence_logprobs"
    m.update({f"{label}.calls": calls(label),
              f"{label}.tokens": count(label, "tokens"),
              f"{label}.self_s": self_s(label)})
    label = "policy.response_distributions"
    m.update({f"{label}.calls": calls(label), f"{label}.self_s": self_s(label)})
    m["policy.apply_update.self_s"] = self_s("policy.apply_update")

    steps = [1e3 * s for phase in both
             for s in step_seconds(rec, phase, "sft.step")]
    m["policy.train_sft.self_s"] = self_s("policy.train_sft", whole)
    m["policy.train_sft.step_ms.p50"] = (statistics.median(steps)
                                         if steps else 0.0)
    m["policy.train_sft.step_ms.tail"] = (percentile_tail(steps)[0]
                                          if steps else 0.0)
    m["policy.save_checkpoint.s"] = incl_s("policy.save_checkpoint", whole)
    m["policy.load_checkpoint.s"] = incl_s("policy.load_checkpoint", whole)
    m["policy.checkpoint.bytes"] = count("policy.save_checkpoint", "bytes",
                                         both)

    built = count("taskgen.build_corpus", "tasks", both)
    parses = int((rec.is_label("minirtl.parse", A)
                  & rec.under("taskgen.build_corpus", A) & whole).sum())
    m["taskgen.build_corpus.s"] = incl_s("taskgen.build_corpus", whole)
    m["taskgen.parse_per_task"] = _ratio(parses, built)
    m["taskgen.save_corpus.s"] = incl_s("taskgen.save_corpus", whole)
    m["taskgen.load_corpus.s"] = incl_s("taskgen.load_corpus", whole)
    m["taskgen.corpus.bytes"] = count("taskgen.save_corpus", "bytes", both)

    label = "reward.score"
    n = calls(label)
    m.update({f"{label}.calls": n, f"{label}.self_s": self_s(label),
              f"{label}.us_per_call": 1e6 * _ratio(incl_s(label), n)})
    for stage in ("parse_fail", "interface", "near_miss", "pass"):
        m[f"reward.stage.{stage}"] = count(label, stage)

    label = "minirtl.parse"
    n = calls(label)
    m.update({f"{label}.calls": n, f"{label}.self_s": self_s(label),
              f"{label}.fail_ratio": _ratio(count(label, "errors"), n)})
    label = "minirtl.simulate"
    busy = self_s(label)
    m.update({f"{label}.calls": calls(label),
              f"{label}.cycles": count(label, "cycles"),
              f"{label}.self_s": busy,
              f"{label}.reference_share": _ratio(count(label, "reference_s"),
                                                 busy)})
    label = "minirtl.is_exhaustive"
    m.update({f"{label}.calls": calls(label), f"{label}.self_s": self_s(label)})
    m["minirtl.tokenize.self_s"] = self_s("minirtl.tokenize", whole)

    # filter_groups sees the step's groups so far after each attempt; the
    # last call of a step (the next call starts over with fewer groups) has
    # the step's totals.
    seen = rec.series["timed", "filter"]
    last = [io for io, nxt in zip(seen, seen[1:] + [(0, 0)])
            if nxt[0] <= io[0]]
    m["rlcore.filter_groups.retained_ratio"] = _ratio(
        sum(o for _, o in last), sum(i for i, _ in last))
    m["rlcore.attempts_per_step"] = _ratio(
        len(rec.series["timed", "rl.attempt"]),
        len(rec.series["timed", "rl.step"]))
    m["rlcore.sample_group.self_s"] = self_s("rlcore.sample_group")
    m["rlcore.prepare_batch.self_s"] = self_s("rlcore.prepare_batch")
    label = "rlcore.assemble_gradient"
    m.update({f"{label}.calls": calls(label), f"{label}.self_s": self_s(label),
              f"{label}.us_per_token": 1e6 * _ratio(
                  incl_s(label), count(label, "tokens"))})

    in_rl = rec.under("rlcore.train_rl", A) & timed
    rl_s = incl_s("rlcore.train_rl")
    score_s = incl_s("reward.score", in_rl)
    phases = {"sample": incl_s("rlcore.sample_group", in_rl) - score_s,
              "score": score_s,
              "gradient": incl_s("rlcore.assemble_gradient", in_rl),
              "update": incl_s("policy.apply_update", in_rl)}
    for phase, seconds in phases.items():
        m[f"rlcore.step.share.{phase}"] = _ratio(seconds, rl_s)

    m["analysis.eval_suite.s"] = incl_s("analysis.eval_suite")
    m["analysis.eval_suite.rollouts"] = count("analysis.eval_suite",
                                              "rollouts")
    m["bench.trace_overhead_ratio"] = overhead_ratio
    for g in GUARDS:
        m[g] = guards.get(g, 0.0)
    return {name: float(m[name]) for name, _, _ in CATALOG}


def write_trace(rec, path, provenance_json: str) -> None:
    """Spans as column arrays (label index, parent id, start, duration,
    self time) plus the label table, in one .npz file."""
    np.savez(path, provenance=np.array(provenance_json), **rec.arrays())
