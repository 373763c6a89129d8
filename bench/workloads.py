"""The benchmark workloads: rl-train, sft and score.

Each workload has a set-up that follows the earl CLI (gen-data, then sft or
train) and a timed part. The amount of timed work depends only on
--seconds, never on measured speed, so every commit does the same work at a
given seed, and the guards and the digest are exact.

End-to-end metrics are the same on every workload; ``op`` is the unit a user
waits on: one RL step (rl-train), one SFT step (sft) or one reward.score
call (score).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse  # noqa: F401  (earl imports it lazily; load it before timing)

import earl.analysis as an
import earl.minirtl.lexer as lexer
import earl.policy as pol
import earl.reward as rew
import earl.rlcore as rlcore
import earl.taskgen as tg
from earl.minirtl.sim import CLOCK_NAME
from earl.minirtl.vocab import DEFAULT_VOCAB, EOS, MODULE_NAMES
from earl.seeds import rng_for

import calibrate
from layers import between_ticks, percentile_tail, step_seconds, tick
from spans import now

POLICY_K = 48  # earl.cli.DEFAULT_POLICY_K
SFT = {"peak_lr": 8.0, "warmup_steps": 15, "batch_contexts": 512}
# SFT steps before RL. At 1000, four in five RL steps keep at least one mixed
# group (criterion 7's 2000 would double the set-up).
RL_SFT_STEPS = 1000
# Every workload starts from the default corpus, gen-data at the default
# config's seed, and rl-train also trains its SFT policy at that seed: step
# cost follows the policy's response lengths and pass rate, which differ by
# tens of percent between SFT seeds. --seed drives what comes after: SFT init
# and order (sft), the candidate mutations (score), RL prompts, rollouts and
# eval (rl-train).
DEFAULT_SEED = 0
EVAL = {"n": 5, "ks": (1, 5), "temperature": 1.0, "max_len": 256}

# Timed work per second of --seconds, sized on a 2-core x86-64 machine
# (Python 3.11, numpy 2.4) to take about that long at the parent commit;
# rl-train takes longer, so that its op tail rests on 45 steps.
RL_STEPS_PER_S = 3
SFT_STEPS_PER_S = 50
SFT_REPEATS = 3  # sft trains the same steps this many times
SCORE_ROUNDS_PER_S = 1.2
SETUPS = 5  # set-ups per untraced sft and score run

SMOKE_COUNTS = {"combinational-easy": 8, "register-easy": 4,
                "fsm-lite-easy": 4}
LOGPROB_SAMPLE = 50
LOGPROB_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Sizes:
    counts: dict
    rl_sft_steps: int
    rl_steps: int
    sft_steps: int
    score_rounds: int
    setups: int


def sizes(seconds: int, smoke: bool) -> Sizes:
    if smoke:
        return Sizes(SMOKE_COUNTS, rl_sft_steps=20, rl_steps=2, sft_steps=10,
                     score_rounds=1, setups=2)
    return Sizes(dict(tg.DEFAULT_CORPUS_COUNTS), RL_SFT_STEPS,
                 max(2, round(RL_STEPS_PER_S * seconds)),
                 max(2, round(SFT_STEPS_PER_S * seconds / SFT_REPEATS)),
                 max(1, round(SCORE_ROUNDS_PER_S * seconds)), SETUPS)


class Checks:
    """Correctness checks, counted against the operations they cover."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    """What one timed pass measured and produced."""
    run_s: float
    op_s: list          # seconds per op
    digest: str
    guards: dict
    report: dict        # workload-specific metrics: name -> (value, unit, n)
    # seconds per op at the reference speed of the ticks around it
    # (layers.between_ticks); None scales op_s by the phase's median kernel
    op_scaled: list | None = None


class Workload:
    name = ""
    repeat_setup = True  # untraced runs set up Sizes.setups times

    def __init__(self, seed: int, size: Sizes, rec, tmp, checks: Checks):
        self.seed, self.size, self.rec, self.tmp = seed, size, rec, tmp
        self.checks = checks
        self.phase = "timed"  # "untraced" for the reference pass of a traced run
        self.build_s: list[float] = []
        self.corpus_digests: set[str] = set()

    def corpus(self):
        """gen-data, then the load every later CLI step starts with."""
        t = now()
        corpus = tg.build_corpus(tg.CorpusConfig(dict(self.size.counts)),
                                 DEFAULT_SEED)
        self.build_s.append(now() - t)
        path = self.tmp / "corpus.json"
        tg.save_corpus(corpus, path)
        return tg.load_corpus(path)

    def setup(self) -> float:
        """Build the inputs of the timed part; returns its own duration."""
        raise NotImplementedError

    def timed(self) -> Outcome:
        raise NotImplementedError

    @contextmanager
    def measuring(self):
        """The measured part of a timed pass. Checks and digests run after
        it, in phase "post", which no metric counts."""
        self.rec.phase = self.phase
        start = time.perf_counter()
        with self.rec.region(f"bench.{self.phase}"):
            yield
        self.wall_s = time.perf_counter() - start
        self.rec.phase = "post"

    def series(self, name: str) -> list:
        return self.rec.series[self.phase, name]

    def reference_ids(self) -> set:
        return {id(t.reference) for t in self.loaded.tasks}

    def tasks_per_s(self) -> float:
        return len(self.loaded.tasks) / statistics.median(self.build_s)

    def _note_corpus(self) -> None:
        data = (self.tmp / "corpus.json").read_bytes()
        self.corpus_digests.add(hashlib.sha256(data).hexdigest())


class RlTrain(Workload):
    """earl gen-data + sft + train + eval: RL steps then heldout eval."""
    name = "rl-train"
    repeat_setup = False  # its set-up trains 1000 SFT steps (~20 s)

    def setup(self) -> float:
        t0 = now()
        corpus = self.corpus()
        params = pol.init_params(DEFAULT_VOCAB, POLICY_K, DEFAULT_SEED)
        t_sft = now()
        params, losses = pol.train_sft(
            params, corpus.train(),
            pol.SftSchedule(**SFT, total_steps=self.size.rl_sft_steps,
                            seed=DEFAULT_SEED))
        self.sft_s = now() - t_sft
        ckpt = self.tmp / "sft.ckpt"
        pol.save_checkpoint(params, ckpt)
        self.params = pol.load_checkpoint(ckpt)
        elapsed = now() - t0
        self.loaded, self.sft_losses = corpus, losses
        self.ckpt_bytes = ckpt.read_bytes()
        for i, loss in enumerate(losses):
            self.checks.expect(math.isfinite(loss),
                               f"SFT loss at step {i} is {loss}")
        self._note_corpus()
        return elapsed

    def timed(self) -> Outcome:
        cfg = rlcore.RlConfig(steps=self.size.rl_steps, seed=self.seed)
        params, train = self.params.copy(), self.loaded.train()
        tokens, steps = self.series("tokens"), self.series("rl.step")
        ends = self.series("rl.step.end")
        with self.measuring():
            t0 = now()
            trained, rows = rlcore.train_rl(cfg, params, train)
            t1 = now()
            tick(self.rec)  # closes the last step's stretch
            rl_tokens = sum(tokens)
            report, rollouts = an.eval_suite(
                trained, self.loaded.heldout(), seed=self.seed,
                collect_rollouts=True, **EVAL)
            t2 = now()

        self.checks.expect(len(steps) == cfg.steps,
                           f"step clock saw {len(steps)} of {cfg.steps} steps")
        ends.append(t1)
        op_s = between_ticks(self.rec, self.phase, steps, ends[1:],
                             scaled=False)
        if op_s is None:  # a traced pass runs no ticks
            op_s = step_seconds(self.rec, self.phase, "rl.step")
        op_scaled = between_ticks(self.rec, self.phase, steps, ends[1:])
        for row in rows:
            self.checks.expect(all(math.isfinite(v) for v in row.row()),
                               f"metrics row {row.step} is not finite")
        every = max(1, len(rollouts) // LOGPROB_SAMPLE)
        for r in rollouts[::every]:
            lp = pol.sequence_logprobs(trained, r.prompt_tokens,
                                       r.response_tokens, r.temperature)
            err = float(np.max(np.abs(lp - r.logprobs))) if len(lp) else 0.0
            self.checks.expect(
                len(lp) == len(r.logprobs) and err <= LOGPROB_TOLERANCE,
                f"stored logprobs differ from sequence_logprobs by {err:g}")

        digest = hashlib.sha256(
            self.ckpt_bytes + rlcore.metrics_to_csv(rows).encode()
            + an.eval_to_csv(report).encode()).hexdigest()
        rl_s = sum(op_s)  # leaves out the kernels and ticks between steps
        contexts = self.size.rl_sft_steps * min(
            SFT["batch_contexts"], _sft_contexts(self.loaded.train()))
        guards = {"rl_reward_mean": float(np.mean([r.mean_reward
                                                   for r in rows])),
                  "eval_pass1": report.aggregate_pass(1),
                  "sft_loss_final": self.sft_losses[-1]}
        p50 = statistics.median(op_s)
        tail, pct = percentile_tail(op_s)
        n_eval = len(rollouts)
        return Outcome(t2 - t0, op_s, digest, guards, {
            "rl_step_s.p50": (p50, "s", len(op_s)),
            f"rl_step_s.tail(p{pct:.0f})": (tail, "s", len(op_s)),
            "rl_tokens_per_s": (_ratio(rl_tokens, rl_s), "1/s", len(steps)),
            "eval_rollouts_per_s": (n_eval / (t2 - t1), "1/s", n_eval),
            "sft_contexts_per_s": (contexts / self.sft_s, "1/s",
                                   self.size.rl_sft_steps),
        }, op_scaled)


class Sft(Workload):
    """earl gen-data + sft: teacher-forced training, no sampling or reward."""
    name = "sft"

    def setup(self) -> float:
        t0 = now()
        self.loaded = self.corpus()
        self.params = pol.init_params(DEFAULT_VOCAB, POLICY_K, self.seed)
        elapsed = now() - t0
        self._note_corpus()
        return elapsed

    def timed(self) -> Outcome:
        schedule = pol.SftSchedule(**SFT, total_steps=self.size.sft_steps,
                                   seed=self.seed)
        train = self.loaded.train()
        starts = [self.params.copy() for _ in range(SFT_REPEATS)]
        steps, ends = self.series("sft.step"), self.series("sft.step.end")
        runs = []
        with self.measuring():
            t0 = now()
            for params in starts:
                runs.append(pol.train_sft(params, train, schedule))
            t1 = now()
        ends.append(t1)
        n = schedule.total_steps
        self.checks.expect(len(steps) == SFT_REPEATS * n,
                           f"step clock saw {len(steps)} of "
                           f"{SFT_REPEATS * n} steps")
        for params, losses in runs:
            for i, loss in enumerate(losses):
                self.checks.expect(math.isfinite(loss),
                                   f"SFT loss at step {i} is {loss}")
        params, losses = runs[0]
        for other, _ in runs[1:]:
            self.checks.expect(np.array_equal(other.W, params.W)
                               and np.array_equal(other.b, params.b),
                               "repeated SFT runs trained different weights")
        # A step's time is its median over the repeats, which keeps stalls
        # of the machine out of the tail. The last lr_at call of a repeat
        # ends no step.
        per_run = np.reshape(step_seconds(self.rec, self.phase, "sft.step"),
                             (SFT_REPEATS, n))[:, :-1]
        op_s = np.median(per_run, axis=0).tolist()
        ckpt = self.tmp / "sft.ckpt"
        pol.save_checkpoint(params, ckpt)
        digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        contexts = SFT_REPEATS * n * min(SFT["batch_contexts"],
                                         _sft_contexts(train))
        return Outcome(t1 - t0, op_s, digest,
                       {"sft_loss_final": losses[-1]}, {
                           "sft_contexts_per_s": (contexts / (t1 - t0), "1/s",
                                                  SFT_REPEATS * n),
                       })


class Score(Workload):
    """earl score over a fixed pool: parse, interface and simulation."""
    name = "score"

    def setup(self) -> float:
        t0 = now()
        self.loaded = self.corpus()
        self.pool = candidate_pool(self.loaded, self.seed)
        elapsed = now() - t0
        self._note_corpus()
        return elapsed

    def timed(self) -> Outcome:
        pool, rec, rounds, starts, ends = self.pool, self.rec, [], [], []
        with self.measuring():
            t0 = now()
            for _ in range(self.size.score_rounds):
                breakdowns = []
                tick(rec)
                for _, task, tokens in pool:
                    starts.append(now())
                    breakdowns.append(rew.score(tokens, task))
                    ends.append(now())
                    tick(rec)
                rounds.append(breakdowns)
                rec.stamp("kernel", calibrate.run())
            t1 = now()
        first = rounds[0]
        for r, breakdowns in enumerate(rounds[1:], 1):
            self.checks.expect(breakdowns == first,
                               f"round {r} scored differently")

        s = rew.DEFAULT_SCHEDULE
        simulated = 0
        for (kind, task, _), bd in zip(pool, first):
            simulated += bd.stage_reached == rew.STAGE_FUNCTIONAL
            ok = _in_stage_interval(bd, s)
            if kind == "reference":
                ok = ok and bd.functional_pass and bd.reward == s.pass_reward
            elif kind == "truncated":
                ok = ok and (bd.stage_reached == rew.STAGE_PARSE_FAIL
                             and bd.reward == s.parse_fail)
            self.checks.expect(ok, f"{kind} candidate for {task.id} scored "
                               f"{bd.reward} at stage {bd.stage_reached}")
        self.checks.expect(simulated > len(pool) / 2,
                           f"only {simulated} of {len(pool)} candidates "
                           "reached simulation")
        digest = hashlib.sha256("\n".join(map(repr, first)).encode()
                                ).hexdigest()
        # A candidate's latency is its median over the rounds: single calls
        # stalled by other processes on the machine would otherwise make up
        # the tail of ~10^5 calls.
        lat = np.reshape(np.subtract(ends, starts), (len(rounds), -1))
        op_s = np.median(lat, axis=0).tolist()
        # Each call is scaled by the ticks just before and after it, which
        # ran in the same fast or slow state of the machine.
        scaled = between_ticks(rec, self.phase, starts, ends)
        op_scaled = np.median(np.reshape(scaled, lat.shape), axis=0).tolist()
        calls = len(lat) * len(pool)
        tail, pct = percentile_tail(op_s)
        return Outcome(t1 - t0, op_s, digest, {}, {
            "score_per_s": (calls / float(np.sum(lat)), "1/s", calls),
            "score_us.p50": (1e6 * statistics.median(op_s), "us", len(op_s)),
            f"score_us.tail(p{pct:.2f})": (1e6 * tail, "us", len(op_s)),
            "pool.simulated_share": (simulated / len(pool), "ratio",
                                     len(pool)),
        }, op_scaled)


WORKLOADS = {w.name: w for w in (RlTrain, Sft, Score)}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _sft_contexts(tasks) -> int:
    """Teacher-forced contexts: each reference token plus the EOS."""
    return sum(len(lexer.tokenize(t.reference_text)) + 1 for t in tasks)


def _in_stage_interval(bd, s) -> bool:
    if bd.stage_reached == rew.STAGE_PARSE_FAIL:
        return bd.reward == s.parse_fail
    if bd.stage_reached == rew.STAGE_INTERFACE:
        return (s.interface_base <= bd.reward
                <= s.interface_base + s.interface_span)
    if bd.functional_pass:
        return bd.reward == s.pass_reward
    return (s.functional_base <= bd.reward
            <= s.functional_base + s.functional_span < s.pass_reward)


def candidate_pool(corpus, seed: int) -> list:
    """(kind, task, tokens) candidates, as a sampler would emit them (EOS
    last), derived from every reference of the corpus: the reference itself,
    two operator swaps, one operand swap to another input, one clock-edge
    swap (sequential designs), one module-name swap (an interface
    mismatch) and one truncated prefix (a parse failure)."""
    v = DEFAULT_VOCAB
    ops = [v.id(t) for t in ("&", "|", "^")]
    edge = {v.id("posedge"): v.id("negedge"), v.id("negedge"): v.id("posedge")}
    operand_prev = {v.id(t) for t in ("(", "=", "<=", "&", "|", "^", "~",
                                       "?", ":")}
    names = [v.id(n) for n in MODULE_NAMES]
    eos = v.id(EOS)
    pool = []
    for task in corpus.tasks:
        ref = lexer.tokenize(task.reference_text)
        rng = rng_for(seed, "bench-pool", task.id)
        header_end = ref.index(v.id(";"))
        variants = [("reference", ref)]

        def swap(kind, i, token):
            m = list(ref)
            m[i] = int(token)
            variants.append((kind, m))

        op_sites = [i for i, t in enumerate(ref) if t in ops]
        for i in rng.permutation(op_sites)[:2]:
            swap("operator", i, rng.choice([o for o in ops if o != ref[i]]))
        inputs = [v.id(p.name) for p in task.reference.interface.inputs()
                  if p.name != CLOCK_NAME]
        sites = [i for i, t in enumerate(ref)
                 if i > header_end and t in inputs and ref[i - 1] in operand_prev]
        if sites and len(inputs) > 1:
            i = int(rng.choice(sites))
            swap("operand", i, rng.choice([t for t in inputs if t != ref[i]]))
        for i in [i for i, t in enumerate(ref) if t in edge][:1]:
            swap("edge", i, edge[ref[i]])
        swap("module-name", 1, rng.choice([t for t in names if t != ref[1]]))
        variants.append(("truncated", ref[:int(rng.integers(1, len(ref)))]))
        pool += [(kind, task, tuple(tokens) + (eos,))
                 for kind, tokens in variants]
    return pool
