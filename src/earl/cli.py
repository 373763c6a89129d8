"""Command-line entry point: data -> SFT -> RL -> eval and entropy study.

One binary with subcommands so every stage shares the vocab, config schema,
and checkpoint format. `eval` samples the heldout rollouts once, at the RL
sampling settings, and writes both eval.csv and the token-entropy study from
them. All randomness flows from the run seed through the seed-mixing rule;
no wall clock or OS entropy anywhere. Exit codes: 0 ok, 1 usage,
2 validation, 3 runtime. Errors print one line `error:<kind>: ...` to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import analysis as an
from . import policy as pol
from . import reward as rew
from . import rlcore
from . import taskgen as tg
from .errors import ConfigError, DomainError, EarlError
from .minirtl.ast import LexError
from .minirtl.lexer import tokenize
from .minirtl.vocab import DEFAULT_VOCAB

DEFAULT_POLICY_K = 48
# The entropy study `eval` writes: rows per top_tokens.csv table, the
# occurrences a token needs to be ranked, and the heldout tasks (each its
# first rollout) that get a heatmap.
TOP_TOKENS = 100
TOP_TOKENS_MIN_FREQUENCY = 10
HEATMAP_TASKS = 1


def _no_repeats(key: str, entries) -> None:
    """A repeated entry would add a duplicate eval.csv column, or count a
    seed twice in a seed mean, or train an ablation cell twice."""
    if len(set(entries)) < len(entries):
        raise ConfigError(f"{key}: entries must not repeat")


@dataclass
class EvalConfig:
    n: int = 5
    ks: tuple[int, ...] = (1, 5)

    def validate(self) -> None:
        if not self.ks:
            raise ConfigError("eval.ks: must be nonempty")
        if self.n < max(self.ks):
            raise ConfigError("eval.n: must be >= max(eval.ks)")
        if any(k < 1 for k in self.ks):
            raise ConfigError("eval.ks: entries must be >= 1")
        _no_repeats("eval.ks", self.ks)


@dataclass
class AblateConfig:
    rhos: tuple[float, ...] = an.ABLATION_RHOS
    seeds: tuple[int, ...] = (0,)

    def validate(self) -> None:
        if not self.rhos:
            raise ConfigError("ablate.rhos: must be nonempty")
        if not self.seeds:
            raise ConfigError("ablate.seeds: must be nonempty")
        for r in self.rhos:
            if not 0.0 <= r < 1.0:
                raise ConfigError("ablate.rhos: entries must be in [0, 1)")
        _no_repeats("ablate.rhos", self.rhos)
        _no_repeats("ablate.seeds", self.seeds)


@dataclass
class RunConfig:
    """Whole-run configuration; every sub-config validates before any work."""
    seed: int = 0
    out_dir: str = "runs/default"
    policy_k: int = DEFAULT_POLICY_K
    corpus: tg.CorpusConfig = field(default_factory=tg.CorpusConfig)
    sft: pol.SftSchedule = field(default_factory=pol.SftSchedule)
    rl: rlcore.RlConfig = field(default_factory=rlcore.RlConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    ablate: AblateConfig = field(default_factory=AblateConfig)

    def validate(self) -> None:
        if self.policy_k < 1:
            raise ConfigError("policy_k: must be >= 1")
        self.corpus.validate()
        self.sft.validate()
        self.rl.validate()
        self.eval.validate()
        self.ablate.validate()


def _fits(value, hint) -> bool:
    """Whether a JSON value has a field's type: an int field rejects bool
    and float, a float field accepts int, and a tuple field takes a list
    whose entries fit."""
    if typing.get_origin(hint) is tuple:
        entry = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_fits(v, entry) for v in value)
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def _type_name(hint) -> str:
    if typing.get_origin(hint) is tuple:
        return f"a list of {_type_name(typing.get_args(hint)[0])}"
    return getattr(hint, "__name__", str(hint))


def _build_section(cls, data, path: str):
    """A config dataclass from a JSON object, each value checked against its
    field's type; fields that are themselves config dataclasses recurse."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config root'}: must be a JSON object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"{where}: unknown key")
        if where in ("rl.seed", "sft.seed"):
            raise ConfigError(f"{where}: {path} runs under the run seed; set "
                              "the top-level seed or pass --seed")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _build_section(hint, value, where)
        elif not _fits(value, hint):
            raise ConfigError(f"{where}: must be {_type_name(hint)}, not "
                              f"{type(value).__name__} {value!r}")
        elif typing.get_origin(hint) is tuple:
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    cfg = _build_section(RunConfig, data, "")
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _Usage(f"cannot read config file: {e}")
    except ValueError as e:  # not UTF-8
        raise ConfigError(f"config file: cannot decode: {e}")
    try:
        # each JSON object read as its (key, value) pairs, in file order
        data = _objects(json.loads(text, object_pairs_hook=tuple), "")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config JSON: {e}")
    return config_from_dict(data)


def _objects(value, path: str):
    """A JSON value read with object_pairs_hook=tuple, each object of it a
    dict; a key given twice in one object is a ConfigError naming its path,
    where json.loads alone would keep the last value."""
    if isinstance(value, tuple):
        obj = {}
        for key, v in value:
            where = f"{path}.{key}" if path else key
            if key in obj:
                raise ConfigError(f"{where}: repeated key")
            obj[key] = _objects(v, where)
        return obj
    if isinstance(value, list):
        return [_objects(v, path) for v in value]
    return value


class _Usage(Exception):
    pass


# --- artifacts ----------------------------------------------------------------

def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, created if missing: only the commands that
    write call it, so a failed load leaves no directory behind."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stage_input(cfg: RunConfig, *names: str) -> Path:
    """The first of names found in out_dir. If none is, EarlError names the
    last and the stage that writes it: gen-data the corpus, sft a
    checkpoint."""
    out = Path(cfg.out_dir)
    for name in names:
        if (out / name).exists():
            return out / name
    what, stage = (("corpus artifact", "gen-data")
                   if names[-1] == "corpus.json" else ("checkpoint", "sft"))
    raise EarlError(f"missing {what} {out / names[-1]}; run {stage} first")


# --- subcommands --------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, args) -> None:
    corpus = tg.build_corpus(cfg.corpus, cfg.seed)
    path = _out_dir(cfg) / "corpus.json"
    tg.save_corpus(corpus, path)
    print(f"wrote {path} ({len(corpus.tasks)} tasks, "
          f"{len(corpus.train())} train / {len(corpus.heldout())} heldout)")
    print(f"{len(corpus.heldout_in_train())} of {len(corpus.heldout())} "
          "heldout tasks have a train task's prompt")


def cmd_sft(cfg: RunConfig, args) -> None:
    corpus = tg.load_corpus(_stage_input(cfg, "corpus.json"))
    params = pol.init_params(DEFAULT_VOCAB, cfg.policy_k, cfg.seed)
    params, losses = pol.train_sft(
        params, corpus.train(), dataclasses.replace(cfg.sft, seed=cfg.seed))
    path = _out_dir(cfg) / "sft.ckpt"
    pol.save_checkpoint(params, path)
    tail = f"final loss {losses[-1]:.4f}, " if losses else ""
    print(f"wrote {path} ({tail}{len(losses)} steps)")


def cmd_train(cfg: RunConfig, args) -> None:
    corpus = tg.load_corpus(_stage_input(cfg, "corpus.json"))
    params = pol.load_checkpoint(_stage_input(cfg, "sft.ckpt"))
    rl_cfg = dataclasses.replace(cfg.rl, seed=cfg.seed)
    params, metrics = rlcore.train_rl(rl_cfg, params, corpus.train())
    out = _out_dir(cfg)
    pol.save_checkpoint(params, out / "rl.ckpt")
    (out / "metrics.csv").write_text(rlcore.metrics_to_csv(metrics))
    last = metrics[-1] if metrics else None
    tail = (f", final reward {last.mean_reward:.3f}" if last else "")
    print(f"wrote {out / 'rl.ckpt'} and {out / 'metrics.csv'}"
          f" ({len(metrics)} steps{tail})")


def cmd_eval(cfg: RunConfig, args) -> None:
    """eval.csv, then the entropy study, from one sampling of the heldout
    rollouts at the RL temperature and response length."""
    corpus = tg.load_corpus(_stage_input(cfg, "corpus.json"))
    ckpt = _stage_input(cfg, "rl.ckpt", "sft.ckpt")
    params = pol.load_checkpoint(ckpt)
    heldout = corpus.heldout()
    report, rollouts = an.eval_suite(
        params, heldout, n=cfg.eval.n, ks=cfg.eval.ks,
        temperature=cfg.rl.temperature, seed=cfg.seed,
        max_len=cfg.rl.max_response_len, collect_rollouts=True)
    out = _out_dir(cfg)
    (out / "eval.csv").write_text(an.eval_to_csv(report))
    edges = an.default_bin_edges()
    entropies = [h for r in rollouts for h in r.entropies]
    counts = an.entropy_histogram(entropies, edges)
    (out / "entropy_hist.csv").write_text(an.histogram_to_csv(edges, counts))
    (out / "entropy_hist.svg").write_text(an.histogram_to_svg(edges, counts))
    stats = an.token_class_stats(rollouts)
    (out / "token_classes.csv").write_text(an.token_classes_to_csv(stats))
    hi, lo = an.top_tokens_by_entropy(rollouts, k=TOP_TOKENS,
                                      min_frequency=TOP_TOKENS_MIN_FREQUENCY)
    (out / "top_tokens.csv").write_text(an.top_tokens_to_csv(hi, lo))
    for i, task in enumerate(heldout[:HEATMAP_TASKS]):
        records = an.heatmap_export(rollouts[i * cfg.eval.n])
        (out / f"heatmap_{task.id}.csv").write_text(
            an.heatmap_to_csv(records))
        (out / f"heatmap_{task.id}.svg").write_text(
            an.heatmap_to_svg(records))
    summary = an.entropy_summary(rollouts)
    k0 = cfg.eval.ks[0]
    print(f"wrote {out / 'eval.csv'} and the entropy study (from {ckpt.name}; "
          f"pass@{k0} {report.aggregate_pass(k0):.3f}; "
          f"{summary['tokens']} tokens, median {summary['median']:.3f}, "
          f"mean {summary['mean']:.3f})")
    seen = corpus.heldout_in_train()
    inside = [t for t in report.tasks if t.task_id in seen]
    outside = [t for t in report.tasks if t.task_id not in seen]
    print(f"heldout pass@1: {_pass1(inside)} with a train task's prompt, "
          f"{_pass1(outside)} without")


def _pass1(tasks) -> str:
    """'<pass@1> over <n> tasks' for a list of TaskEvals."""
    if not tasks:
        return "n/a over 0 tasks"
    return (f"{sum(t.pass_at(1) for t in tasks) / len(tasks):.3f} over "
            f"{len(tasks)} tasks")


def cmd_score(cfg: RunConfig, args) -> None:
    if not args.task_id or not args.candidate:
        raise _Usage("score requires --task-id and --candidate")
    corpus = tg.load_corpus(_stage_input(cfg, "corpus.json"))
    task = next((t for t in corpus.tasks if t.id == args.task_id), None)
    if task is None:
        raise ConfigError(f"task-id: no task named {args.task_id!r}")
    try:
        text = Path(args.candidate).read_text()
    except OSError as e:
        raise _Usage(f"cannot read candidate file: {e}")
    except ValueError as e:  # not UTF-8
        raise ConfigError(f"candidate file: cannot decode: {e}")
    try:
        tokens = tokenize(text)
    except LexError:
        tokens = []  # scores as parse-fail through the normal cascade
    bd = rew.score(tokens, task, truncated=not tokens)
    print(json.dumps(dataclasses.asdict(bd), sort_keys=True))


def cmd_ablate(cfg: RunConfig, args) -> None:
    corpus = tg.load_corpus(_stage_input(cfg, "corpus.json"))
    params = pol.load_checkpoint(_stage_input(cfg, "sft.ckpt"))
    rows = an.ablation_grid(cfg.rl, params, corpus.train(), corpus.heldout(),
                            rhos=cfg.ablate.rhos, seeds=cfg.ablate.seeds,
                            n=cfg.eval.n)
    path = _out_dir(cfg) / "ablation.csv"
    path.write_text(an.ablation_to_csv(rows))
    failed = [r for r in rows if r.failed]
    print(f"wrote {path} ({len(rows)} rows, {len(failed)} failed)")
    for r in failed:
        print(f"  rho {r.rho!r} failed: {r.error}")


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "sft": cmd_sft,
    "train": cmd_train,
    "eval": cmd_eval,
    "score": cmd_score,
    "ablate": cmd_ablate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="earl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a RunConfig JSON file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="override the output directory")
        if name == "score":
            p.add_argument("--task-id", help="task to score against")
            p.add_argument("--candidate",
                           help="file holding candidate MiniRTL source text")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.config is None:
            cfg.validate()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        _COMMANDS[args.command](cfg, args)
        return 0
    except _Usage as e:
        print(f"error:usage: {e}", file=sys.stderr)
        return 1
    except (ConfigError, DomainError) as e:
        print(f"error:validation: {e}", file=sys.stderr)
        return 2
    except (EarlError, OSError) as e:
        print(f"error:runtime: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
