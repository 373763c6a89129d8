"""Token-entropy study, evaluation protocol, and the rho-ablation grid.

Covers the measurement side of the project: entropy histograms over rollout
tokens, per-token-class statistics, ranked high/low-entropy token tables,
per-rollout entropy heatmap export (CSV + SVG), the exact pass@k estimator,
the heldout evaluation suite, and the ablation grid over entropy-gate
quantiles. All aggregations are pure folds over stored rollout entropies;
nothing here recomputes model probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import policy as pol
from . import reward as rew
from . import rlcore
from .errors import DomainError
from .minirtl.vocab import DEFAULT_VOCAB, Vocab
from .seeds import rng_for

TOKEN_CLASSES = ("process-sensitivity", "control-flow", "binding-connection",
                 "module-head", "structural-terminator", "identifier",
                 "literal", "other")

_CLASS_TOKENS = {
    "process-sensitivity": {"always", "posedge", "negedge"},
    "control-flow": {"if", "case", "?", ":"},
    "binding-connection": {"assign", "[", "]"},
    "module-head": {"module"},
    "structural-terminator": {"end", "endmodule", "input", "output"},
}

DEFAULT_BIN_WIDTH = 0.05
DEFAULT_FREQ_FLOOR = 10


@dataclass(frozen=True)
class TokenClassMap:
    """Class label for every vocab token id (total map)."""
    vocab: Vocab
    classes: tuple[str, ...]

    def __post_init__(self):
        assert len(self.classes) == self.vocab.size

    def class_of(self, token_id: int) -> str:
        return self.classes[token_id]


def default_token_classes(vocab: Vocab = DEFAULT_VOCAB) -> TokenClassMap:
    from .minirtl.vocab import DIGITS, IDENTIFIERS, MODULE_NAMES
    identifiers = set(IDENTIFIERS) | set(MODULE_NAMES)
    literals = set(DIGITS)
    out = []
    for tok in vocab.tokens:
        label = "other"
        for cls, members in _CLASS_TOKENS.items():
            if tok in members:
                label = cls
                break
        else:
            if tok in identifiers:
                label = "identifier"
            elif tok in literals:
                label = "literal"
        out.append(label)
    return TokenClassMap(vocab, tuple(out))


# --- histograms ---------------------------------------------------------------

def default_bin_edges(vocab: Vocab = DEFAULT_VOCAB,
                      width: float = DEFAULT_BIN_WIDTH) -> np.ndarray:
    """Uniform-width edges over [0, ln V]; the last edge is exactly ln V."""
    top = math.log(vocab.size)
    edges = list(np.arange(0.0, top, width))
    if top - edges[-1] < width / 2:
        edges.pop()
    edges.append(top)
    return np.asarray(edges)


def entropy_histogram(entropies, edges) -> np.ndarray:
    """Counts per bin; bins are left-closed, the last bin is also
    right-closed, so every in-range entropy lands in exactly one bin."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("bin edges must be strictly increasing, length >= 2")
    h = np.asarray(list(entropies), dtype=float)
    if h.size == 0:
        return np.zeros(edges.size - 1, dtype=np.int64)
    counts, _ = np.histogram(h, bins=edges)
    return counts.astype(np.int64)


# --- per-class and per-token statistics ---------------------------------------

def _iter_token_entropies(rollouts):
    for r in rollouts:
        for tok, h in zip(r.response_tokens, r.entropies):
            yield int(tok), float(h)


def token_class_stats(rollouts, class_map: TokenClassMap) -> dict:
    """Per-class {mean, median, count}; empty classes get count 0 and
    statistics None."""
    rollouts = list(rollouts)
    if not rollouts:
        raise DomainError("token_class_stats requires nonempty rollouts")
    buckets: dict[str, list[float]] = {c: [] for c in TOKEN_CLASSES}
    for tok, h in _iter_token_entropies(rollouts):
        buckets[class_map.class_of(tok)].append(h)
    out = {}
    for cls in TOKEN_CLASSES:
        vals = buckets[cls]
        if vals:
            arr = np.asarray(vals)
            out[cls] = {"mean": float(arr.mean()),
                        "median": float(np.median(arr)),
                        "count": len(vals)}
        else:
            out[cls] = {"mean": None, "median": None, "count": 0}
    return out


def top_tokens_by_entropy(rollouts, k: int = 100,
                          min_frequency: int = DEFAULT_FREQ_FLOOR,
                          vocab: Vocab = DEFAULT_VOCAB
                          ) -> tuple[list, list]:
    """(highest, lowest) tables of (token, mean entropy, frequency).

    Only tokens occurring >= min_frequency times qualify; ties in mean
    entropy break by token id.
    """
    if k < 1 or min_frequency < 1:
        raise DomainError("k and min_frequency must be >= 1")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for tok, h in _iter_token_entropies(rollouts):
        sums[tok] = sums.get(tok, 0.0) + h
        counts[tok] = counts.get(tok, 0) + 1
    rows = [(vocab.token(t), sums[t] / counts[t], counts[t], t)
            for t in sorted(counts) if counts[t] >= min_frequency]
    highest = sorted(rows, key=lambda r: (-r[1], r[3]))[:k]
    lowest = sorted(rows, key=lambda r: (r[1], r[3]))[:k]
    return ([r[:3] for r in highest], [r[:3] for r in lowest])


def entropy_summary(rollouts, threshold: float = 0.15) -> dict:
    h = np.asarray([x for _, x in _iter_token_entropies(rollouts)])
    if h.size == 0:
        raise DomainError("entropy_summary requires at least one token")
    mean, median = float(h.mean()), float(np.median(h))
    return {"mean": mean, "median": median, "tokens": int(h.size),
            "right_skewed": median < mean,
            "fraction_below_threshold": float((h < threshold).mean())}


# --- heatmap ------------------------------------------------------------------

def heatmap_export(rollout, vocab: Vocab = DEFAULT_VOCAB) -> list:
    """Ordered (position, token string, entropy) records, one per response
    token; entropies are the stored sampling-time values, bit for bit."""
    return [(t, vocab.token(tok), float(h))
            for t, (tok, h) in enumerate(zip(rollout.response_tokens,
                                             rollout.entropies))]


def heatmap_to_csv(records) -> str:
    lines = ["position,token,entropy"]
    for pos, tok, h in records:
        lines.append(f"{pos},{_csv_quote(tok)},{h!r}")
    return "\n".join(lines) + "\n"


def _csv_quote(s: str) -> str:
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _heat_color(h: float, top: float) -> str:
    """Linear white -> red over [0, top]."""
    frac = 0.0 if top <= 0 else min(max(h / top, 0.0), 1.0)
    g = int(round(255 * (1.0 - frac)))
    return f"#ff{g:02x}{g:02x}"


def heatmap_to_svg(records, vocab: Vocab = DEFAULT_VOCAB,
                   per_row: int = 12) -> str:
    """Standalone SVG: one colored cell per token, color linear in entropy
    from 0 to ln V."""
    top = math.log(vocab.size)
    cell_w, cell_h = 64, 28
    n = len(records)
    rows = max(1, (n + per_row - 1) // per_row)
    width, height = per_row * cell_w, rows * cell_h
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for pos, tok, h in records:
        x = (pos % per_row) * cell_w
        y = (pos // per_row) * cell_h
        parts.append(f'<rect x="{x}" y="{y}" width="{cell_w}" '
                     f'height="{cell_h}" fill="{_heat_color(h, top)}" '
                     f'stroke="#999"/>')
        label = (tok.replace("&", "&amp;").replace("<", "&lt;")
                 .replace(">", "&gt;"))
        parts.append(f'<text x="{x + 4}" y="{y + 18}" font-size="11" '
                     f'font-family="monospace">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_to_csv(edges, counts) -> str:
    lines = ["bin_left,bin_right,count"]
    for i, c in enumerate(counts):
        lines.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}")
    return "\n".join(lines) + "\n"


def histogram_to_svg(edges, counts) -> str:
    counts = np.asarray(counts)
    peak = int(counts.max()) if counts.size and counts.max() > 0 else 1
    bar_w, height, base = 10, 160, 150
    width = bar_w * len(counts)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for i, c in enumerate(counts):
        h = int(round(140 * int(c) / peak))
        parts.append(f'<rect x="{i * bar_w}" y="{base - h}" '
                     f'width="{bar_w - 1}" height="{h}" fill="#4477aa"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- pass@k and evaluation ----------------------------------------------------

def pass_at_k(n: int, c: int, k: int) -> float:
    """1 - C(n-c, k)/C(n, k), the unbiased estimator over n completions of
    which c passed; C(a, b) = 0 for a < b."""
    if not (isinstance(n, int) and isinstance(c, int) and isinstance(k, int)):
        raise DomainError("pass_at_k takes integers")
    if not (0 <= c <= n and 1 <= k <= n):
        raise DomainError(f"pass_at_k preconditions violated: n={n} c={c} k={k}")
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


@dataclass(frozen=True)
class TaskEval:
    task_id: str
    n: int
    func_passes: int
    syntax_passes: int
    mean_reward: float

    def pass_at(self, k: int) -> float:
        return pass_at_k(self.n, self.func_passes, k)

    def syn_at(self, k: int) -> float:
        return pass_at_k(self.n, self.syntax_passes, k)


@dataclass(frozen=True)
class EvalReport:
    tasks: tuple[TaskEval, ...]
    ks: tuple[int, ...]

    def aggregate_pass(self, k: int) -> float:
        return float(np.mean([t.pass_at(k) for t in self.tasks]))

    def aggregate_syn(self, k: int) -> float:
        return float(np.mean([t.syn_at(k) for t in self.tasks]))

    def aggregate_reward(self) -> float:
        return float(np.mean([t.mean_reward for t in self.tasks]))


# Rollouts eval_suite samples together. Sampling's memory grows with the
# batch (its [n, max_len] outputs and [n, V] temporaries): all 625 rollouts of
# the default heldout eval in one call at k = 48 ran 1.3-1.9 times as many
# rollouts per second in the rl-train benchmark, but raised eval_suite's
# tracemalloc peak from 0.9 to 8.4 MiB.
EVAL_BATCH_ROLLOUTS = 48


def eval_suite(params: pol.PolicyParams, tasks, n: int = 5,
               ks=(1, 5), temperature: float = 1.0, seed: int = 0,
               schedule: rew.RewardSchedule = rew.DEFAULT_SCHEDULE,
               max_len: int = 256, collect_rollouts: bool = False):
    """n sampled completions per task; returns an EvalReport, plus the raw
    rollouts when collect_rollouts is set (for the entropy study)."""
    tasks = list(tasks)
    if not tasks:
        raise DomainError("eval_suite requires a nonempty task list")
    ks = tuple(int(k) for k in ks)
    if not ks or n < max(ks):
        raise DomainError("eval_suite requires n >= max(k list)")
    jobs = [(task, j) for task in tasks for j in range(n)]
    rollouts, breakdowns = [], []
    for start in range(0, len(jobs), EVAL_BATCH_ROLLOUTS):
        chunk = jobs[start:start + EVAL_BATCH_ROLLOUTS]
        batch = pol.sample_rollouts(
            params, [task.prompt_tokens for task, _ in chunk], temperature,
            max_len, [rng_for(seed, "eval", task.id, j) for task, j in chunk])
        breakdowns += [rew.score(r.response_tokens, task, schedule,
                                 params.vocab, truncated=r.truncated)
                       for (task, _), r in zip(chunk, batch)]
        if collect_rollouts:
            rollouts += batch
    rows = []
    for ti, task in enumerate(tasks):
        bds = breakdowns[ti * n:(ti + 1) * n]
        rows.append(TaskEval(task.id, n,
                             sum(bd.functional_pass for bd in bds),
                             sum(bd.syntax_ok for bd in bds),
                             float(np.mean([bd.reward for bd in bds]))))
    report = EvalReport(tuple(rows), ks)
    return (report, rollouts) if collect_rollouts else report


def eval_to_csv(report: EvalReport) -> str:
    cols = ["task_id", "n", "func_passes", "syntax_passes", "mean_reward"]
    cols += [f"pass@{k}" for k in report.ks]
    cols += [f"syn@{k}" for k in report.ks]
    lines = [",".join(cols)]
    for t in report.tasks:
        row = [t.task_id, str(t.n), str(t.func_passes), str(t.syntax_passes),
               repr(t.mean_reward)]
        row += [repr(t.pass_at(k)) for k in report.ks]
        row += [repr(t.syn_at(k)) for k in report.ks]
        lines.append(",".join(row))
    agg = ["aggregate", "", "", "", repr(report.aggregate_reward())]
    agg += [repr(report.aggregate_pass(k)) for k in report.ks]
    agg += [repr(report.aggregate_syn(k)) for k in report.ks]
    lines.append(",".join(agg))
    return "\n".join(lines) + "\n"


def token_classes_to_csv(stats: dict) -> str:
    lines = ["class,count,mean,median"]
    for cls in TOKEN_CLASSES:
        s = stats[cls]
        mean = "" if s["mean"] is None else repr(s["mean"])
        median = "" if s["median"] is None else repr(s["median"])
        lines.append(f"{cls},{s['count']},{mean},{median}")
    return "\n".join(lines) + "\n"


def top_tokens_to_csv(highest, lowest) -> str:
    lines = ["rank,direction,token,mean_entropy,frequency"]
    for i, (tok, h, f) in enumerate(highest):
        lines.append(f"{i + 1},highest,{_csv_quote(tok)},{h!r},{f}")
    for i, (tok, h, f) in enumerate(lowest):
        lines.append(f"{i + 1},lowest,{_csv_quote(tok)},{h!r},{f}")
    return "\n".join(lines) + "\n"


# --- ablation grid ------------------------------------------------------------

ABLATION_RHOS = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)
ABLATION_COLUMNS = ("rho", "pass@1", "pass@5", "syn@5")


@dataclass(frozen=True)
class AblationRow:
    rho: float
    pass1: float
    pass5: float
    syn5: float
    gated_fraction: float
    error: str | None = None  # "<Type>: <message>" of a failed cell

    @property
    def failed(self) -> bool:
        return self.error is not None


def ablation_grid(config: rlcore.RlConfig, params: pol.PolicyParams,
                  train_tasks, eval_tasks, rhos=ABLATION_RHOS, seeds=(0,),
                  n: int = 5,
                  schedule: rew.RewardSchedule = rew.DEFAULT_SCHEDULE
                  ) -> list[AblationRow]:
    """train_rl + eval per (rho, seed); rows are seed means in grid order.

    A failing cell marks its row failed (NaN metrics, the first failure's
    type and message in ``error``) without aborting the remaining rows.
    gated_fraction is the training-time mean over steps and seeds, reported
    for gate calibration checks.
    """
    if not seeds:
        raise DomainError("ablation_grid requires at least one seed")
    rows = []
    for rho in rhos:
        cell = {"pass1": [], "pass5": [], "syn5": [], "gated": []}
        error = None
        for seed in seeds:
            cfg = replace(config, rho=float(rho), seed=int(seed),
                          variant="earl")
            try:
                trained, metrics = rlcore.train_rl(cfg, params.copy(),
                                                   train_tasks, schedule)
                report = eval_suite(trained, eval_tasks, n=n, ks=(1, 5),
                                    temperature=cfg.temperature,
                                    seed=int(seed), schedule=schedule,
                                    max_len=cfg.max_response_len)
            except Exception as e:
                error = error or f"{type(e).__name__}: {e}"
                continue
            cell["pass1"].append(report.aggregate_pass(1))
            cell["pass5"].append(report.aggregate_pass(5))
            cell["syn5"].append(report.aggregate_syn(5))
            cell["gated"].append(float(np.mean(
                [m.gated_fraction for m in metrics])) if metrics else 0.0)
        if error is not None:
            rows.append(AblationRow(float(rho), math.nan, math.nan, math.nan,
                                    math.nan, error))
        else:
            rows.append(AblationRow(
                float(rho), float(np.mean(cell["pass1"])),
                float(np.mean(cell["pass5"])), float(np.mean(cell["syn5"])),
                float(np.mean(cell["gated"]))))
    return rows


def ablation_to_csv(rows) -> str:
    lines = [",".join(ABLATION_COLUMNS)]
    for r in rows:
        lines.append(",".join(repr(v) for v in
                              (r.rho, r.pass1, r.pass5, r.syn5)))
    return "\n".join(lines) + "\n"
