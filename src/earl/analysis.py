"""Token-entropy study, evaluation protocol, and the rho-ablation grid.

Covers the measurement side of the project: entropy histograms over rollout
tokens, per-token-class statistics, ranked high/low-entropy token tables,
per-rollout entropy heatmap export (CSV + SVG), the exact pass@k estimator,
the heldout evaluation suite, and the ablation grid over entropy-gate
quantiles. All aggregations are pure folds over stored rollout entropies;
nothing here recomputes model probabilities. Every CSV artifact, the RL
``metrics.csv`` included, is written by ``csv_text``; the ``*_to_csv``
functions only build its rows.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import policy as pol
from . import rlcore
from .errors import DomainError
from .minirtl.vocab import DEFAULT_VOCAB, DIGITS, IDENTIFIERS, MODULE_NAMES

# The first class listing a token is its class; a token none lists is "other".
_CLASS_TOKENS = {
    "process-sensitivity": {"always", "posedge", "negedge"},
    "control-flow": {"if", "case", "?", ":"},
    "binding-connection": {"assign", "[", "]"},
    "module-head": {"module"},
    "structural-terminator": {"end", "endmodule", "input", "output"},
    "identifier": {*IDENTIFIERS, *MODULE_NAMES},
    "literal": set(DIGITS),
}
# Every class, in the order the token-class CSV lists them.
TOKEN_CLASSES = (*_CLASS_TOKENS, "other")
# The class of each token id of the vocabulary.
TOKEN_CLASS_OF = tuple(
    next((cls for cls, members in _CLASS_TOKENS.items() if tok in members),
         "other")
    for tok in DEFAULT_VOCAB.tokens)

DEFAULT_BIN_WIDTH = 0.05
TOP_EDGE_ULPS = 4  # rounding slack above the last histogram edge
LOW_ENTROPY = 0.15  # nats; entropy_summary's fraction_below_threshold


def csv_text(columns, rows) -> str:
    """The header, then one line per row: floats by repr, None as an empty
    cell, and a cell holding ',', '"' or a line break quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# --- histograms ---------------------------------------------------------------

def default_bin_edges() -> np.ndarray:
    """Uniform-width edges over [0, ln V]; the last edge is exactly ln V."""
    top, width = math.log(DEFAULT_VOCAB.size), DEFAULT_BIN_WIDTH
    edges = list(np.arange(0.0, top, width))
    if top - edges[-1] < width / 2:
        edges.pop()
    edges.append(top)
    return np.asarray(edges)


def entropy_histogram(entropies, edges) -> np.ndarray:
    """Counts per bin; bins are left-closed, the last bin is also
    right-closed, so every in-range entropy lands in exactly one bin.

    The last bin also takes a value at most TOP_EDGE_ULPS ulps above the
    last edge: the sampler's entropy of a uniform row is ln V plus rounding
    (one ulp in float64)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("bin edges must be strictly increasing, length >= 2")
    h = np.asarray(list(entropies), dtype=float)
    if h.size == 0:
        return np.zeros(edges.size - 1, dtype=np.int64)
    top = edges[-1]
    h[(h > top) & (h <= top + TOP_EDGE_ULPS * np.spacing(top))] = top
    counts, _ = np.histogram(h, bins=edges)
    return counts.astype(np.int64)


# --- per-class and per-token statistics ---------------------------------------

def _iter_token_entropies(rollouts):
    for r in rollouts:
        for tok, h in zip(r.response_tokens, r.entropies):
            yield int(tok), float(h)


def token_class_stats(rollouts) -> dict:
    """Per-class {mean, median, count}; empty classes get count 0 and
    statistics None."""
    rollouts = list(rollouts)
    if not rollouts:
        raise DomainError("token_class_stats requires nonempty rollouts")
    buckets: dict[str, list[float]] = {c: [] for c in TOKEN_CLASSES}
    for tok, h in _iter_token_entropies(rollouts):
        buckets[TOKEN_CLASS_OF[tok]].append(h)
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


def top_tokens_by_entropy(rollouts, k: int, min_frequency: int
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
    rows = [(DEFAULT_VOCAB.token(t), sums[t] / counts[t], counts[t], t)
            for t in sorted(counts) if counts[t] >= min_frequency]
    highest = sorted(rows, key=lambda r: (-r[1], r[3]))[:k]
    lowest = sorted(rows, key=lambda r: (r[1], r[3]))[:k]
    return ([r[:3] for r in highest], [r[:3] for r in lowest])


def entropy_summary(rollouts) -> dict:
    h = np.asarray([x for _, x in _iter_token_entropies(rollouts)])
    if h.size == 0:
        raise DomainError("entropy_summary requires at least one token")
    mean, median = float(h.mean()), float(np.median(h))
    return {"mean": mean, "median": median, "tokens": int(h.size),
            "right_skewed": median < mean,
            "fraction_below_threshold": float((h < LOW_ENTROPY).mean())}


# --- heatmap ------------------------------------------------------------------

def heatmap_export(rollout) -> list:
    """Ordered (position, token string, entropy) records, one per response
    token; entropies are the stored sampling-time values, bit for bit."""
    return [(t, DEFAULT_VOCAB.token(tok), float(h))
            for t, (tok, h) in enumerate(zip(rollout.response_tokens,
                                             rollout.entropies))]


def heatmap_to_csv(records) -> str:
    return csv_text(("position", "token", "entropy"), records)


def _heat_color(h: float, top: float) -> str:
    """Linear white -> red over [0, top]."""
    frac = 0.0 if top <= 0 else min(max(h / top, 0.0), 1.0)
    g = int(round(255 * (1.0 - frac)))
    return f"#ff{g:02x}{g:02x}"


def heatmap_to_svg(records) -> str:
    """Standalone SVG: one colored cell per token, 12 to a row, color
    linear in entropy from 0 to ln V."""
    top = math.log(DEFAULT_VOCAB.size)
    cell_w, cell_h, per_row = 64, 28, 12
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
    return csv_text(("bin_left", "bin_right", "count"),
                    ((float(edges[i]), float(edges[i + 1]), int(c))
                     for i, c in enumerate(counts)))


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


# Rollouts eval_suite samples together at most, in whole tasks (one task per
# call when n is larger). Sampling's memory grows with the batch (its
# [n, max_len] outputs and [n, V] temporaries): all 625 rollouts of the
# default heldout eval in one call at k = 48 ran 1.3-1.9 times as many
# rollouts per second in the rl-train benchmark, but raised eval_suite's
# tracemalloc peak from 0.9 to 8.4 MiB.
EVAL_BATCH_ROLLOUTS = 48


def eval_suite(params: pol.PolicyParams, tasks, n: int, ks,
               temperature: float, seed: int, max_len: int, *,
               collect_rollouts: bool = False):
    """n sampled completions per task, completion j of a task drawn from
    rng_for(seed, "eval", task.id, j); returns an EvalReport, plus the raw
    rollouts when collect_rollouts is set (for the entropy study)."""
    tasks = list(tasks)
    if not tasks:
        raise DomainError("eval_suite requires a nonempty task list")
    ks = tuple(int(k) for k in ks)
    if not ks or min(ks) < 1 or n < max(ks):
        raise DomainError("eval_suite requires 1 <= k <= n for every k")
    per_call = max(1, EVAL_BATCH_ROLLOUTS // n)
    rows, rollouts = [], []
    for start in range(0, len(tasks), per_call):
        chunk = tasks[start:start + per_call]
        for g in rlcore.sample_groups(params, chunk, n, temperature, max_len,
                                      [(seed, "eval", t.id) for t in chunk]):
            rows.append(TaskEval(g.task.id, n, g.pass_count,
                                 sum(bd.syntax_ok for bd in g.breakdowns),
                                 float(np.mean(g.rewards))))
            if collect_rollouts:
                rollouts += g.rollouts
    report = EvalReport(tuple(rows), ks)
    return (report, rollouts) if collect_rollouts else report


def eval_to_csv(report: EvalReport) -> str:
    ks = report.ks
    cols = ["task_id", "n", "func_passes", "syntax_passes", "mean_reward"]
    cols += [f"pass@{k}" for k in ks] + [f"syn@{k}" for k in ks]
    rows = [[t.task_id, t.n, t.func_passes, t.syntax_passes, t.mean_reward]
            + [t.pass_at(k) for k in ks] + [t.syn_at(k) for k in ks]
            for t in report.tasks]
    rows.append(["aggregate", None, None, None, report.aggregate_reward()]
                + [report.aggregate_pass(k) for k in ks]
                + [report.aggregate_syn(k) for k in ks])
    return csv_text(cols, rows)


def token_classes_to_csv(stats: dict) -> str:
    return csv_text(("class", "count", "mean", "median"),
                    ((cls, stats[cls]["count"], stats[cls]["mean"],
                      stats[cls]["median"]) for cls in TOKEN_CLASSES))


def top_tokens_to_csv(highest, lowest) -> str:
    return csv_text(("rank", "direction", "token", "mean_entropy", "frequency"),
                    [(i + 1, direction, tok, h, f)
                     for direction, table in (("highest", highest),
                                              ("lowest", lowest))
                     for i, (tok, h, f) in enumerate(table)])


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
                  train_tasks, eval_tasks, rhos, seeds, n: int
                  ) -> list[AblationRow]:
    """train_rl + eval per (rho, seed); rows are seed means in grid order.

    A failing cell marks its row failed (NaN metrics, the first failure's
    type and message in ``error``) without aborting the remaining rows.
    gated_fraction is the training-time mean over steps and seeds, reported
    for gate calibration checks.
    """
    if not seeds:
        raise DomainError("ablation_grid requires at least one seed")
    if n < 5:  # the columns are pass@1, pass@5 and syn@5
        raise DomainError(f"ablation_grid requires n >= 5, got n={n}")
    if not eval_tasks:  # else every cell trains, then fails in eval_suite
        raise DomainError("ablation_grid requires a nonempty eval task list")
    rows = []
    for rho in rhos:
        cell = {"pass1": [], "pass5": [], "syn5": [], "gated": []}
        error = None
        for seed in seeds:
            cfg = replace(config, rho=float(rho), seed=int(seed),
                          variant="earl")
            try:
                trained, metrics = rlcore.train_rl(cfg, params.copy(),
                                                   train_tasks)
                report = eval_suite(trained, eval_tasks, n=n, ks=(1, 5),
                                    temperature=cfg.temperature,
                                    seed=int(seed),
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
    return csv_text(ABLATION_COLUMNS,
                    ((r.rho, r.pass1, r.pass5, r.syn5) for r in rows))
