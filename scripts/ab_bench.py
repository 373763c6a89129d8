#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two source checkouts.

Usage: python3 scripts/ab_bench.py PARENT CHANGE --workload W[,W...]
                                   [--seeds 1-16] [--seconds 15]

For each workload W, in the order given (e.g. ``score,sft,rl-train``), and
each seed S it runs ``python3 bench/run.py --workload W --seed S --seconds
N`` in both checkouts, one after the other: PARENT first on odd seeds and
CHANGE first on even seeds, so a drift of the machine's speed falls on both
sides alike. Each workload's pairs and summary follow a ``workload W:``
line. Each run is read from its standard output (the last JSON line and
the ``digest`` line), not from ``.bench_out/``, which other runs of the
benchmark in the same checkout overwrite.

It prints each pair's end-to-end metrics with the unscaled ``raw.setup_s``,
``raw.op_ms.p50`` and ``raw.op_ms.tail`` and the speed factors, then for
each metric each side's median and quartiles and the number of pairs in
which CHANGE is lower, then every digest that differs
between the two sides and every run that is not correct. For each
end-to-end metric it also says whether CHANGE meets the rule for claiming
a gain: lower in at least 9 of every 10 pairs (ties count for neither),
with a median lower than the parent's by more than the parent's quartile
spread.

Each end-to-end metric is held to its bound in PARENT's ``BENCHMARK.json``,
a share of the parent's median: the line reads ``WORSE BEYOND BOUND`` when
the change's median is worse than the parent's by more than the bound, and
``unresolved`` when the parent's quartile spread, as a share of its median,
is wider than the bound. A run that exits non-zero, runs longer than
RUN_TIMEOUT_S seconds (it is then killed) or whose last line is not a JSON
result stops the A/B: its side, seed, exit code and the last lines of its
standard error are printed, then the summary of that workload's pairs
already run, and no later workload runs. The exit code is 0 only when every
pair of every workload ran, every run was correct, no digest differs and no
metric of any workload is worse beyond its bound. A ``--seeds`` list that
is empty, not integers, holds a descending range or repeats a seed is a
usage error (exit 2) before any run. Standard library only.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("rl-train", "sft", "score")
END_TO_END = ("setup_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb")
# Unscaled times and the speed factors that scale them: a scaled gain is
# less work only where the raw time falls too.
REPORTED = ("raw.setup_s", "raw.op_ms.p50", "raw.op_ms.tail",
            "speed_factor.setup", "speed_factor.timed")
COLUMNS = END_TO_END + REPORTED
STDERR_LINES = 20  # of a failed run, printed
# A run longer than this has hung; bench/spread.py waits as long
RUN_TIMEOUT_S = 900
# A claimed gain: the change lower in at least 9 of every 10 pairs
CLAIM_LOWER, CLAIM_OF = 9, 10


class RunFailed(Exception):
    """A bench run that exited non-zero, timed out or printed no JSON
    result."""

    def __init__(self, code: int, why: str, stderr: str):
        super().__init__(why)
        self.code, self.why = code, why
        self.stderr_tail = stderr.strip().splitlines()[-STDERR_LINES:]


def parse_seeds(text: str) -> list[int]:
    """'1-4,7' -> [1, 2, 3, 4, 7]; each part a seed or an ascending range
    of seeds, and no seed twice, so every listed seed runs one pair."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} in {text!r} is not a seed or a range of seeds "
                "(e.g. 1-4,7)") from None
        if hi < lo:
            raise argparse.ArgumentTypeError(
                f"the range {part!r} in {text!r} descends")
        seeds += range(lo, hi + 1)
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"a seed repeats in {text!r}")
    return seeds


def parse_workloads(text: str) -> list[str]:
    """'score,sft' -> ['score', 'sft']; each a bench workload, once."""
    names = text.split(",")
    for name in names:
        if name not in WORKLOADS:
            raise argparse.ArgumentTypeError(
                f"unknown workload {name!r}; choose from "
                + ", ".join(WORKLOADS))
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"a workload repeats in {text!r}")
    return names


def parse_run(stdout: str) -> dict:
    """One bench/run.py run from its standard output: the end-to-end
    metrics of its last line, the reported metrics of REPORTED, its digest
    and whether it was correct."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    digest = None
    for line in lines[:-1]:
        if line.startswith("digest "):
            digest = line.split()[1]
        elif line.startswith("metric "):
            name, value = line.split()[1], line.split()[3]
            if name in REPORTED:
                values[name] = float(value)
    return {"values": values, "digest": digest,
            "correct": result["correct"] and result["failed"] == 0}


def load_bounds(checkout: str) -> dict:
    """name -> (bound, better) of each end-to-end metric in a checkout's
    BENCHMARK.json; a bound is a share of the parent's median."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[int, dict, dict]],
              bounds: dict | None = None) -> dict:
    """pairs: (seed, parent run, change run), each run as parse_run gives
    it; bounds as load_bounds gives them. For each metric both runs report:
    each side's quartiles, the pairs in which the change is lower, and
    whether the change's median is lower than the parent's by more than the
    parent's quartile spread; for an end-to-end metric, whether both hold
    with the change lower in at least CLAIM_LOWER of every CLAIM_OF pairs
    (the claim rule); for a metric with a bound, also the change of the
    median (signed, and signed as a worsening) and the parent's quartile
    spread, as shares of the parent's median, and whether the worsening
    and the spread exceed the bound. Then the seeds whose digests differ
    and the (side, seed) of each run that is not correct."""
    bounds = bounds or {}
    metrics = {}
    for name in COLUMNS:
        both = [(p["values"][name], c["values"][name]) for _, p, c in pairs
                if name in p["values"] and name in c["values"]]
        if not both:
            continue
        parent = quartiles([p for p, _ in both])
        change = quartiles([c for _, c in both])
        lower = sum(c < p for p, c in both)
        beyond = parent[1] - change[1] > parent[2] - parent[0]
        metrics[name] = {
            "parent": parent, "change": change, "pairs": len(both),
            "change_lower": lower, "lower_beyond_parent_spread": beyond}
        if name in END_TO_END:
            metrics[name]["claim_met"] = (
                CLAIM_OF * lower >= CLAIM_LOWER * len(both) and beyond)
        if name in bounds:
            bound, better = bounds[name]
            sign = 1 if better == "lower" else -1
            relative = (change[1] - parent[1]) / parent[1]
            spread = (parent[2] - parent[0]) / parent[1]
            metrics[name].update(
                bound=bound, better=better, relative=relative,
                worse=sign * relative, spread=spread,
                worse_beyond_bound=sign * relative > bound,
                unresolved=spread > bound)
    return {
        "metrics": metrics,
        "digest_mismatch": [s for s, p, c in pairs
                            if p["digest"] != c["digest"]],
        "not_correct": [(side, s) for s, p, c in pairs
                        for side, run in (("parent", p), ("change", c))
                        if not run["correct"]]}


def run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One bench run, parsed; RunFailed if it exits non-zero, runs longer
    than RUN_TIMEOUT_S or its last line is not a JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # run() killed it; the output it captured is bytes whatever text says
        raise RunFailed(-signal.SIGKILL, f"timed out after {RUN_TIMEOUT_S} s",
                        (e.stderr or b"").decode(errors="replace")) from None
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, "exited non-zero", proc.stderr)
    try:
        return parse_run(proc.stdout)
    except (ValueError, LookupError, TypeError):
        raise RunFailed(proc.returncode, "printed no JSON result last",
                        proc.stderr) from None


def pair_line(seed: int, parent: dict, change: dict) -> str:
    cells = [f"{name}={parent['values'].get(name, float('nan')):.4g}"
             f"->{change['values'].get(name, float('nan')):.4g}"
             for name in COLUMNS]
    return f"seed {seed}: " + " ".join(cells)


def report(summary: dict) -> str:
    out = []
    for name, m in summary["metrics"].items():
        (p1, p2, p3), (c1, c2, c3) = m["parent"], m["change"]
        out.append(f"{name}: parent {p2:.4g} ({p1:.4g}-{p3:.4g}) -> change "
                   f"{c2:.4g} ({c1:.4g}-{c3:.4g}); change lower in "
                   f"{m['change_lower']} of {m['pairs']} pairs; median "
                   f"{'' if m['lower_beyond_parent_spread'] else 'not '}"
                   "lower by more than the parent's quartile spread"
                   + _claim_note(m) + _bound_note(m))
    for seed in summary["digest_mismatch"]:
        out.append(f"DIGEST MISMATCH at seed {seed}")
    for side, seed in summary["not_correct"]:
        out.append(f"NOT CORRECT: {side} at seed {seed}")
    return "\n".join(out)


def _claim_note(m: dict) -> str:
    if "claim_met" not in m:
        return ""
    return (f"; claim rule {'MET' if m['claim_met'] else 'not met'} (lower in"
            f" >= {CLAIM_LOWER} of {CLAIM_OF} pairs and beyond the parent's "
            "spread)")


def _bound_note(m: dict) -> str:
    if "bound" not in m:
        return ""
    # the bound is on a rise of a lower-is-better metric, a fall otherwise
    bound = ("+" if m["better"] == "lower" else "-") + f"{m['bound']:.0%}"
    note = (f"change {m['relative']:+.1%} (bound {bound}, parent spread "
            f"{m['spread']:.1%})")
    if m["worse_beyond_bound"]:
        note = "WORSE BEYOND BOUND: " + note
    if m["unresolved"]:
        note = "unresolved, parent spread wider than the bound: " + note
    return "; " + note


def failed(summary: dict) -> bool:
    return bool(summary["digest_mismatch"] or summary["not_correct"]
                or any(m.get("worse_beyond_bound")
                       for m in summary["metrics"].values()))


def ab_workload(args, workload: str, bounds: dict) -> int:
    """The alternating pairs of one workload, each printed as it ends, then
    their summary; 0 if it passes, 1 if it fails (``failed``) and 2 if a run
    failed, after that run's stderr and the summary of the pairs before it."""
    pairs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        runs = {}
        for side in order:
            try:
                runs[side] = run(getattr(args, side), workload, seed,
                                 args.seconds)
            except RunFailed as e:
                print(f"RUN FAILED: {side} at seed {seed} {e.why} "
                      f"(exit {e.code}); last lines of its stderr:")
                print("\n".join("  " + line for line in e.stderr_tail))
                if pairs:
                    print(f"summary of the {len(pairs)} pairs run:")
                    print(report(summarize(pairs, bounds)))
                return 2
        pairs.append((seed, runs["parent"], runs["change"]))
        print(pair_line(*pairs[-1]), flush=True)
    summary = summarize(pairs, bounds)
    print(report(summary), flush=True)
    return 1 if failed(summary) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, type=parse_workloads,
                    help="one or more of " + ",".join(WORKLOADS)
                    + ", comma-separated")
    ap.add_argument("--seeds", default="1-16", type=parse_seeds,
                    help="seeds and ascending ranges, comma-separated, each "
                    "seed once (default 1-16)")
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)
    bounds = load_bounds(args.parent)
    code = 0
    for workload in args.workload:
        print(f"workload {workload}:", flush=True)
        code = max(code, ab_workload(args, workload, bounds))
        if code == 2:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
