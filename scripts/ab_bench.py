#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two source checkouts.

Usage: python3 scripts/ab_bench.py PARENT CHANGE --workload W
                                   [--seeds 1-16] [--seconds 15]

For each seed S it runs ``python3 bench/run.py --workload W --seed S
--seconds N`` in both checkouts, one after the other: PARENT first on odd
seeds and CHANGE first on even seeds, so a drift of the machine's speed
falls on both sides alike. Each run is read from its standard output (the
last JSON line and the ``digest`` line), not from ``.bench_out/``, which
other runs of the benchmark in the same checkout overwrite.

It prints each pair's end-to-end metrics with ``raw.setup_s`` and the speed
factors, then for each metric each side's median and quartiles and the
number of pairs in which CHANGE is lower, then every digest that differs
between the two sides and every run that is not correct. Standard library
only.
"""

import argparse
import json
import statistics
import subprocess
import sys

END_TO_END = ("setup_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb")
REPORTED = ("raw.setup_s", "speed_factor.setup", "speed_factor.timed")
COLUMNS = END_TO_END + REPORTED


def parse_seeds(text: str) -> list[int]:
    """'1-4,7' -> [1, 2, 3, 4, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


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


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[int, dict, dict]]) -> dict:
    """pairs: (seed, parent run, change run), each run as parse_run gives
    it. For each metric both runs report: each side's quartiles, the pairs
    in which the change is lower, and whether the change's median is lower
    than the parent's by more than the parent's quartile spread. Then the
    seeds whose digests differ and the (side, seed) of each run that is not
    correct."""
    metrics = {}
    for name in COLUMNS:
        both = [(p["values"][name], c["values"][name]) for _, p, c in pairs
                if name in p["values"] and name in c["values"]]
        if not both:
            continue
        parent = quartiles([p for p, _ in both])
        change = quartiles([c for _, c in both])
        metrics[name] = {
            "parent": parent, "change": change, "pairs": len(both),
            "change_lower": sum(c < p for p, c in both),
            "lower_beyond_parent_spread":
                parent[1] - change[1] > parent[2] - parent[0]}
    return {
        "metrics": metrics,
        "digest_mismatch": [s for s, p, c in pairs
                            if p["digest"] != c["digest"]],
        "not_correct": [(side, s) for s, p, c in pairs
                        for side, run in (("parent", p), ("change", c))
                        if not run["correct"]]}


def run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


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
                   "lower by more than the parent's quartile spread")
    for seed in summary["digest_mismatch"]:
        out.append(f"DIGEST MISMATCH at seed {seed}")
    for side, seed in summary["not_correct"]:
        out.append(f"NOT CORRECT: {side} at seed {seed}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    choices=("rl-train", "sft", "score"))
    ap.add_argument("--seeds", default="1-16")
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)
    pairs = []
    for seed in parse_seeds(args.seeds):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        runs = {side: run(getattr(args, side), args.workload, seed,
                          args.seconds) for side in order}
        pairs.append((seed, runs["parent"], runs["change"]))
        print(pair_line(*pairs[-1]), flush=True)
    summary = summarize(pairs)
    print(report(summary))
    return 1 if summary["digest_mismatch"] or summary["not_correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
