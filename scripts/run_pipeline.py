#!/usr/bin/env python3
"""Run the experiment pipeline: data -> SFT -> RL -> eval and entropy study.

Usage: python3 scripts/run_pipeline.py [--config configs/default.json]
                                       [--out runs/exp] [--seed N]

The stages are `earl gen-data`, `sft`, `train` and `eval` (eval.csv and the
entropy study from one sampling of the heldout rollouts); the ablation is
`earl ablate` alone. Each stage prints its wall time, the CPU seconds the
process spent in it (`time.process_time()`, the clock the benchmark times
with) and the process's peak resident set size so far (all stages run in
this one process, so a stage's peak is the largest of it and the stages
before it).
"""

import argparse
import resource
import sys
import time

from earl.cli import main as cli_main

STAGES = ("gen-data", "sft", "train", "eval")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/default.json")
    ap.add_argument("--out")
    ap.add_argument("--seed")
    args = ap.parse_args()
    extra = []
    if args.out:
        extra += ["--out", args.out]
    if args.seed is not None:
        extra += ["--seed", args.seed]
    for stage in STAGES:
        t0, cpu0 = time.time(), time.process_time()
        code = cli_main([stage, "--config", args.config] + extra)
        cpu = time.process_time() - cpu0
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"[{stage}] exit {code} in {time.time() - t0:.1f}s "
              f"({cpu:.1f} CPU s), peak RSS {peak_mb:.1f} MB")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
