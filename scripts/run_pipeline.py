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
before it). At the end it prints one `<sha256>  <bytes>  <name>` line per
artifact the run wrote (a file of the output directory that is new or
changed), sorted by name, so two runs' artifacts compare with one `diff`.
"""

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

from earl.cli import load_config, main as cli_main

STAGES = ("gen-data", "sft", "train", "eval")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default="configs/default.json")
    ap.add_argument("--out")
    ap.add_argument("--seed")
    args = ap.parse_args(argv)
    extra = []
    if args.out:
        extra += ["--out", args.out]
    if args.seed is not None:
        extra += ["--seed", args.seed]
    try:
        out = Path(args.out or load_config(args.config).out_dir)
    except Exception:  # the first stage prints why the config does not load
        out = None

    def listing():
        return {f: f.stat() for f in out.rglob("*") if f.is_file()} \
            if out and out.is_dir() else {}

    before = listing()
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
    for f, st in sorted(listing().items()):
        if before.get(f) != st:
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            print(f"{digest}  {st.st_size:>9}  {f.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
