"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload rl-train --seeds 1-10 [--seconds 20]
        [--trace 0|1]

Each seed is one `bench/run.py` process, run one after another. For each
metric it prints the median of the per-run values and the distance between
their first and third quartiles as a share of the median, the figure the
end-to-end bounds in BENCHMARK.json are checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", args.trace],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:12.6g}  iqr/median {share:.4f}  "
              f"min {min(vs):.6g}  max {max(vs):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
