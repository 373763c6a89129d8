"""earl benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload rl-train|sft|score --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports earl from ./src and
builds nothing. One caller drives earl in a closed loop, with BLAS pinned to
one thread. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
wraps each layer's entry points and reports the per-layer metrics, plus the
tracing overhead against an untraced pass of the same work. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it give each metric under its workload-specific name, the
guards, the determinism digest and the provenance. Results and traced spans
are also written under .bench_out/ in the checkout. ``--smoke`` runs a tiny
size of the workload, for the benchmark's own tests.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# (name, unit, better); the same on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("rl-train", "sft", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args) -> dict:
    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "earl").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0")
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "git_rev": rev,
            "src_sha256": src.hexdigest()}


def measure(args, tmp):
    import calibrate
    import layers
    from spans import Recorder
    from workloads import WORKLOADS, Checks, sizes

    rec, checks = Recorder(), Checks()
    size = sizes(args.seconds, args.smoke)
    w = WORKLOADS[args.workload](args.seed, size, rec, tmp, checks)
    references = set()
    layers.install_clocks(rec, ticks=not args.trace)
    if args.trace:
        layers.install(rec, references)
    setup_s = []
    for _ in range(size.setups if w.repeat_setup and not args.trace else 1):
        rec.phase = "setup"
        for _ in range(3):
            rec.stamp("kernel", calibrate.run())
        with rec.region("bench.setup"):
            setup_s.append(w.setup())
        rec.phase = "setup"
        for _ in range(3):
            rec.stamp("kernel", calibrate.run())
    checks.expect(len(w.corpus_digests) == 1,
                  "repeated set-ups built different corpora")
    references |= w.reference_ids()

    if args.trace:
        # Untraced twice, then traced: the first pass pays one-off costs
        # (page faults, allocator growth) that would bias the overhead ratio.
        rec.restore()
        layers.install_clocks(rec)
        for w.phase in ("warmup", "untraced"):
            base = w.timed()
        layers.install(rec, references)
        w.phase = "timed"
        out = w.timed()
        rec.restore()
        checks.expect(out.digest == base.digest, "tracing changed the outputs")
        overhead = (out.run_s * layers.speed_factor(rec, "timed")
                    / (base.run_s * layers.speed_factor(rec, "untraced")))
        values = layers.metrics(rec, overhead, out.guards)
        metrics = {name: (values[name], unit)
                   for name, unit, _ in layers.CATALOG}
        phases = sum(values[f"rlcore.step.share.{p}"]
                     for p in ("sample", "score", "gradient", "update"))
        report = {"rlcore.step.share.all_phases": (phases, "ratio", 1)}
    else:
        out = w.timed()
        rec.restore()
        setup_speed = layers.speed_factor(rec, "setup")
        speed = layers.speed_factor(rec, w.phase)
        raw_tail, pct = layers.percentile_tail(out.op_s)
        raw_p50 = statistics.median(out.op_s)
        if out.op_scaled is None:
            p50, tail = raw_p50 * speed, raw_tail * speed
        else:
            p50 = statistics.median(out.op_scaled)
            tail = layers.percentile_tail(out.op_scaled)[0]
        n = len(out.op_s)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup_s) * setup_speed, "s"),
            "op_ms.p50": (1e3 * p50, "ms"),
            "op_ms.tail": (1e3 * tail, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        report = {
            "setup_s": (*metrics["setup_s"], len(setup_s)),
            "op_ms.p50": (*metrics["op_ms.p50"], n),
            f"op_ms.tail(p{pct:.2f})": (*metrics["op_ms.tail"], n),
            "peak_rss_mb": (rss_mb, "MB", 1),
            "speed_factor.setup": (setup_speed, "ratio",
                                   len(rec.series["setup", "kernel"])),
            "speed_factor.timed": (speed, "ratio",
                                   len(rec.series[w.phase, "kernel"])),
            "raw.setup_s": (statistics.median(setup_s), "s", len(setup_s)),
            "raw.op_ms.p50": (1e3 * raw_p50, "ms", n),
            "raw.op_ms.tail": (1e3 * raw_tail, "ms", n),
            "run_s": (out.run_s, "s", 1),
            "run_wall_s": (w.wall_s, "s", 1),
            "corpus_tasks_per_s": (w.tasks_per_s(), "1/s", len(w.build_s)),
            **out.report,
            **{g: (v, "guard", 1) for g, v in out.guards.items()},
        }
    return rec, checks, metrics, report, out.digest


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "earl" / "rlcore.py").is_file():
        print(f"error: no earl sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        rec, checks, metrics, report, digest = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    prov = provenance(args)
    stem = f"{args.workload}-s{args.seed}"
    if args.trace:
        import layers
        layers.write_trace(rec, OUT / f"trace-{stem}.npz", json.dumps(prov))
    for name, (value, unit, n) in report.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    for failure in checks.failures[:10]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"digest {digest}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "digest": digest, "provenance": prov,
         "report": {k: list(v) for k, v in report.items()}}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
