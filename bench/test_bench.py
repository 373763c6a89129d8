"""Tests of the benchmark itself, at the smoke size of each workload.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402

WORKLOADS = ("rl-train", "sft", "score")


def bench(workload, seed=1, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_names_every_metric(workload, trace):
    result, _ = result_of(bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.CATALOG if trace else run.END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == [(name, unit) for name, unit, _ in expected]
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    _, first = result_of(bench(workload, seed=5))
    _, again = result_of(bench(workload, seed=5))
    _, other = result_of(bench(workload, seed=6))
    assert first == again != other


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.CATALOG
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("score", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children(monkeypatch):
    mod = types.ModuleType("earl._bench_probe")

    def inner():
        return sum(range(20000))

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    rec = Recorder()
    rec.span(mod.__name__, "inner", "probe.inner")
    rec.span(mod.__name__, "outer", "probe.outer")
    with rec.region("bench.timed"):
        mod.outer()
    rec.restore()
    assert mod.inner is inner and mod.outer is outer
    a = rec.arrays()
    is_outer, is_inner = (rec.is_label("probe.outer", a),
                          rec.is_label("probe.inner", a))
    assert is_inner.sum() == 2 and rec.under("bench.timed", a).all()
    assert a["self"][is_outer][0] == pytest.approx(
        a["duration"][is_outer][0] - a["duration"][is_inner].sum())


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = layers.percentile_tail(range(100))
    assert (value, pct) == (89, 90.0)
    assert layers.percentile_tail([3, 1, 2]) == (3, 100.0)



def test_between_ticks_scales_each_stretch_by_its_ticks():
    rec, ref = Recorder(), calibrate.TICK_REFERENCE_S
    for start, k in ((0.0, ref), (0.011, ref), (0.022, 3 * ref)):
        rec.series["p", "tick.start"].append(start)
        rec.series["p", "tick.end"].append(start + 0.001)
        rec.series["p", "tick"].append(k)
    # stretches 0.001-0.011 at rate 1 and 0.012-0.022 at rate 1/2
    ops = ([0.001, 0.006], [0.022, 0.017])
    assert layers.between_ticks(rec, "p", *ops) == pytest.approx(
        [0.015, 0.0075])
    assert layers.between_ticks(rec, "p", *ops, scaled=False) == \
        pytest.approx([0.020, 0.010])
    assert layers.between_ticks(rec, "q", *ops) is None
