"""scripts/ab_bench.py: parsing of a benchmark run's output and the summary
of alternating pairs, on made-up results."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(setup_s, p50, digest="d0", correct=True):
    return {"values": {"setup_s": setup_s, "op_ms.p50": p50,
                       "raw.setup_s": setup_s / 2},
            "digest": digest, "correct": correct}


def test_parse_run_reads_the_last_line_and_the_digest():
    metrics = {name: {"value": v, "unit": "s"} for name, v in
               [("setup_s", 0.4), ("op_ms.p50", 6.5), ("op_ms.tail", 7.0),
                ("peak_rss_mb", 99.0)]}
    stdout = "\n".join([
        "metric setup_s = 0.4 s (n=5)",
        "metric raw.setup_s = 0.25 s (n=5)",
        "metric speed_factor.setup = 1.6 ratio (n=30)",
        "metric sft_contexts_per_s = 1e+05 1/s (n=10)",
        "digest abc123",
        'provenance {"python": "3"}',
        json.dumps({"correct": True, "attempted": 9, "failed": 0,
                    "metrics": metrics})])
    got = ab.parse_run(stdout)
    assert got["digest"] == "abc123" and got["correct"]
    assert got["values"] == {"setup_s": 0.4, "op_ms.p50": 6.5,
                             "op_ms.tail": 7.0, "peak_rss_mb": 99.0,
                             "raw.setup_s": 0.25, "speed_factor.setup": 1.6}


def test_summary_counts_lower_pairs_quartiles_and_problems():
    pairs = [(s, _run(0.50 + 0.01 * s, 6.0), _run(0.40 + 0.01 * s, 6.0 + s))
             for s in range(1, 11)]
    pairs[3] = (4, _run(0.54, 6.0), _run(0.54, 10.0, digest="d1"))
    pairs[6] = (7, _run(0.57, 6.0, correct=False), _run(0.47, 13.0))
    summary = ab.summarize(pairs)
    setup = summary["metrics"]["setup_s"]
    assert setup["pairs"] == 10 and setup["change_lower"] == 9
    assert setup["parent"][1] == pytest.approx(0.555)
    assert setup["change"][1] == pytest.approx(0.465)
    assert setup["lower_beyond_parent_spread"]
    p50 = summary["metrics"]["op_ms.p50"]
    assert p50["change_lower"] == 0 and not p50["lower_beyond_parent_spread"]
    assert "op_ms.tail" not in summary["metrics"]
    assert summary["digest_mismatch"] == [4]
    assert summary["not_correct"] == [("parent", 7)]
    text = ab.report(summary)
    assert "change lower in 9 of 10 pairs; median lower by more" in text
    assert "0 of 10 pairs; median not lower" in text
    assert "DIGEST MISMATCH at seed 4" in text
    assert "NOT CORRECT: parent at seed 7" in text


def test_parse_seeds():
    assert ab.parse_seeds("1-4,7") == [1, 2, 3, 4, 7]
    assert ab.parse_seeds("3") == [3]
