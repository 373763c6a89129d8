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


def test_raw_op_times_are_read_paired_and_summarized_without_a_claim():
    """bench/run.py prints raw.op_ms.p50 and raw.op_ms.tail on every
    workload: each A/B reads them, prints them in every pair and
    summarizes them, as reported metrics without a claim rule or bound."""
    metrics = {name: {"value": 1.0, "unit": "s"} for name in ab.END_TO_END}

    def stdout(p50, tail):
        return "\n".join([
            f"metric raw.op_ms.p50 = {p50} ms (n=3104)",
            f"metric raw.op_ms.tail = {tail} ms (n=3104)",
            "metric raw.build_s = 9 s (n=5)",
            "digest d0",
            json.dumps({"correct": True, "failed": 0, "metrics": metrics})])

    parent = ab.parse_run(stdout(0.040, 0.100))
    change = ab.parse_run(stdout(0.036, 0.098))
    assert parent["values"]["raw.op_ms.p50"] == 0.040
    assert parent["values"]["raw.op_ms.tail"] == 0.100
    assert "raw.build_s" not in parent["values"]
    line = ab.pair_line(1, parent, change)
    assert "raw.op_ms.p50=0.04->0.036" in line
    assert "raw.op_ms.tail=0.1->0.098" in line
    summary = ab.summarize([(s, parent, change) for s in range(1, 5)],
                           {"op_ms.p50": (0.24, "lower")})
    for name in ("raw.op_ms.p50", "raw.op_ms.tail"):
        m = summary["metrics"][name]
        assert m["change_lower"] == 4 and m["pairs"] == 4
        assert "claim_met" not in m and "bound" not in m
    text = ab.report(summary)
    assert "raw.op_ms.p50: parent 0.04 (0.04-0.04) -> change 0.036" in text
    assert "raw.op_ms.tail: parent 0.1 (0.1-0.1) -> change 0.098" in text


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


def _p50_pairs(parent, change):
    return [(s, _run(1.0, p), _run(1.0, c))
            for s, (p, c) in enumerate(zip(parent, change), 1)]


def test_claim_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 9.9]
    # lower in 9 of 10 pairs, and the median 1.0 lower: the parent's
    # quartiles span 0.3
    met = [9.0] * 9 + [10.5]
    # lower in 10 of 10 pairs, but the median only 0.1 lower
    narrow = [p - 0.1 for p in parent]
    # 1.0 lower in the median, but lower in only 8 of 10 pairs
    eight = [9.0] * 8 + [10.5, 10.5]
    for change, lower, ok in ((met, 9, True), (narrow, 10, False),
                              (eight, 8, False)):
        summary = ab.summarize(_p50_pairs(parent, change))
        p50 = summary["metrics"]["op_ms.p50"]
        assert p50["change_lower"] == lower and p50["claim_met"] is ok
        line = next(line for line in ab.report(summary).splitlines()
                    if line.startswith("op_ms.p50:"))
        assert ("claim rule MET" in line) is ok
        assert ("claim rule not met" in line) is not ok
    # a tie counts for neither side, and so does not count as lower
    tied = ab.summarize(_p50_pairs(parent, met[:8] + [10.1, 10.5]))
    assert tied["metrics"]["op_ms.p50"]["change_lower"] == 8
    assert not tied["metrics"]["op_ms.p50"]["claim_met"]
    # 18 of 20 pairs is 9 of every 10
    twenty = ab.summarize(_p50_pairs(parent * 2, met * 2))
    assert twenty["metrics"]["op_ms.p50"]["claim_met"]
    # only end-to-end metrics carry the rule
    assert "claim_met" not in tied["metrics"]["raw.setup_s"]
    assert "claim rule" not in next(
        line for line in ab.report(tied).splitlines()
        if line.startswith("raw.setup_s:"))


def test_parse_seeds():
    assert ab.parse_seeds("1-4,7") == [1, 2, 3, 4, 7]
    assert ab.parse_seeds("3") == [3]
    assert ab.parse_seeds("7,1-2") == [7, 1, 2]


@pytest.mark.parametrize("bad", ["3-1", "", "x", "1,x", "1-", "-1", "1,,2",
                                 "1.5", "1-3,2", "4,4"])
def test_a_seed_list_that_runs_nothing_or_repeats_is_a_usage_error(
        bad, capsys):
    # empty, descending, non-integer or repeated: no pair may be skipped
    # or run twice, so the A/B stops before any run (the checkouts here do
    # not exist)
    with pytest.raises(ab.argparse.ArgumentTypeError):
        ab.parse_seeds(bad)
    with pytest.raises(SystemExit) as e:
        ab.main(["p", "c", "--workload", "score", "--seeds", bad])
    assert e.value.code == 2
    assert "--seeds" in capsys.readouterr().err


BOUNDS = {"setup_s": (0.25, "lower"), "op_ms.p50": (0.24, "lower"),
          "peak_rss_mb": (0.10, "lower")}


def _rss_run(setup_s, p50, rss):
    run = _run(setup_s, p50)
    run["values"]["peak_rss_mb"] = rss
    return run


def test_summary_holds_each_metric_to_its_bound(tmp_path):
    spec = {"end_to_end": [{"name": n, "unit": "s", "better": b, "bound": x}
                           for n, (x, b) in BOUNDS.items()],
            "per_layer": [{"name": "x.calls", "unit": "count",
                           "better": "lower"}]}
    text = json.dumps(spec)
    (tmp_path / "BENCHMARK.json").write_text(text)
    bounds = ab.load_bounds(str(tmp_path))
    assert bounds == BOUNDS
    assert (tmp_path / "BENCHMARK.json").read_text() == text
    # setup_s: 30% worse, beyond its 25%; op_ms.p50: 10% worse but the
    # parent's quartiles span more than 24% of its median; peak_rss_mb: 5%
    # worse, within its 10%
    pairs = [(s, _rss_run(1.0, 10.0 + (-4.0, 4.0)[s % 2], 100.0),
              _rss_run(1.3, 11.0, 105.0)) for s in range(1, 9)]
    summary = ab.summarize(pairs, bounds)
    setup, p50, rss = (summary["metrics"][n]
                       for n in ("setup_s", "op_ms.p50", "peak_rss_mb"))
    assert setup["worse"] == pytest.approx(0.3)
    assert setup["worse_beyond_bound"] and not setup["unresolved"]
    assert p50["worse"] == pytest.approx(0.1)
    assert p50["unresolved"] and not p50["worse_beyond_bound"]
    assert rss["worse"] == pytest.approx(0.05)
    assert not rss["worse_beyond_bound"] and not rss["unresolved"]
    assert "bound" not in summary["metrics"]["raw.setup_s"]
    assert ab.failed(summary)
    lines = {line.split(":")[0]: line for line in
             ab.report(summary).splitlines()}
    assert "WORSE BEYOND BOUND: change +30.0% (bound +25%" in lines["setup_s"]
    assert "unresolved" not in lines["setup_s"]
    assert "unresolved, parent spread wider" in lines["op_ms.p50"]
    assert "WORSE" not in lines["op_ms.p50"]
    assert "WORSE" not in lines["peak_rss_mb"]
    assert "change +5.0% (bound +10%" in lines["peak_rss_mb"]
    assert "unresolved" not in lines["peak_rss_mb"]
    assert "bound" not in lines["raw.setup_s"]
    # a metric better when higher is worse when it falls
    summary = ab.summarize(pairs, {"setup_s": (0.25, "higher")})
    assert summary["metrics"]["setup_s"]["worse"] == pytest.approx(-0.3)
    assert not ab.failed(summary)
    assert "change +30.0% (bound -25%" in ab.report(summary)
    # an improvement reads as a signed change, not as a negative worsening
    summary = ab.summarize([(s, c, p) for s, p, c in pairs], bounds)
    line = ab.report(summary).splitlines()[0]
    assert line.startswith("setup_s") and "change -23.1% (bound +25%" in line
    assert "worse" not in line.lower()


_FAKE_RUN = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 2:
    sys.stderr.write("warming up\\nTraceback (most recent call last):\\n"
                     "RuntimeError: boom\\n")
    sys.exit(3)
print("digest d0")
metrics = {n: {"value": 1.0, "unit": "s"}
           for n in ("setup_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb")}
print(json.dumps({"correct": True, "failed": 0, "metrics": metrics}))
'''


def _checkout(root, run_py):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return str(root)


def test_a_failed_run_stops_the_ab_with_its_stderr_and_the_summary(
        tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _FAKE_RUN)
    change = _checkout(tmp_path / "change", _FAKE_RUN)
    code = ab.main([parent, change, "--workload", "sft", "--seeds", "1-3",
                    "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 2
    # seed 2 runs the change first
    assert "RUN FAILED: change at seed 2 exited non-zero (exit 3)" in out
    assert "RuntimeError: boom" in out and "warming up" in out
    assert "seed 1: setup_s=1->1" in out
    assert "summary of the 1 pairs run:" in out
    assert "setup_s: parent 1 (1-1) -> change 1 (1-1)" in out
    assert "seed 3" not in out


def test_a_run_without_a_json_result_stops_the_ab(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _FAKE_RUN)
    change = _checkout(tmp_path / "change",
                       'import sys\nprint("digest d0\\nnot json")\n'
                       'sys.stderr.write("half a report")\n')
    code = ab.main([parent, change, "--workload", "score", "--seeds", "1",
                    "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert ("RUN FAILED: change at seed 1 printed no JSON result last "
            "(exit 0)") in out
    assert "half a report" in out and "summary" not in out


_WORKLOAD_RUN = '''import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
# the change: another digest on sft, a set-up twice as long on rl-train
change = CHANGE
print("digest " + ("d1" if change and workload == "sft" else "d0"))
setup = 2.0 if change and workload == "rl-train" else 1.0
metrics = {n: {"value": setup if n == "setup_s" else 1.0, "unit": "s"}
           for n in ("setup_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb")}
print(json.dumps({"correct": True, "failed": 0, "metrics": metrics}))
'''


def _sections(out):
    """workload -> the lines printed under its 'workload W:' line."""
    sections, name = {}, None
    for line in out.splitlines():
        if line.startswith("workload "):
            name = line.split()[1].rstrip(":")
            sections[name] = []
        else:
            sections[name].append(line)
    return {name: "\n".join(lines) for name, lines in sections.items()}


def test_several_workloads_each_get_their_pairs_and_summary(tmp_path,
                                                            capsys):
    parent = _checkout(tmp_path / "parent",
                       _WORKLOAD_RUN.replace("CHANGE", "False"))
    change = _checkout(tmp_path / "change",
                       _WORKLOAD_RUN.replace("CHANGE", "True"))
    code = ab.main([parent, change, "--workload", "score,sft,rl-train",
                    "--seeds", "1-2", "--seconds", "1"])
    sections = _sections(capsys.readouterr().out)
    assert code == 1
    assert list(sections) == ["score", "sft", "rl-train"]
    for name, text in sections.items():
        assert "seed 1: " in text and "seed 2: " in text, name
        assert "setup_s: parent 1 (1-1) -> change" in text, name
    assert "DIGEST" not in sections["score"]
    assert "WORSE" not in sections["score"]
    assert "DIGEST MISMATCH at seed 1" in sections["sft"]
    assert "DIGEST MISMATCH at seed 2" in sections["sft"]
    assert "WORSE" not in sections["sft"]
    assert "DIGEST" not in sections["rl-train"]
    assert "WORSE BEYOND BOUND: change +100.0%" in sections["rl-train"]
    # each failing workload fails the A/B alone; the passing one passes
    for workloads, want in (("score", 0), ("sft", 1), ("rl-train", 1),
                            ("rl-train,score", 1)):
        assert ab.main([parent, change, "--workload", workloads, "--seeds",
                        "1", "--seconds", "1"]) == want, workloads
    capsys.readouterr()


def test_a_failed_run_stops_the_later_workloads(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _FAKE_RUN)
    change = _checkout(tmp_path / "change", _FAKE_RUN)
    code = ab.main([parent, change, "--workload", "sft,score", "--seeds",
                    "1-2", "--seconds", "1"])
    sections = _sections(capsys.readouterr().out)
    assert code == 2
    assert list(sections) == ["sft"]
    assert "RUN FAILED: change at seed 2" in sections["sft"]


def test_workload_list_is_checked():
    assert ab.parse_workloads("score,sft,rl-train") == ["score", "sft",
                                                        "rl-train"]
    assert ab.parse_workloads("sft") == ["sft"]
    for bad in ("score,bogus", "sft,sft", "", "score,"):
        with pytest.raises(ab.argparse.ArgumentTypeError):
            ab.parse_workloads(bad)
    with pytest.raises(SystemExit) as e:
        ab.main(["p", "c", "--workload", "score,bogus"])
    assert e.value.code == 2


def test_a_run_that_times_out_stops_the_ab(tmp_path, capsys, monkeypatch):
    fake = _WORKLOAD_RUN.replace("CHANGE", "False")
    parent = _checkout(tmp_path / "parent", fake)
    change = _checkout(tmp_path / "change", fake)
    real = ab.subprocess.run

    def hangs_at_seed_3(cmd, **kwargs):
        assert kwargs["timeout"] == ab.RUN_TIMEOUT_S
        if cmd[cmd.index("--seed") + 1] == "3":
            # run() kills the child and raises with the bytes captured
            raise ab.subprocess.TimeoutExpired(
                cmd, kwargs["timeout"], output=b"",
                stderr=b"calibrating\nstill running")
        return real(cmd, **kwargs)

    monkeypatch.setattr(ab.subprocess, "run", hangs_at_seed_3)
    code = ab.main([parent, change, "--workload", "score", "--seeds", "1-4",
                    "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert (f"RUN FAILED: parent at seed 3 timed out after "
            f"{ab.RUN_TIMEOUT_S} s (exit -9)") in out
    assert "still running" in out
    assert "seed 1: setup_s=1->1" in out and "seed 2: setup_s=1->1" in out
    assert "summary of the 2 pairs run:" in out
    assert "seed 4" not in out
