"""scripts/score_replay.py at smoke size: it records the score calls of a
short RL run, replays them cold and reports their stage mix."""

import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

import earl.reward as rew
from earl.minirtl import parser, tokenize
from earl.minirtl.vocab import DEFAULT_VOCAB

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "score_replay.py"
_spec = importlib.util.spec_from_file_location("score_replay", _PATH)
sr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sr)

SMOKE_COUNTS = {"combinational-easy": 8, "register-easy": 4}


def test_smoke_replay_reports_the_recorded_calls(capsys):
    score = rew.score
    assert sr.main(["--sft-steps", "20", "--rl-steps", "2", "--passes", "2"],
                   counts=SMOKE_COUNTS) == 0
    assert rew.score is score  # the recorder is taken out again
    out = capsys.readouterr().out
    n = int(re.search(r"recorded (\d+) score calls over 2 RL steps", out)[1])
    mix = dict(re.findall(r"^  (\S+) +(\d+) ", out, re.M))
    assert list(mix) == ["parse-fail", "interface", "near-miss", "pass"]
    assert n > 0 and sum(map(int, mix.values())) == n
    assert re.search(r"header cache in one pass: \d+ hits, \d+ misses", out)
    # equal breakdowns are one object, so one pass returns as many objects
    # as distinct values
    objects, values = map(int, re.search(
        r"^breakdowns in one pass: (\d+) objects, (\d+) distinct values$",
        out, re.M).groups())
    assert 1 <= objects == values <= n
    assert re.search(r"scoring per RL step: [\d.]+ ms", out)
    assert "replayed breakdowns equal the recorded ones: yes" in out


def test_replay_clears_the_header_cache_before_each_pass():
    calls = sr.record(1, 3, 20, SMOKE_COUNTS)
    parser._header.cache_clear()
    for args, kwargs, _ in calls:  # warm the cache with every header
        rew.score(*args, **kwargs)
    seconds, cold, same, first = sr.replay(calls, 3)
    assert len(seconds) == 3 and same
    assert first == [bd for _, _, bd in calls]
    assert sr.distinct(first) == (len(set(first)),) * 2
    assert cold.currsize > 0  # a warm pass would miss fewer headers
    parser._header.cache_clear()
    for args, kwargs, _ in calls:
        rew.score(*args, **kwargs)
    assert parser._header.cache_info()[:2] == cold[:2]


def test_a_pass_collects_garbage_before_its_clock_starts(monkeypatch):
    events = []

    class Header:
        def cache_clear(self):
            events.append("clear")

    def clock():
        events.append("clock")
        return float(len(events))

    def score(*args, **kwargs):
        events.append("score")
        return args

    monkeypatch.setattr(sr.gc, "collect", lambda: events.append("collect"))
    monkeypatch.setattr(sr.time, "process_time", clock)
    seconds, got = sr.timed_pass(score, Header(), [((1,), {}, None)] * 2)
    assert events == ["clear", "collect", "clock", "score", "score", "clock"]
    assert got == [(1,), (1,)] and seconds == 3.0


def test_simulated_calls_are_split_by_whether_the_design_has_registers(
        capsys):
    calls = sr.record(2, 1, 20, SMOKE_COUNTS)
    mix = sr.simulated_mix(calls)
    assert list(mix) == ["one-pass", "registers"]
    assert sum(mix.values()) == sum(bd.stage_reached == rew.STAGE_FUNCTIONAL
                                    for _, _, bd in calls)
    # a reference of each smoke class, scored as a candidate with and
    # without its EOS, is counted by its design
    tasks = {args[1].reference.is_sequential(): args[1]
             for args, _, _ in calls}
    assert set(tasks) == {False, True}
    eos = DEFAULT_VOCAB.id("EOS")
    made = [((ids, task), {}, rew.score(ids, task))
            for task in tasks.values()
            for ids in (tokenize(task.reference_text),
                        tokenize(task.reference_text) + [eos])]
    assert sr.simulated_mix(made) == {"one-pass": 2, "registers": 2}
    assert sr.main(["--sft-steps", "20", "--rl-steps", "2", "--passes", "1"],
                   counts=SMOKE_COUNTS) == 0
    out = capsys.readouterr().out
    n = int(re.search(r"recorded (\d+) score calls", out)[1])
    one, reg = mix["one-pass"], mix["registers"]
    assert (f"calls that simulate: {one} one-pass ({one / n:.1%}), {reg} "
            f"with registers ({reg / n:.1%})") in out


def test_against_replays_two_checkouts_alternately(capsys):
    root = str(_PATH.parents[1])  # this checkout on both sides
    assert sr.main(["--sft-steps", "20", "--rl-steps", "2", "--passes", "3",
                    "--against", root], counts=SMOKE_COUNTS) == 0
    out = capsys.readouterr().out
    got = re.search(r"scoring per RL step, alternating with (.+): this "
                    r"checkout [\d.]+ ms, CHECKOUT [\d.]+ ms \(medians of 3 "
                    r"cold passes each\); CHECKOUT lower in (\d) of 3 passes, "
                    r"median per-pass ratio CHECKOUT / this checkout "
                    r"(\d+\.\d{4})$", out, re.M)
    assert got and got[1] == root and int(got[2]) <= 3 and float(got[3]) > 0
    assert ("both checkouts' breakdowns equal the recorded ones field by "
            "field: yes") in out
    a, b, values = map(int, re.search(
        r"^breakdowns in one pass: this checkout (\d+) objects, CHECKOUT "
        r"(\d+) objects, (\d+) distinct values$", out, re.M).groups())
    assert a == b == values > 0
    # the loaded checkout has its own classes and its own header cache
    score, header = sr.load_checkout(root)
    assert score is not rew.score and header is not parser._header
    calls = sr.record(1, 3, 20, SMOKE_COUNTS)
    mine, theirs, same, first = sr.replay_against(calls, 2,
                                                  (score, header))
    assert len(mine) == len(theirs) == 2 and same
    assert list(map(len, first)) == [len(calls)] * 2
    assert type(first[0][0]) is rew.RewardBreakdown
    assert type(first[1][0]) is not rew.RewardBreakdown
    assert header.cache_info().currsize > 0

    def off(*args, **kwargs):  # one field of every breakdown differs
        return dataclasses.replace(rew.score(*args, **kwargs), reward=-1.0)

    assert not sr.replay_against(calls, 1, (off, header))[2]
    with pytest.raises(SystemExit):  # a directory with no src/earl
        sr.main(["--rl-steps", "1", "--against", str(_PATH.parent)])
