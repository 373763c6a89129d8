"""scripts/score_replay.py at smoke size: it records the score calls of a
short RL run, replays them cold and reports their stage mix."""

import importlib.util
import re
from pathlib import Path

import earl.reward as rew
from earl.minirtl import parser

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
    assert re.search(r"scoring per RL step: [\d.]+ ms", out)
    assert "replayed breakdowns equal the recorded ones: yes" in out


def test_replay_clears_the_header_cache_before_each_pass():
    calls = sr.record(1, 3, 20, SMOKE_COUNTS)
    parser._header.cache_clear()
    for args, kwargs, _ in calls:  # warm the cache with every header
        rew.score(*args, **kwargs)
    seconds, cold, same = sr.replay(calls, 3)
    assert len(seconds) == 3 and same
    assert cold.currsize > 0  # a warm pass would miss fewer headers
    parser._header.cache_clear()
    for args, kwargs, _ in calls:
        rew.score(*args, **kwargs)
    assert parser._header.cache_info()[:2] == cold[:2]
