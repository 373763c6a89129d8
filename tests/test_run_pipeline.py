"""scripts/run_pipeline.py on a small config: the stages' exit codes and
the sha256 listing of the artifacts a run writes."""

import hashlib
import importlib.util
import re
from pathlib import Path

from test_cli import mini_config

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"
_spec = importlib.util.spec_from_file_location("run_pipeline", _PATH)
rp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rp)

_LISTING = re.compile(r"([0-9a-f]{64})  +(\d+)  (\S+)")


def test_listing_names_every_artifact_with_its_sha256_and_size(
        tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    assert rp.main(["--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    stages = [line.split()[:3] for line in lines if line.startswith("[")]
    assert stages == [[f"[{stage}]", "exit", "0"] for stage in rp.STAGES]
    # the listing follows the last stage's line
    last = max(i for i, line in enumerate(lines) if line.startswith("["))
    listing = [_LISTING.fullmatch(line) for line in lines[last + 1:]]
    assert all(listing) and listing
    out = tmp_path / "run"
    files = sorted(str(f.relative_to(out)) for f in out.rglob("*")
                   if f.is_file())
    assert [m[3] for m in listing] == files
    for m in listing:
        data = (out / m[3]).read_bytes()
        assert m[1] == hashlib.sha256(data).hexdigest()
        assert int(m[2]) == len(data)


def test_a_failing_stage_returns_its_code_and_prints_no_listing(
        tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    (tmp_path / "run" / "sft.ckpt").mkdir(parents=True)  # sft cannot save
    assert rp.main(["--config", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines if line.startswith("[")] == \
        [["[gen-data]", "exit", "0"], ["[sft]", "exit", "3"]]
    assert lines[-1].startswith("[sft] exit 3 in ")
    assert not any(_LISTING.fullmatch(line) for line in lines)
