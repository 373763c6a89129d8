"""CLI: pipeline artifacts, config validation, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import shutil
import struct
import typing
from pathlib import Path

import pytest

from earl import analysis as an
from earl import cli
from earl import policy as pol
from earl import rlcore
from earl import taskgen as tg
from earl.errors import ConfigError


def mini_config(tmp_path, **overrides):
    data = {
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "policy_k": 4,
        "corpus": {"counts": {"combinational-easy": 10},
                   "heldout_fraction": 0.2},
        "sft": {"peak_lr": 2.0, "warmup_steps": 5, "total_steps": 30,
                "batch_contexts": 128},
        "rl": {"steps": 2, "batch_prompts": 2, "group_size": 3,
               "max_resample_attempts": 1, "max_response_len": 30},
        "eval": {"n": 5, "ks": [1, 5]},
        "ablate": {"rhos": [0.0, 0.8], "seeds": [0]},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path, data


def run(args):
    return cli.main([str(a) for a in args])


def test_full_pipeline_artifacts(tmp_path):
    path, data = mini_config(tmp_path)
    out = tmp_path / "run"
    for sub in ("gen-data", "sft", "train", "eval"):
        assert run([sub, "--config", path]) == 0, sub
    # eval writes the entropy study with eval.csv
    for name in ("corpus.json", "sft.ckpt", "rl.ckpt", "metrics.csv",
                 "eval.csv", "entropy_hist.csv", "entropy_hist.svg",
                 "token_classes.csv", "top_tokens.csv"):
        assert (out / name).exists(), name
    assert list(out.glob("heatmap_*.csv")) and list(out.glob("heatmap_*.svg"))
    assert run(["ablate", "--config", path]) == 0
    assert (out / "ablation.csv").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == ("step,mean_reward,pass_rate,clip_rate,gated_fraction,"
                      "mean_kl,mean_entropy,retained_groups")
    assert (out / "ablation.csv").read_text().splitlines()[0] == \
        "rho,pass@1,pass@5,syn@5"


def _study_inputs(out, cfg):
    """(report, rollouts) of one eval_suite call at cfg's eval settings."""
    return an.eval_suite(
        pol.load_checkpoint(out / "sft.ckpt"),
        tg.load_corpus(out / "corpus.json").heldout(), n=cfg.eval.n,
        ks=cfg.eval.ks, temperature=cfg.rl.temperature, seed=cfg.seed,
        schedule=cfg.reward, max_len=cfg.rl.max_response_len,
        collect_rollouts=True)


def _histogram_csv(rollouts):
    edges = an.default_bin_edges()
    return an.histogram_to_csv(edges, an.entropy_histogram(
        [h for r in rollouts for h in r.entropies], edges))


def test_eval_samples_once_at_the_rl_settings(tmp_path):
    # eval.csv and the entropy study come from one eval_suite call at
    # rl.temperature and rl.max_response_len; 200 SFT steps make some
    # heldout completions parse, so eval.csv depends on the temperature
    path, _ = mini_config(tmp_path, sft={"peak_lr": 2.0, "warmup_steps": 5,
                                         "total_steps": 200,
                                         "batch_contexts": 128},
                          rl={"temperature": 0.7, "max_response_len": 30})
    out = tmp_path / "run"
    for sub in ("gen-data", "sft", "eval"):
        assert run([sub, "--config", path]) == 0, sub
    cfg = cli.load_config(path)
    report, rollouts = _study_inputs(out, cfg)
    assert (out / "eval.csv").read_text() == an.eval_to_csv(report)
    at_defaults = dataclasses.replace(cfg, rl=rlcore.RlConfig())
    assert an.eval_to_csv(_study_inputs(out, at_defaults)[0]) != \
        an.eval_to_csv(report)
    assert (out / "entropy_hist.csv").read_text() == _histogram_csv(rollouts)
    heldout = tg.load_corpus(out / "corpus.json").heldout()
    assert (out / f"heatmap_{heldout[0].id}.csv").read_text() == \
        an.heatmap_to_csv(an.heatmap_export(rollouts[0]))
    # below the references' length every completion is cut at max_len
    path, _ = mini_config(tmp_path, rl={"temperature": 0.7,
                                        "max_response_len": 12})
    assert run(["eval", "--config", path]) == 0
    _, rollouts = _study_inputs(out, cli.load_config(path))
    assert all(len(r.response_tokens) == 12 for r in rollouts)
    assert (out / "entropy_hist.csv").read_text() == _histogram_csv(rollouts)


def test_score_reference_is_full_reward(tmp_path):
    path, data = mini_config(tmp_path)
    assert run(["gen-data", "--config", path]) == 0
    corpus = json.loads((tmp_path / "run" / "corpus.json").read_text())
    rec = corpus[0]
    cand = tmp_path / "cand.txt"
    cand.write_text(rec["reference_text"])
    assert run(["score", "--config", path, "--task-id", rec["id"],
                "--candidate", cand]) == 0


def test_score_output_json(tmp_path, capsys):
    path, data = mini_config(tmp_path)
    run(["gen-data", "--config", path])
    corpus = json.loads((tmp_path / "run" / "corpus.json").read_text())
    rec = corpus[0]
    cand = tmp_path / "cand.txt"
    cand.write_text(rec["reference_text"])
    capsys.readouterr()
    run(["score", "--config", path, "--task-id", rec["id"],
         "--candidate", cand])
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["reward"] == 1.0 and payload["functional_pass"] is True


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert run(["gen-data", "--config", tmp_path / "nope.json"]) == 1
    assert capsys.readouterr().err.startswith("error:usage:")


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:usage:")


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    path, _ = mini_config(tmp_path, bogus_section={"x": 1})
    assert run(["gen-data", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and "bogus_section" in err


def test_nested_unknown_key_reports_key_path(tmp_path, capsys):
    # sft.total_steps is the one SFT length; sft.epochs is not a key
    for overrides, key in (({"rl": {"steps": 1, "warp_factor": 9}},
                            "rl.warp_factor"),
                           ({"sft": {"epochs": 3}}, "sft.epochs")):
        path, _ = mini_config(tmp_path, **overrides)
        assert run(["gen-data", "--config", path]) == 2
        assert f"error:validation: {key}: unknown key" in \
            capsys.readouterr().err


def test_removed_eval_and_analyze_settings_are_unknown_keys(tmp_path,
                                                            capsys):
    # eval samples at rl.temperature and rl.max_response_len, and the
    # entropy study's table sizes are constants
    for overrides, key in (({"eval": {"n": 5, "temperature": 1.0}},
                            "eval.temperature"),
                           ({"eval": {"n": 5, "max_len": 30}}, "eval.max_len"),
                           ({"analyze": {"top_k": 100}}, "analyze")):
        path, _ = mini_config(tmp_path, **overrides)
        assert run(["gen-data", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error:validation: {key}: unknown key\n"


def test_analyze_is_not_a_command(tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    assert run(["analyze", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("error:usage:")


def test_rl_gate_is_unknown_key(tmp_path, capsys):
    # the gate is the variant's, and the KL term covers every token
    for rl, key in (({"gate": {"mode": "archer-weight", "rho": 0.8}},
                     "rl.gate"),
                    ({"gated_kl": False}, "rl.gated_kl")):
        path, _ = mini_config(tmp_path, rl=rl)
        assert run(["gen-data", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:validation:") and f"{key}:" in err


def test_archer_variant_is_accepted(tmp_path):
    path, _ = mini_config(tmp_path, rl={"variant": "archer"})
    assert run(["gen-data", "--config", path]) == 0
    assert cli.load_config(path).rl.variant == "archer"


def test_invalid_value_is_validation_error(tmp_path, capsys):
    path, _ = mini_config(tmp_path, rl={"group_size": 1})
    assert run(["gen-data", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error:validation:")


@pytest.mark.parametrize("overrides,key", [
    ({"rl": {"group_size": "6"}}, "rl.group_size"),
    ({"rl": {"group_size": 6.0}}, "rl.group_size"),
    ({"rl": {"beta": True}}, "rl.beta"),
    ({"rl": {"variant": 1}}, "rl.variant"),
    ({"corpus": {"heldout_fraction": "0.2"}}, "corpus.heldout_fraction"),
    ({"corpus": {"counts": {"mux-easy": True}}}, "corpus.counts.mux-easy"),
    ({"eval": {"n": "5"}}, "eval.n"),
    ({"eval": {"ks": [1, "5"]}}, "eval.ks"),
    ({"ablate": {"seeds": [0.5]}}, "ablate.seeds"),
    ({"sft": {"total_steps": 1.5}}, "sft.total_steps"),
    ({"policy_k": "48"}, "policy_k"),
    ({"seed": True}, "seed"),
    ({"sft": {"total_steps": None}}, "sft.total_steps"),
])
def test_wrong_json_type_is_validation_error(tmp_path, capsys, overrides,
                                             key):
    path, _ = mini_config(tmp_path, **overrides)
    assert run(["gen-data", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error:validation: {key}: must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("section,key", [("rl", "eps_low"),
                                         ("rl", "temperature"),
                                         ("reward", "pass_reward"),
                                         ("reward", "parse_fail")])
def test_nan_float_is_validation_error(tmp_path, capsys, section, key):
    # NaN and infinity each: JSON's NaN and Infinity load as floats
    _, data = mini_config(tmp_path)
    for value in (float("nan"), float("inf")):
        path, _ = mini_config(
            tmp_path, **{section: {**data.get(section, {}), key: value}})
        assert run(["gen-data", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:validation: {section}.{key}: must be ")
        assert err.count("\n") == 1


def test_int_is_accepted_for_float_field(tmp_path):
    path, _ = mini_config(tmp_path, rl={"beta": 0, "temperature": 1})
    cfg = cli.load_config(path)
    assert cfg.rl.beta == 0 and cfg.rl.temperature == 1


def test_rl_seed_is_validation_error(tmp_path, capsys):
    path, _ = mini_config(tmp_path, rl={"steps": 1, "seed": 7})
    assert run(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation: rl.seed:") and "--seed" in err


def test_sft_runs_under_the_run_seed(tmp_path, capsys, monkeypatch):
    # the data order follows --seed, as RL's does; sft.seed is not a key
    path, _ = mini_config(tmp_path, sft={"total_steps": 1, "seed": 7})
    assert run(["sft", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation: sft.seed:") and "--seed" in err
    path, _ = mini_config(tmp_path, sft={"total_steps": 1})
    assert run(["gen-data", "--config", path]) == 0
    seeds, train_sft = [], pol.train_sft

    def recording(params, tasks, schedule):
        seeds.append(schedule.seed)
        return train_sft(params, tasks, schedule)

    monkeypatch.setattr(pol, "train_sft", recording)
    assert run(["sft", "--config", path]) == 0
    assert run(["sft", "--config", path, "--seed", "11"]) == 0
    assert seeds == [3, 11]


def test_sft_schedule_is_validated(tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    assert run(["gen-data", "--config", path]) == 0
    capsys.readouterr()
    path, _ = mini_config(tmp_path, sft={"batch_contexts": 0})
    assert run(["sft", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert "sft.batch_contexts" in err


def test_sft_zero_steps_writes_init_params(tmp_path, capsys):
    path, _ = mini_config(tmp_path, sft={"total_steps": 0})
    assert run(["gen-data", "--config", path]) == 0
    capsys.readouterr()
    assert run(["sft", "--config", path]) == 0
    assert "(0 steps)" in capsys.readouterr().out
    params = pol.load_checkpoint(tmp_path / "run" / "sft.ckpt")
    assert params.version == 0


def test_malformed_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["gen-data", "--config", path]) == 2


def test_missing_artifact_is_runtime_error(tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    assert run(["eval", "--config", path]) == 3
    assert capsys.readouterr().err.startswith("error:runtime:")


def test_failed_load_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "nonexist" / "deep"
    path, _ = mini_config(tmp_path, out_dir=str(out))
    for command in ("eval", "train"):
        assert run([command, "--config", path]) == 3
        assert capsys.readouterr().err.startswith("error:runtime: missing ")
        assert not out.parent.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_missing_sft_checkpoint_is_runtime_error(tmp_path, capsys, command):
    path, _ = mini_config(tmp_path)
    assert run(["gen-data", "--config", path]) == 0
    capsys.readouterr()
    assert run([command, "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:runtime: missing checkpoint ")
    assert err.rstrip().endswith("sft.ckpt; run sft first")


def _with_header(header: bytes) -> bytes:
    return b"EARLCKPT1\n" + struct.pack("<I", len(header)) + header


def _edited_header(**changes):
    """A corruption that rewrites header fields and keeps the payload."""
    def corrupt(data: bytes) -> bytes:
        (hlen,) = struct.unpack("<I", data[10:14])
        meta = {**json.loads(data[14:14 + hlen]), **changes}
        return _with_header(json.dumps(meta).encode()) + data[14 + hlen:]
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda data: b"not a checkpoint",
    lambda data: data[:-100],
    lambda data: b"EARLCKPT1\n",
    lambda data: _with_header(b"{bad}"),
    lambda data: _with_header(b'{"schema_version": 1}'),
    _edited_header(V="125"),
    _edited_header(V=-1),
    _edited_header(k=1),
    _edited_header(k=10 ** 12),
], ids=["garbage", "truncated", "magic-only", "header-not-json",
        "header-missing-key", "header-wrong-type", "header-negative-v",
        "payload-too-long", "payload-past-the-file"])
def test_corrupt_checkpoint_is_validation_error(tmp_path, capsys, corrupt):
    path, _ = mini_config(tmp_path)
    for sub in ("gen-data", "sft"):
        assert run([sub, "--config", path]) == 0
    ckpt = tmp_path / "run" / "sft.ckpt"
    ckpt.write_bytes(corrupt(ckpt.read_bytes()))
    capsys.readouterr()
    assert run(["eval", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1


def test_corpus_record_missing_key_is_validation_error(tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    assert run(["gen-data", "--config", path]) == 0
    corpus = tmp_path / "run" / "corpus.json"
    records = json.loads(corpus.read_text())
    del records[3]["kind"]
    corpus.write_text(json.dumps(records))
    capsys.readouterr()
    assert run(["sft", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert "record 3" in err and "'kind'" in err


def test_corpus_record_bad_reference_is_validation_error(tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    assert run(["gen-data", "--config", path]) == 0
    corpus = tmp_path / "run" / "corpus.json"
    good = corpus.read_text()
    # the first does not lex, the second lexes but does not parse, the third
    # is a truncated reference
    truncated = json.loads(good)[3]["reference_text"][:-10]
    for text in ("module endmodule garbage", "endmodule module", truncated):
        records = json.loads(good)
        records[3]["reference_text"] = text
        corpus.write_text(json.dumps(records))
        capsys.readouterr()
        assert run(["sft", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:validation:") and err.count("\n") == 1
        assert "record 3" in err


def _set(index, key, value):
    def corrupt(records):
        records[index][key] = value
        return records
    return corrupt


# references build_vectors cannot cover, since no exhaustive vectors fit the
# coverage rule: 12 input bits of a combinational module, 8 data bits of a
# sequential one
_COMB_12_BITS = ("module and2 ( input [ 3 : 0 ] a , input [ 3 : 0 ] b , "
                 "input [ 3 : 0 ] c , output y ) ; "
                 "assign y = a [ 0 ] ^ b [ 1 ] ^ c [ 2 ] ; endmodule")
_SEQ_8_DATA_BITS = ("module dff ( input clk , input rst , "
                    "input [ 3 : 0 ] a , input [ 3 : 0 ] b , output q ) ; "
                    "reg q ; always @ ( posedge clk ) begin if ( rst ) "
                    "q <= 0 ; else q <= a [ 0 ] ^ b [ 3 ] ; end endmodule")


@pytest.mark.parametrize("corrupt, where", [
    (lambda records: json.dumps(records)[:-9], "JSON"),
    (lambda records: {"records": records}, "top level"),
    (lambda records: records[:3] + [["id", "t3"]] + records[4:], "record 3"),
    (_set(3, "prompt_tokens", "BOS SPEC"), "record 3"),
    (_set(3, "prompt_tokens", [1, "2"]), "record 3"),
    (_set(3, "prompt_tokens", [1, 10_000]), "record 3"),
    (_set(3, "prompt_tokens", [1] + [5] * 48), "record 3"),
    (_set(3, "reference_text", 7), "record 3"),
    (_set(3, "reference_text", _COMB_12_BITS),
     "record 3: combinational module and2 has 12 input bits"),
    (_set(3, "reference_text", _SEQ_8_DATA_BITS),
     "record 3: sequential module dff has 8 data bits"),
    (_set(3, "split", "test"), "record 3"),
    (_set(3, "split", ["train"]), "record 3"),
    (_set(3, "id", 3), "record 3"),
    (_set(3, "id", "x/y"), "record 3"),
    (_set(3, "id", ""), "record 3"),
    (_set(3, "id", ".."), "record 3"),
    (lambda records: records[:3] + [{**records[3], "id": records[1]["id"]}]
     + records[4:], "record 3"),
    (_set(3, "kind", None), "record 3"),
    (_set(3, "difficulty", ["easy"]), "record 3"),
], ids=["truncated-json", "top-level-object", "record-list", "prompt-string",
        "prompt-str-token", "prompt-token-range", "prompt-too-long",
        "reference-int", "reference-comb-12-bits",
        "vectors-not-exhaustive", "split-unknown",
        "split-list", "id-int", "id-slash", "id-empty", "id-dot",
        "id-duplicate", "kind-null", "difficulty-list"])
def test_corpus_wrong_shape_is_validation_error(tmp_path, capsys, corrupt,
                                                where):
    path, _ = mini_config(tmp_path)
    assert run(["gen-data", "--config", path]) == 0
    corpus = tmp_path / "run" / "corpus.json"
    text = corrupt(json.loads(corpus.read_text()))
    corpus.write_text(text if isinstance(text, str) else json.dumps(text))
    capsys.readouterr()
    assert run(["sft", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation:") and err.count("\n") == 1
    assert where in err


def test_ablate_prints_failed_cell_cause(tmp_path, capsys, monkeypatch):
    path, _ = mini_config(tmp_path)
    for sub in ("gen-data", "sft"):
        assert run([sub, "--config", path]) == 0
    train_rl = rlcore.train_rl

    def failing_at_rho_08(cfg, *args, **kwargs):
        if cfg.rho == 0.8:
            raise RuntimeError("boom")
        return train_rl(cfg, *args, **kwargs)

    monkeypatch.setattr(rlcore, "train_rl", failing_at_rho_08)
    capsys.readouterr()
    assert run(["ablate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "(2 rows, 1 failed)" in out
    assert "rho 0.8 failed: RuntimeError: boom" in out
    rows = (tmp_path / "run" / "ablation.csv").read_text().splitlines()
    assert rows[2] == "0.8,nan,nan,nan"


def test_ablate_rejects_eval_n_below_5_before_training(tmp_path, capsys,
                                                       monkeypatch):
    path, _ = mini_config(tmp_path, eval={"n": 3, "ks": [1]})
    for sub in ("gen-data", "sft"):
        assert run([sub, "--config", path]) == 0
    calls = []
    monkeypatch.setattr(rlcore, "train_rl", lambda *a, **kw: calls.append(a))
    capsys.readouterr()
    assert run(["ablate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:validation: ablation_grid requires n >= 5")
    assert err.count("\n") == 1 and calls == []
    assert not (tmp_path / "run" / "ablation.csv").exists()


def test_ablate_rejects_empty_rho_grid(tmp_path, capsys):
    path, _ = mini_config(tmp_path)
    for sub in ("gen-data", "sft"):
        assert run([sub, "--config", path]) == 0
    path, _ = mini_config(tmp_path, ablate={"rhos": [], "seeds": [0]})
    capsys.readouterr()
    assert run(["ablate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error:validation: ablate.rhos: must be nonempty\n"
    assert not (tmp_path / "run" / "ablation.csv").exists()


def test_seed_and_out_overrides(tmp_path):
    path, _ = mini_config(tmp_path)
    alt = tmp_path / "alt"
    assert run(["gen-data", "--config", path, "--out", alt,
                "--seed", "11"]) == 0
    assert (alt / "corpus.json").exists()


def test_pipeline_determinism_byte_identical(tmp_path):
    # 200 SFT steps, as in test_eval_samples_once_at_the_rl_settings: at 30
    # every heldout completion fails to parse, and eval.csv is all zeros
    # whatever the sampler draws
    path, data = mini_config(tmp_path, sft={"peak_lr": 2.0,
                                            "warmup_steps": 5,
                                            "total_steps": 200,
                                            "batch_contexts": 128})
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        for sub in ("gen-data", "sft", "train", "eval"):
            assert run([sub, "--config", path, "--out", out]) == 0
        outs.append(out)
    for artifact in ("corpus.json", "metrics.csv", "eval.csv", "sft.ckpt",
                     "rl.ckpt"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, artifact
    rows = list(csv.DictReader(io.StringIO(
        (outs[0] / "eval.csv").read_text())))
    assert sum(int(r["syntax_passes"]) for r in rows
               if r["task_id"] != "aggregate") > 0


def test_default_config_validates():
    cli.RunConfig().validate()


def test_default_config_file_is_the_dataclass_defaults():
    # `earl <command>` without --config runs what configs/default.json says
    path = Path(__file__).parent.parent / "configs" / "default.json"
    assert cli.load_config(path) == cli.RunConfig()


def _missing_keys(cls, data, path=""):
    """Dotted names of cls's fields that data does not set, nested sections
    walked; the seed fields the run seed sets are left out."""
    hints = typing.get_type_hints(cls)
    missing = []
    for f in dataclasses.fields(cls):
        where = f"{path}{f.name}"
        if where in ("rl.seed", "sft.seed"):
            continue
        if f.name not in data:
            missing.append(where)
        elif dataclasses.is_dataclass(hints[f.name]):
            missing += _missing_keys(hints[f.name], data[f.name], f"{where}.")
    return missing


def test_default_config_file_names_every_setting():
    # a key missing from the file falls back to the dataclass default, so
    # equality with RunConfig() alone cannot show it
    path = Path(__file__).parent.parent / "configs" / "default.json"
    assert _missing_keys(cli.RunConfig, json.loads(path.read_text())) == []


def test_shipped_configs_load():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert paths
    for path in paths:
        cli.load_config(path)  # validates every section


def test_config_round_trip_identical(tmp_path):
    path, data = mini_config(tmp_path)
    cfg = cli.load_config(path)
    # rebuilding from the same dict yields an equal config
    assert cli.config_from_dict(json.loads(path.read_text())) == cfg
