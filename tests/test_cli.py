import json
import os
import shutil
from pathlib import Path

import pytest

from langlift import cli
from langlift import pipeline as pl


@pytest.fixture(scope="module")
def tiny_workdir(tmp_path_factory):
    """A fully-populated workdir from the smoke-scale pipeline."""
    workdir = str(tmp_path_factory.mktemp("cliwork"))
    cfg = pl.tiny_config(seed=1)
    pl.run_all(cfg, workdir)
    return workdir


def run_cli(args, workdir):
    return cli.main(["--workdir", workdir] + args)


def test_run_all_writes_report_and_manifest(tiny_workdir):
    report = json.loads(Path(tiny_workdir, "report", "report.json").read_text())
    assert "per_language" in report and "X" in report["per_language"]
    manifest = json.loads(Path(tiny_workdir, "manifest.json").read_text())
    steps = [e["step"] for e in manifest]
    for step in ("gen-world", "learn-vocab", "merge-vocab", "build-data",
                 "train-original", "extend", "train-transfer", "evaluate"):
        assert step in steps
    assert all(e["tool_version"] == pl.TOOL_VERSION for e in manifest)


def test_unknown_flag_exits_nonzero(tiny_workdir, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--workdir", tiny_workdir, "run-all", "--no-such-flag"])
    assert err.value.code != 0


def test_unknown_subcommand_exits_nonzero(tiny_workdir):
    with pytest.raises(SystemExit) as err:
        cli.main(["--workdir", tiny_workdir, "frobnicate"])
    assert err.value.code != 0


def test_missing_config_file_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["--workdir", str(tmp_path), "--config", str(tmp_path / "nope.json"),
                  "gen-world"])
    assert err.value.code != 0


def test_infer_missing_checkpoint(tiny_workdir, tmp_path):
    turns = tmp_path / "turns.jsonl"
    turns.write_text('{"query": "QO BO"}\n')
    with pytest.raises(SystemExit) as err:
        cli.main(["--workdir", tiny_workdir, "infer", "--checkpoint", "never_trained",
                  "--input", str(turns), "--output", str(tmp_path / "out.jsonl")])
    assert err.value.code != 0


def test_infer_writes_parse_records(tiny_workdir, tmp_path):
    spec_doc = json.loads(Path(tiny_workdir, "world", "X", "spec.json").read_text())
    x_word = list(spec_doc["cipher"].values())[0]
    turns = tmp_path / "turns.jsonl"
    turns.write_text(json.dumps({"query": x_word}) + "\n")
    out = tmp_path / "out.jsonl"
    assert run_cli(["infer", "--checkpoint", "final", "--input", str(turns),
                    "--output", str(out), "--raw", "--max-new", "8"], tiny_workdir) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 1
    assert "mode" in rows[0]
    assert "output_ids" in rows[0]  # --raw dumps token streams


def test_infer_budget_defaults_to_eval_max_new(tiny_workdir, tmp_path, monkeypatch):
    budgets = []
    monkeypatch.setattr(cli, "greedy_decode",
                        lambda *a, max_new, **kw: budgets.append(max_new) or [])
    turns = tmp_path / "turns.jsonl"
    turns.write_text('{"query": "QO BO"}\n')
    out = str(tmp_path / "out.jsonl")
    assert run_cli(["infer", "--input", str(turns), "--output", out], tiny_workdir) == 0
    assert run_cli(["infer", "--input", str(turns), "--output", out, "--max-new", "8"],
                   tiny_workdir) == 0
    # the tiny config's eval_max_new, then the flag's
    assert budgets == [24, 8]


INFER_BAD_LINES = {
    "no_query": '{"text": "QO BO"}',
    "query_number": '{"query": 5}',
    "not_object": '[1]',
    "not_json": '{"query": ',
    # reserved brackets would fail only at decode, after the earlier turns ran
    "reserved_bracket": '{"query": "QO ⟨EOS⟩"}',
}


@pytest.mark.parametrize("case", sorted(INFER_BAD_LINES))
def test_infer_bad_input_line_is_one_error_line(case, tiny_workdir, tmp_path, capsys):
    turns = tmp_path / "turns.jsonl"
    turns.write_text('{"query": "QO BO"}\n' + INFER_BAD_LINES[case] + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as err:
        run_cli(["infer", "--input", str(turns), "--output", str(out)], tiny_workdir)
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {turns} line 2:")
    assert not out.exists()


def test_eval_delta_runs(tiny_workdir, capsys):
    assert run_cli(["eval-delta", "--checkpoint-a", "final",
                    "--checkpoint-b", "direct_sft"], tiny_workdir) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "delta" in doc and "binomial_p" in doc


def test_analyze_forgetting_runs(tiny_workdir, capsys):
    assert run_cli(["analyze-forgetting", "--checkpoint", "final",
                    "--reference", "extended"], tiny_workdir) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"difference", "p_model", "p_original"}


def test_analyze_similarity_runs(tiny_workdir, capsys):
    assert run_cli(["analyze-similarity", "--checkpoint", "final_premerge"],
                   tiny_workdir) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "en_segment" in doc and "x_segment" in doc


def test_lock_prevents_concurrent_runs(tiny_workdir):
    lock = Path(tiny_workdir, "run.lock")
    lock.write_text("12345")
    try:
        with pytest.raises(SystemExit):
            cli.main(["--workdir", tiny_workdir, "run-all"])
    finally:
        lock.unlink()


def test_lock_refuses_train(tiny_workdir, tmp_path):
    workdir = tmp_path / "work"
    shutil.copytree(tiny_workdir, workdir)
    lock = workdir / "run.lock"
    lock.write_text("12345")
    with pytest.raises(SystemExit) as err:
        run_cli(["train", "--stage", "target-cpt"], str(workdir))
    assert err.value.code != 0
    assert lock.read_text() == "12345"


def test_train_stage_runs_only_that_phase(tiny_workdir, tmp_path):
    workdir = tmp_path / "work"
    shutil.copytree(tiny_workdir, workdir)
    untouched = [workdir / "metrics" / "target-cpt.jsonl",
                 workdir / "checkpoints" / "final_premerge" / "weights.bin"]
    before = [p.read_bytes() for p in untouched]
    cfg = pl.RunConfig.from_json((workdir / "config.json").read_text())
    cfg.stages["translation-cpt"]["max_steps"] = 1
    config = tmp_path / "one_step.json"
    config.write_text(cfg.to_json())
    assert cli.main(["--workdir", str(workdir), "--config", str(config),
                     "train", "--stage", "translation-cpt"]) == 0
    lines = (workdir / "metrics" / "translation-cpt.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert [p.read_bytes() for p in untouched] == before
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert manifest[-1]["step"] == "translation-cpt"
    assert not (workdir / "run.lock").exists()


def test_train_with_too_small_sft_max_len_is_one_error_line(tiny_workdir, tmp_path, capsys):
    workdir = tmp_path / "work"
    shutil.copytree(tiny_workdir, workdir)
    cfg = pl.RunConfig.from_json((workdir / "config.json").read_text())
    cfg.sft_max_len = 20
    config = tmp_path / "short.json"
    config.write_text(cfg.to_json())
    with pytest.raises(SystemExit) as err:
        cli.main(["--workdir", str(workdir), "--config", str(config),
                  "train", "--stage", "direct-sft"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_evaluate_rewrites_the_run_all_report(tiny_workdir, tmp_path):
    workdir = tmp_path / "work"
    shutil.copytree(tiny_workdir, workdir)
    report = workdir / "report" / "report.json"
    before = report.read_bytes()
    steps = len(json.loads((workdir / "manifest.json").read_text()))
    report.unlink()
    assert run_cli(["evaluate"], str(workdir)) == 0
    assert report.read_bytes() == before
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert len(manifest) == steps + 1 and manifest[-1]["step"] == "evaluate"
    assert not (workdir / "run.lock").exists()


def test_train_missing_start_checkpoint_is_an_error(tiny_workdir, tmp_path, capsys):
    workdir = tmp_path / "work"
    shutil.copytree(tiny_workdir, workdir)
    shutil.rmtree(workdir / "checkpoints" / "cpt_only")
    with pytest.raises(SystemExit) as err:
        run_cli(["train", "--stage", "transform-sft"], str(workdir))
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("error: ")
    assert str(workdir / "checkpoints" / "cpt_only") in message


def test_gen_world_writes_the_config_its_manifest_names(tmp_path):
    workdir = tmp_path / "fresh"
    config = tmp_path / "tiny.json"
    config.write_text(pl.tiny_config(seed=2).to_json())
    assert cli.main(["--workdir", str(workdir), "--config", str(config), "gen-world"]) == 0
    written = pl.RunConfig.from_json((workdir / "config.json").read_text())
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert manifest[-1]["config_hash"] == written.hash()


def test_stale_vocab_hash_rejected(tiny_workdir, tmp_path):
    # poison one dataset manifest and try to retrain against it
    manifest_path = Path(tiny_workdir, "data", "stage1.manifest.json")
    doc = json.loads(manifest_path.read_text())
    original = manifest_path.read_text()
    doc["vocab_hash"] = "0" * 16
    manifest_path.write_text(json.dumps(doc))
    try:
        with pytest.raises(SystemExit) as err:
            cli.main(["--workdir", tiny_workdir, "train", "--stage", "target-cpt"])
        assert err.value.code != 0
    finally:
        manifest_path.write_text(original)


def test_config_round_trip(tmp_path):
    cfg = pl.tiny_config(seed=3)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    loaded = pl.RunConfig.from_json(path.read_text())
    assert loaded.to_json() == cfg.to_json()


def test_config_rejects_unknown_fields():
    bad = json.dumps({"version": 1, "not_a_field": 2})
    with pytest.raises(pl.PipelineError):
        pl.RunConfig.from_json(bad)
    # a field the config no longer has
    with pytest.raises(pl.PipelineError):
        pl.RunConfig.from_json(json.dumps({"version": 1, "merge_after_stages": []}))
    # the ablation toggles of older configs
    with pytest.raises(pl.PipelineError):
        pl.RunConfig.from_json(json.dumps({"version": 1, "toggles": {"use_lora": True}}))


def _one_phase(name, **override):
    """The shipped stages with one phase's settings overridden."""
    return {"version": 1, "stages": {
        phase: {**settings, **(override if phase == name else {})}
        for phase, settings in pl.default_config().stages.items()}}


def _model(**fields):
    """The shipped model settings with some fields overridden."""
    return {"version": 1, "model": {**pl.default_config().model, **fields}}


NESTED_TYPOS = {
    "world": {"version": 1, "world": {"n_wrods": 3}},
    "stage": _one_phase("target-cpt", bogus=1),
    "phase": {"version": 1, "stages": {"target-cpt": {"stage": "target-cpt"}}},
    "model": {"version": 1, "model": {**pl.default_config().model, "n_layrs": 2}},
    "kind": _one_phase("direct-sft", stage="bogus"),
    "batch_size": _one_phase("target-cpt", batch_size=0),
    "grad_accum": _one_phase("target-cpt", grad_accum=0),
    "max_steps": _one_phase("target-cpt", max_steps=-1),
    "max_epochs": _one_phase("target-cpt", max_epochs=0),
    "peak_lr": _one_phase("target-cpt", peak_lr="a"),
    "weight_decay": _one_phase("original-chat", weight_decay=-0.3),
    "max_epochs_string": _one_phase("target-cpt", max_epochs="a"),
    "batch_size_float": _one_phase("transform-sft", batch_size=2.5),
    "valid_every_string": _one_phase("direct-sft", valid_every="a"),
    "cosine_horizon_epochs": _one_phase("original-chat", cosine_horizon_epochs=0),
    # every phase trains under the run seed
    "stage_seed": _one_phase("target-cpt", seed=5),
    "stages_number": {"version": 1, "stages": 5},
    # equal to 1 but not the int 1
    "version_bool": {"version": True},
    "version_float": {"version": 1.0},
    "eval_max_new": {"version": 1, "eval_max_new": 0},
    "cpt_window": {"version": 1, "cpt_window": 0},
    "sft_max_len": {"version": 1, "sft_max_len": 10000},
    "translation_fraction": {"version": 1, "translation_fraction": 3.0},
    # the one target language is X, so ⟨X⟩ and ⟨EN⟩ stay distinct
    "languages_en": {"version": 1, "languages": ["EN"]},
    "languages_empty": {"version": 1, "languages": []},
    "languages_twice": {"version": 1, "languages": ["X", "X"]},
    "languages_string": {"version": 1, "languages": "XY"},
    "languages_other": {"version": 1, "languages": ["Y"]},
    # values world generation cannot take
    "seed_string": {"version": 1, "seed": "a"},
    "seed_negative": {"version": 1, "seed": -1},
    "world_number": {"version": 1, "world": 5},
    "n_words": {"version": 1, "world": {"n_words": 3}},
    "mono_docs": {"version": 1, "world": {"mono_docs": "a"}},
    "chat_queries": {"version": 1, "world": {"chat_queries": -3}},
    "valid_queries": {"version": 1, "world": {"valid_queries": 0}},
    "harmful_fraction": {"version": 1, "world": {"harmful_fraction": 1.5}},
    # model sizes that would fail only once training starts
    "n_heads_zero": _model(n_heads=0),
    "n_layers_string": _model(n_layers="a"),
    "n_layers_zero": _model(n_layers=0),
    "d_ff_negative": _model(d_ff=-5),
    "d_model_float": _model(d_model=64.0),
    "lora_alpha_string": _model(lora_alpha="a"),
    "lora_rank_float": _model(lora_rank=2.5),
    "lora_dropout_string": _model(lora_dropout="a"),
    "lora_targets_number": _model(lora_targets=5),
    # a bare string is not a list of one target
    "lora_targets_string": _model(lora_targets="wq"),
}


# what the error line of these cases must say: the phase and the field
NAMED_FIELDS = {
    "stage_seed": "stages['target-cpt']: a phase may not set seed",
    "max_epochs_string": "stages['target-cpt']: max_epochs must be an integer",
    "batch_size_float": "stages['transform-sft']: batch_size must be an integer",
    "valid_every_string": "stages['direct-sft']: valid_every must be an integer",
    "cosine_horizon_epochs": "stages['original-chat']: cosine_horizon_epochs must be",
    "n_heads_zero": "model: n_heads must be an integer of at least 1, got 0",
    "d_model_float": "model: d_model must be an integer of at least 1, got 64.0",
    "lora_alpha_string": "model: lora_alpha must be a positive number, got 'a'",
    "lora_dropout_string": "model: lora_dropout must be a number in [0, 1), got 'a'",
    "lora_targets_number": "model: lora_targets must be a list of target names, got 5",
    "lora_targets_string": "model: lora_targets must be a list of target names, got 'wq'",
}


@pytest.mark.parametrize("case", sorted(NESTED_TYPOS))
def test_nested_config_typo_is_one_error_line(case, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(NESTED_TYPOS[case]))
    workdir = tmp_path / "work"
    with pytest.raises(SystemExit) as err:
        cli.main(["--workdir", str(workdir), "--config", str(config), "gen-world"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad config")
    assert NAMED_FIELDS.get(case, "") in lines[0]
    assert not (workdir / "config.json").exists()
