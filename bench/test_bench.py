"""The benchmark's own tests: every workload at a tiny size (no timing
assertions), and every correctness check shown to reject a deliberately
corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.use_checkout_source()

import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import wl_decode  # noqa: E402
import wl_runall  # noqa: E402
import wl_train  # noqa: E402
from langlift import inference as inf  # noqa: E402
from langlift import model as md  # noqa: E402
from langlift import numcore as nc  # noqa: E402
from langlift import pipeline as pl  # noqa: E402

WORKLOADS = {"train": wl_train, "decode": wl_decode, "run-all": wl_runall}


@pytest.fixture(autouse=True)
def scratch_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path / "work")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(workload):
    tracer = tracing.Tracer()
    res = WORKLOADS[workload].run(seed=3, seconds=0.0, size="tiny", repeats=1, tracer=tracer)
    assert res.problems == []
    assert res.failed == 0 and res.attempted > 0
    assert {"setup_s", "round_s", "tokens_per_s"} <= set(res.metrics)
    assert tracer.calls["model.forward"] > 0


def test_benchmark_json_matches_the_metrics_the_runs_report():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench_run.per_layer_units()


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# checks reject corrupted outputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_model():
    cfg = pl.tiny_config(0)
    bundle = wl_decode.draw_bundle(cfg, vocab_size=50, eos_id=49, seed=0)
    return bundle, oracles.params_of(bundle)


def _scale(bundle):
    return bundle.config.lora_alpha / bundle.config.lora_rank


def test_logit_check_rejects_a_perturbed_row(tiny_model):
    bundle, params = tiny_model
    ids = [1, 5, 9, 2, 7, 7, 3]
    ref = oracles.reference_logits(params, ids, bundle.config.n_heads, _scale(bundle))
    got = md.forward(ids, bundle.weights, bundle.adapters).logits.data.copy()
    assert oracles.check_logits(ref, got, "record") == []
    got[3] += 0.05 * np.abs(ref).max()
    assert oracles.check_logits(ref, got, "record")


def test_loss_and_gradient_checks_reject_wrong_values(tiny_model):
    bundle, _ = tiny_model
    b64 = md.clone_bundle(bundle)
    for _, t in b64.named_parameters():
        t.data = t.data.astype(np.float64)
    md.set_trainable(b64, "lora")
    ids = np.array([1, 5, 9, 2, 7, 7, 3, 0], dtype=np.int32)
    mask = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=bool)
    from langlift.datapipe import TrainExample
    from langlift.trainer import example_loss
    ex = TrainExample(ids=ids, loss_mask=mask)
    with nc.tape():
        loss = example_loss(b64, ex)
        nc.backward(loss)
    params = oracles.params_of(b64)
    n_heads, scale = b64.config.n_heads, _scale(b64)
    ref = oracles.reference_loss(params, ids, mask, n_heads, scale)
    assert oracles.check_loss(ref, loss.item(), "record") == []
    assert oracles.check_loss(ref, loss.item() * 1.01, "record")
    loss_fn = lambda p: oracles.reference_loss(p, ids, mask, n_heads, scale)
    name, t = next((n, t) for n, t in b64.named_parameters() if n.endswith("lora.wq.up"))
    g = float(t.grad[0, 1])
    assert oracles.check_gradient(params, loss_fn, name, (0, 1), g) == []
    assert oracles.check_gradient(params, loss_fn, name, (0, 1), g * 1.01 + 1e-6)


def test_greedy_check_rejects_a_wrong_token_and_an_early_stop(tiny_model):
    bundle, params = tiny_model
    prompt, eos = [1, 5, 9, 2], 49
    out = inf.greedy_decode(bundle, prompt, max_new=6, eos_id=eos)
    check = lambda o: oracles.check_greedy(
        oracles.reference_logits(params, prompt + o, bundle.config.n_heads, _scale(bundle)),
        len(prompt), o, eos, 6, bundle.config.max_seq_len)
    assert check(out) == []
    wrong = list(out)
    wrong[0] = (wrong[0] + 1) % 48
    assert check(wrong)
    assert check(out[:-1] if out[-1] != eos else out[:-1] + [3])


def test_training_property_checks_reject_bad_runs():
    assert oracles.check_first_loss(np.log(400.0), 400) == []
    assert oracles.check_first_loss(4.0, 400)
    assert oracles.check_loss_falls("p", [5.0, 4.0, 3.0, 2.0]) == []
    assert oracles.check_loss_falls("p", [2.0, 3.0, 4.0, 5.0])
    a = {"w": np.ones(3)}
    assert oracles.check_frozen(a, copy.deepcopy(a)) == []
    assert oracles.check_frozen(a, {"w": np.array([1.0, 1.0, 1.0 + 1e-7])})


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run-all")
    report = pl.run_all(wl_runall.config("tiny"), str(workdir))
    return workdir, report


def _rows(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_run_all_checks_pass_on_a_clean_run(tiny_run):
    workdir, report = tiny_run
    assert wl_runall.check_workdir(workdir, report) == []


def test_teacher_check_rejects_a_wrong_answer(tiny_run):
    workdir, _ = tiny_run
    spec = json.loads((workdir / "world" / "X" / "spec.json").read_text())
    rows = _rows(workdir / "data" / "stage3.jsonl")
    assert oracles.check_teacher_rows(spec, rows) == []
    i = next(i for i, r in enumerate(rows) if r["kind"] == "rkd")
    rows[i] = {**rows[i], "a_en": rows[i]["a_en"] + " " + rows[i]["a_en"]}
    assert oracles.check_teacher_rows(spec, rows)


def test_cipher_check_rejects_a_broken_entry(tiny_run):
    workdir, _ = tiny_run
    spec = json.loads((workdir / "world" / "X" / "spec.json").read_text())
    pairs = _rows(workdir / "world" / "X" / "parallel.jsonl")
    assert oracles.check_cipher(spec, pairs, [], []) == []
    word = pairs[0]["en"].split(" ")[0]
    spec["cipher"][word] = spec["cipher"][word] + "Q"
    assert oracles.check_cipher(spec, pairs, [], [])


def test_report_check_rejects_altered_counts(tiny_run):
    workdir, report = tiny_run
    valid = _rows(workdir / "world" / "X" / "queries_valid.jsonl")
    n_harmful = {"X": sum(r["harmful"] for r in valid)}
    assert oracles.check_report(report, n_harmful) == []
    for edit in (
        lambda r: r["delta_final_vs_direct"].update(win=r["delta_final_vs_direct"]["win"] + 1),
        lambda r: r["binomial"].update(n_win=r["binomial"]["n_win"] + 1),
        lambda r: r["forgetting"]["final"].update(p_original=0.5),
        lambda r: r["accuracy"]["final"].update(bypass_reject_unclear=[0, 0, 0]),
    ):
        bad = copy.deepcopy(report)
        edit(bad["per_language"]["X"])
        assert oracles.check_report(bad, n_harmful)


def test_manifest_check_rejects_a_missing_step(tiny_run):
    workdir, _ = tiny_run
    entries = json.loads((workdir / "manifest.json").read_text())
    config = json.loads((workdir / "config.json").read_text())
    assert oracles.check_manifest(entries, config) == []
    assert oracles.check_manifest(entries[:-1], config)
    assert oracles.check_manifest(entries, {**config, "seed": config["seed"] + 1})
