"""`run-all` workload: `pipeline.run_all` into a fresh workdir at the
shipped world and model sizes, with every training phase capped to a few
steps and validation still running inside the cap. Training is capped
so that the steps only this workload reaches (world generation,
vocabulary learning, data building and JSONL I/O, checkpoints and every
evaluation analysis) carry a large share of the time.

It runs the shipped configuration with its own seed, whatever `--seed`
says. With capped training, evaluation time depends on whether the
capped models happened to learn to emit ⟨EOS⟩: at 40 steps most seeds
generate 1.4-2.2k tokens in evaluation, but seed 23 generated 9.0k and
took 53 s instead of 29 s, and at 60 steps seed 29 still generated 5.7k.
Across seeds, `run_all` time would measure that lottery more than the
code.

Set-up is what every `langlift` command pays before its first step: a
fresh interpreter importing the pipeline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
import oracles
import tracing
from common import RunResult, fresh_dir, repeat_rounds, timed
from langlift import pipeline as pl
from langlift import tokenizer as tok
from langlift import trainer as tr

SIZES = {"shipped": dict(max_steps=40, valid_every=20), "tiny": dict(max_steps=3, valid_every=2)}


def config(size: str) -> pl.RunConfig:
    sz = SIZES[size]
    cfg = pl.RunConfig() if size == "shipped" else pl.tiny_config()
    for phase in cfg.stages:
        cfg.stages[phase] = {**cfg.stages[phase], "max_steps": sz["max_steps"],
                             "valid_every": sz["valid_every"]}
    return cfg


def import_seconds() -> float:
    env = {**os.environ, "PYTHONPATH": str(harness.SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import langlift.pipeline"], env=env, check=True)
    return time.perf_counter() - t0


class TrainCounter:
    """Seconds inside `train_stage` and the tokens `example_loss`
    forwards, for `tokens_per_s`: two counters around the public trainer
    entry points, installed around the untraced rounds (a dozen and about
    two thousand calls a run, each wrapping milliseconds of work)."""

    def __init__(self):
        self.seconds = 0.0
        self.tokens = 0
        self._saved = []

    def __enter__(self):
        stage, loss = tr.train_stage, tr.example_loss

        def train_stage(*a, **kw):
            t0 = time.perf_counter()
            try:
                return stage(*a, **kw)
            finally:
                self.seconds += time.perf_counter() - t0

        def example_loss(bundle, example, *a, **kw):
            self.tokens += oracles.live_length(example.loss_mask)
            return loss(bundle, example, *a, **kw)

        self._saved = [(pl, "train_stage", stage), (tr, "train_stage", stage),
                       (tr, "example_loss", loss)]
        pl.train_stage = tr.train_stage = train_stage
        tr.example_loss = example_loss
        return self

    def __exit__(self, *exc):
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)


def completed_steps(workdir: Path) -> int:
    try:
        return len(json.loads((workdir / "manifest.json").read_text()))
    except FileNotFoundError:
        return 0


def check_workdir(workdir: Path, report: dict) -> list[str]:
    """Oracle and property checks over everything one run wrote."""
    read = lambda *p: (workdir.joinpath(*p)).read_text(encoding="utf-8")
    rows = lambda *p: [json.loads(line) for line in read(*p).splitlines() if line.strip()]
    config_doc = json.loads(read("config.json"))
    problems = oracles.check_manifest(json.loads(read("manifest.json")), config_doc)
    if json.loads(read("report", "report.json")) != report:
        problems.append("report.json differs from the report run_all returned")
    base = tok.Vocabulary.load(str(workdir / "vocab" / "base.txt"))
    full = tok.Vocabulary.load(str(workdir / "vocab" / "full.txt"))
    n_harmful = {}
    for lang in config_doc["languages"]:
        world = lambda name: rows("world", lang, name)
        spec = json.loads(read("world", lang, "spec.json"))
        en = [r["text"] for r in world("mono_en.jsonl") + world("replay_en.jsonl")]
        x = [r["text"] for r in world("mono_x.jsonl")]
        problems += oracles.check_cipher(spec, world("parallel.jsonl"), en, x)
        valid = world("queries_valid.jsonl")
        n_harmful[lang] = sum(r["harmful"] for r in valid)
        for name in ("original_chat", "valid_chat", f"valid_rkd_{lang}",
                     f"valid_tcot_{lang}", "stage3", "ablation_direct"):
            problems += oracles.check_teacher_rows(spec, rows("data", f"{name}.jsonl"))
        source = en[:200] + [r["query"] for r in valid]
        problems += oracles.check_tokenizer(base, full, source, source + x[:200])
    problems += oracles.check_report(report, n_harmful)
    return problems


def run(seed: int, seconds: float, size: str, repeats: int, tracer=None) -> RunResult:
    res = RunResult()
    setups = [import_seconds() for _ in range(repeats)]
    cfg = config(size)
    counted = TrainCounter()
    workdir = harness.WORK_DIR / f"run-all-s{seed}"

    def one_run():
        fresh_dir(workdir.name)
        with counted:
            return timed(pl.run_all, cfg, str(workdir))

    done, _ = repeat_rounds(res, seconds, len(oracles.PIPELINE_STEPS), one_run,
                            completed=lambda: completed_steps(workdir))
    reports = [report for report, _ in done]
    rounds = [dt for _, dt in done]  # run_all alone, without clearing the workdir
    if rounds:
        res.problems += check_workdir(workdir, reports[-1])
        if any(r != reports[0] for r in reports):
            res.problems.append("repeated runs with one config gave different reports")
        res.metrics.update(round_s=float(np.median(rounds)),
                           tokens_per_s=counted.tokens / counted.seconds)
        res.extra.update(train_tokens=counted.tokens // len(rounds),
                         train_s=counted.seconds / len(rounds))
    res.metrics["setup_s"] = float(np.median(setups))
    res.extra.update(setup_runs_s=setups, round_runs_s=rounds)

    if tracer is not None and rounds:
        workdir = fresh_dir(f"run-all-s{seed}-traced")
        tracer.op_starts = {f"pipeline.{s}" for s in tracing.PIPELINE_STEPS}
        with tracer:
            _, dt = timed(pl.run_all, cfg, str(workdir))
        res.extra["traced_round_s"] = dt
        res.extra["n_eval_queries"] = cfg.world.valid_queries * len(cfg.languages)
    return res
