"""Pieces the workloads share: the world and vocabulary set-up through the
pipeline's own steps, run results, and small statistics."""

from __future__ import annotations

import json
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import harness
from langlift import pipeline as pl
from langlift import tokenizer as tok
from langlift import world as wd


@dataclass
class World:
    cfg: pl.RunConfig
    root: Path
    spec: wd.ToyLanguageSpec
    spec_doc: dict
    base: tok.Vocabulary
    full: tok.Vocabulary
    files: dict = field(default_factory=dict)  # file stem -> list of JSONL rows


WORLD_FILES = ("mono_en", "mono_x", "parallel", "replay_en", "queries_chat",
               "queries_transfer", "queries_valid")


def fresh_dir(name: str) -> Path:
    path = harness.WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def build_world(cfg: pl.RunConfig, workdir: Path) -> World:
    """World files and the base and merged vocabularies, made by the
    pipeline's gen-world, learn-vocab and merge-vocab steps."""
    ws = pl.Workspace(str(workdir))
    pl.step_gen_world(cfg, ws)
    pl.step_learn_vocab(cfg, ws)
    pl.step_merge_vocab(cfg, ws)
    lang = cfg.languages[0]
    base_dir = workdir / "world" / lang
    spec_text = (base_dir / "spec.json").read_text(encoding="utf-8")
    return World(
        cfg=cfg, root=workdir,
        spec=wd.ToyLanguageSpec.from_json(spec_text),
        spec_doc=json.loads(spec_text),
        base=tok.Vocabulary.load(str(workdir / "vocab" / "base.txt")),
        full=tok.Vocabulary.load(str(workdir / "vocab" / "full.txt")),
        files={name: wd.load_jsonl(str(base_dir / f"{name}.jsonl")) for name in WORLD_FILES},
    )


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def repeat_rounds(res: "RunResult", seconds: float, per_round: int, run_round,
                  completed=lambda: 0):
    """Run whole rounds of the same operations: at least one, then another
    while it is expected to end within `seconds`. A round that raises
    ends the run, and its operations that `completed()` does not count
    as done are failed. Returns each round's result and wall seconds."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        if results:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                break
        res.attempted += per_round
        t0 = time.perf_counter()
        try:
            out = run_round()
        except Exception as e:  # counted and reported; the run still prints its result
            traceback.print_exc()
            res.failed += per_round - completed()
            res.problems.append(f"round raised {type(e).__name__}: {e}")
            break
        times.append(time.perf_counter() - t0)
        results.append(out)
    return results, times


def percentile(values, q: int) -> float:
    """q-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class RunResult:
    """What one workload run reports. `metrics` holds the values the
    final JSON line carries; `extra` goes only to the results file and
    the printed table."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
