"""`train` workload: `trainer.train_stage` at the shipped model shapes.

One round trains a fresh model through a full-parameter pair of phases
on the base vocabulary (LM windows, then chat records), extends it to
the merged vocabulary, attaches adapters and trains the three adapter
phases (target CPT, translation CPT, transform SFT with validation and
best-checkpoint selection). Every phase runs whole epochs over a fixed
subset of its records, so the tokens a round processes follow from the
inputs alone. The data come from a world and vocabularies made by the
pipeline's own steps at shipped sizes and from the `datapipe` builders,
called as `build-data` calls them on a prefix of each world file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import oracles
from common import (RunResult, World, build_world, fresh_dir, percentile, repeat_rounds,
                    timed)
from langlift import datapipe as dp
from langlift import model as md
from langlift import numcore as nc
from langlift import pipeline as pl
from langlift import trainer as tr
from langlift import world as wd

SIZES = {
    # records per phase, epochs, validation records, validate every n steps
    "shipped": dict(records=48, epochs=2, valid=16, valid_every=6),
    "tiny": dict(records=6, epochs=4, valid=4, valid_every=2),
}
FULL_PHASES = ("original-lm", "original-chat")
LORA_PHASES = ("target-cpt", "translation-cpt", "transform-sft")


@dataclass
class Phase:
    name: str
    dataset: dp.PackedDataset
    config: tr.StageConfig
    tokens_per_epoch: int


@dataclass
class Inputs:
    world: World
    phases: list[Phase]
    valid: list
    valid_tokens: int


def _subset(packed: dp.PackedDataset, n: int, batch_size: int) -> dp.PackedDataset:
    examples = packed.examples[:n]
    if len(examples) < n:
        raise ValueError(f"{packed.kind} data has {len(examples)} records, need {n}")
    return dp.PackedDataset(kind=packed.kind, seed=packed.seed, batches=[
        examples[i:i + batch_size] for i in range(0, n, batch_size)])


def _tokens(examples) -> int:
    return sum(oracles.live_length(ex.loss_mask) for ex in examples)


def setup(seed: int, size: str, workdir) -> Inputs:
    sz = SIZES[size]
    cfg = pl.RunConfig(seed=seed) if size == "shipped" else pl.tiny_config(seed)
    w = build_world(cfg, workdir)
    f = w.files
    teacher = wd.TeacherOracle(w.spec)
    translate = lambda s: wd.oracle_translate(w.spec, s, "en->x")
    # each phase trains `records` examples, so only a prefix of every
    # world file is built: enough documents to fill that many windows
    n, n_docs = sz["records"], 10 * sz["records"]
    docs = lambda name: [r["text"] for r in f[name][:n_docs]]
    queries = lambda name, k=n: wd.queries_from_rows(f[name][:k])
    pairs = wd.pairs_from_rows(f["parallel"][:2 * n])

    rkd = dp.build_rkd(queries("queries_transfer"), teacher, w.full)
    rkd_valid = dp.build_rkd(queries("queries_valid", sz["valid"]), teacher, w.full)
    records = {
        "original-lm": (dp.build_cpt(docs("mono_en"), w.base), w.base),
        "original-chat": (dp.build_rkd(queries("queries_chat"), teacher, w.base), w.base),
        "target-cpt": (dp.build_cpt(docs("mono_x"), w.full), w.full),
        "translation-cpt": (dp.build_translation_cpt(
            pairs, docs("replay_en"), w.full, seed=cfg.seed), w.full),
        "transform-sft": (dp.mix_finetune(
            dp.build_tcot(rkd, translate, w.full), rkd,
            dp.build_translation_sft(pl.TRANSLATION_PROMPTS, pairs, w.full),
            seed=cfg.seed, translation_fraction=cfg.translation_fraction), w.full),
        "valid": (rkd_valid + dp.build_tcot(rkd_valid, translate, w.full), w.full),
    }

    def pack(name, kind):
        recs, vocab = records[name]
        max_len = cfg.sft_max_len if kind == "transform-sft" else cfg.cpt_window
        return dp.pack_and_mix(recs, pad_id=vocab.pad_id, seed=cfg.seed, kind=kind,
                               max_len=max_len, eos_id=vocab.eos_id)

    phases = []
    for name in FULL_PHASES + LORA_PHASES:
        st = cfg.stages[name]
        config = tr.StageConfig(
            stage=st["stage"], peak_lr=st["peak_lr"], warmup_ratio=st["warmup_ratio"],
            weight_decay=st["weight_decay"], batch_size=st["batch_size"],
            max_epochs=sz["epochs"], valid_every=sz["valid_every"], seed=cfg.seed)
        data = _subset(pack(name, st["stage"]), sz["records"], config.batch_size)
        phases.append(Phase(name, data, config, _tokens(data.examples)))
    valid = pack("valid", "transform-sft").examples[:sz["valid"]]
    return Inputs(world=w, phases=phases, valid=valid, valid_tokens=_tokens(valid))


@dataclass
class PhaseRun:
    name: str
    seconds: float
    tokens: int
    losses: list[float]
    step_seconds: list[float]


def _base_state(bundle) -> dict[str, np.ndarray]:
    """Everything adapter training must leave alone: projections and norms."""
    return {n: t.data.copy() for n, t in bundle.weights.named()
            if n.startswith("layers.") or n.startswith("lnf_")}


def run_round(inp: Inputs, on_step=None):
    """Train every phase once. Returns the per-phase runs, the final
    adapter bundle and the frozen-weight snapshots taken around the
    adapter phases."""
    w = inp.world
    mc = md.ModelConfig(vocab_size=len(w.base), **w.cfg.model)
    bundle = md.ModelBundle(mc, md.init_weights(mc, seed=w.cfg.seed))
    runs = []

    def train(phase: Phase, toggles, valid=None):
        stamps = []

        def log(entry):
            stamps.append((time.perf_counter(), entry))
            if on_step is not None:
                on_step()

        t0 = time.perf_counter()
        tr.train_stage(bundle, phase.dataset, phase.config, toggles=toggles,
                       valid_examples=valid, select_best=valid is not None, log=log)
        t1 = time.perf_counter()
        times = [t0] + [s for s, _ in stamps]
        n_valid = sum("valid_loss" in e for _, e in stamps)
        # select_best re-scores the validation set once after the last step
        valid_passes = n_valid + (1 if valid is not None and n_valid else 0)
        runs.append(PhaseRun(
            name=phase.name, seconds=t1 - t0,
            tokens=phase.tokens_per_epoch * phase.config.max_epochs
            + valid_passes * inp.valid_tokens,
            losses=[e["train_loss"] for _, e in stamps],
            step_seconds=list(np.diff(times))))

    full = tr.AblationToggles(use_lora=False)
    for phase in inp.phases[:len(FULL_PHASES)]:
        train(phase, full)
    weights = md.extend_embeddings(bundle.weights, len(w.base), len(w.full), seed=w.cfg.seed + 7)
    bundle = md.ModelBundle(weights.config, weights)
    md.attach_adapters(bundle, seed=w.cfg.seed + 8)
    before = _base_state(bundle)
    for phase in inp.phases[len(FULL_PHASES):]:
        train(phase, tr.AblationToggles(),
              valid=inp.valid if phase.name == "transform-sft" else None)
    return runs, bundle, before


def planned_steps(inp: Inputs) -> int:
    return sum(-(-len(p.dataset.examples) // p.config.batch_size) * p.config.max_epochs
               for p in inp.phases)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_round(inp: Inputs, runs, bundle, before, rng) -> list[str]:
    problems = oracles.check_first_loss(runs[0].losses[0], len(inp.world.base))
    for r in runs:
        problems += oracles.check_loss_falls(r.name, r.losses)
    problems += oracles.check_frozen(before, _base_state(bundle))
    problems += check_against_reference(inp, bundle, rng)
    return problems


def check_against_reference(inp: Inputs, bundle, rng) -> list[str]:
    """Logits and losses of sampled records against the reference
    forward pass, and gradient coordinates against its finite
    differences, on the trained adapter model."""
    cfg = bundle.config
    scale = cfg.lora_alpha / cfg.lora_rank
    params = oracles.params_of(bundle)
    problems = []
    samples = [(p.name, p.dataset.examples[int(rng.integers(len(p.dataset.examples)))])
               for p in inp.phases[len(FULL_PHASES):]]
    samples.append(("valid", inp.valid[int(rng.integers(len(inp.valid)))]))
    for name, ex in samples:
        n = oracles.live_length(ex.loss_mask)
        ids = ex.ids[:n].tolist()
        ref = oracles.reference_logits(params, ids, cfg.n_heads, scale)
        got = md.forward(ids, bundle.weights, bundle.adapters).logits.data
        problems += oracles.check_logits(ref, got, f"{name} record")
        problems += oracles.check_loss(
            oracles.reference_loss(params, ex.ids, ex.loss_mask, cfg.n_heads, scale),
            tr.example_loss(bundle, ex).item(), f"{name} record")
    problems += check_gradients(bundle, samples[-1][1], rng)
    return problems


def check_gradients(bundle, ex, rng, per_mode: int = 4) -> list[str]:
    """Backward of the program in float64, adapter mode and full mode,
    against central differences of the reference loss."""
    problems = []
    for mode in ("lora", "full"):
        b64 = md.clone_bundle(bundle)
        if mode == "full":
            b64.adapters = None
        for _, t in b64.named_parameters():
            t.data = t.data.astype(np.float64)
        md.set_trainable(b64, mode)
        with nc.tape():
            nc.backward(tr.example_loss(b64, ex))
        params = oracles.params_of(b64)
        prefix = ".lora." if mode == "lora" else "layers."
        trainable = [(n, t) for n, t in b64.named_parameters()
                     if t.grad is not None and (prefix in n or n == "head")]
        cfg = b64.config
        scale = cfg.lora_alpha / cfg.lora_rank
        loss_fn = lambda p: oracles.reference_loss(p, ex.ids, ex.loss_mask, cfg.n_heads, scale)
        for k in rng.choice(len(trainable), size=min(per_mode, len(trainable)), replace=False):
            name, t = trainable[int(k)]
            index = tuple(int(rng.integers(s)) for s in t.data.shape)
            problems += oracles.check_gradient(params, loss_fn, name, index,
                                               float(t.grad[index]))
    return problems


def tape_entries_per_record(inp: Inputs, bundle) -> int:
    """Tape entries that one adapter-phase record records in training mode."""
    md.set_trainable(bundle, "lora")
    ex = inp.phases[-1].dataset.examples[0]
    with nc.tape() as t:
        tr.example_loss(bundle, ex, training=True, rng=np.random.default_rng(0))
        return len(t)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _round_facts(rounds) -> dict:
    def rate(phases):
        runs = [r for rs in rounds for r in rs if r.name in phases]
        return sum(r.tokens for r in runs) / sum(r.seconds for r in runs)

    steps = [s for rs in rounds for r in rs for s in r.step_seconds]
    return {
        "train_tokens_per_s": rate(FULL_PHASES + LORA_PHASES),
        "train_full_tokens_per_s": rate(FULL_PHASES),
        "train_lora_tokens_per_s": rate(LORA_PHASES),
        "step_ms_p50": 1000 * percentile(steps, 50),
        "step_ms_p90": 1000 * percentile(steps, 90),
        "steps": len(steps),
        "phase_s": {r.name: r.seconds for r in rounds[-1]},
        "tokens_per_round": sum(r.tokens for r in rounds[-1]),
    }


def run(seed: int, seconds: float, size: str, repeats: int, tracer=None) -> RunResult:
    res = RunResult()
    setups = []
    for k in range(repeats):
        inp, dt = timed(setup, seed, size, fresh_dir(f"train-s{seed}-{k}"))
        setups.append(dt)
    rng = np.random.default_rng([seed, 7101])

    rounds, round_s = repeat_rounds(res, seconds, planned_steps(inp), lambda: run_round(inp))
    if rounds:
        runs, bundle, before = rounds[-1]
        res.problems += check_round(inp, runs, bundle, before, rng)
        rounds = [runs for runs, _, _ in rounds]
        facts = _round_facts(rounds)
        res.extra.update(facts)
        res.metrics.update(
            round_s=float(np.median(round_s)),
            tokens_per_s=float(np.median([sum(r.tokens for r in rs) / sum(r.seconds for r in rs)
                                          for rs in rounds])))
    res.metrics["setup_s"] = float(np.median(setups))
    res.extra.update(setup_runs_s=setups, round_runs_s=round_s)

    if tracer is not None and rounds:
        res.extra["tape_entries_per_record"] = tape_entries_per_record(inp, bundle)
        with tracer:
            inp, _ = timed(setup, seed, size, fresh_dir(f"train-s{seed}-traced"))

            def next_op():
                tracer.op += 1

            tracer.op = 0
            t0 = time.perf_counter()
            run_round(inp, on_step=next_op)
            res.extra["traced_round_s"] = time.perf_counter() - t0
    return res
