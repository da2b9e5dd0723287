"""End-to-end pipeline over a reproducible artifact directory.

Every step reads its inputs from the workdir, writes its outputs there,
and appends to the run manifest, so steps can run individually from the
command line or all together. Two runs with the same config and seed
produce byte-identical reports.

The full run manufactures a source-language chat model from scratch,
extends its vocabulary for the target language, trains the three
transfer stages with adapters, trains a no-chain ablation baseline from
the shared stage-2 checkpoint, and then measures transfer accuracy,
refusal transfer, forgetting, hidden-state similarity, and attention
structure against the world's exact oracles.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from . import datapipe as dp
from . import evallab as ev
from . import tokenizer as tok
from . import world as wd
from .atomic import atomic_open
from .inference import (INST_CLOSE, SYSTEM_OPEN, TEMPLATE_CHARS, TURN_BREAK,
                        ConversationHistory, build_multiturn_input,
                        greedy_decode, parse_tcot, render_template,
                        render_template_text)
from .model import (ModelBundle, ModelConfig, ModelError, SequenceLengthError,
                    attach_adapters, extend_embeddings, init_weights,
                    load_bundle, merge_adapters, save_bundle)
from .trainer import AblationToggles, StageConfig, TrainerError, train_stage

TOOL_VERSION = "langlift-0.1.0"
WORLD_DIR = f"world/{wd.LANGUAGE}"

TRANSLATION_PROMPTS = [
    "put this in the other tongue: {src}",
    "carry these words across: {src}",
]


class PipelineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class WorldSizes:
    n_words: int = 120
    mono_docs: int = 1500
    parallel_pairs: int = 600
    replay_docs: int = 300
    chat_queries: int = 1500
    transfer_queries: int = 600
    valid_queries: int = 150
    harmful_fraction: float = 0.1
    en_vocab: int = 380
    x_vocab: int = 260


@dataclass
class RunConfig:
    version: int = 1
    seed: int = 0
    languages: list[str] = field(default_factory=lambda: [wd.LANGUAGE])  # the only value allowed
    world: WorldSizes = field(default_factory=WorldSizes)
    model: dict = field(default_factory=lambda: {
        "n_layers": 3, "d_model": 64, "n_heads": 4, "d_ff": 256,
        "max_seq_len": 192, "lora_rank": 8, "lora_alpha": 16.0,
        "lora_dropout": 0.05,
    })
    stages: dict = field(default_factory=lambda: {
        # data-kind ("stage" field) plus optimizer settings per pipeline phase
        "original-lm": {"stage": "target-cpt", "peak_lr": 2e-3, "warmup_ratio": 0.02,
                        "weight_decay": 0.01, "batch_size": 8, "max_epochs": 6,
                        "valid_every": 100, "cosine_horizon_epochs": 8},
        "original-chat": {"stage": "transform-sft", "peak_lr": 2e-3, "warmup_ratio": 0.01,
                          "weight_decay": 0.3, "batch_size": 8, "max_epochs": 20,
                          "valid_every": 200, "cosine_horizon_epochs": 20},
        "target-cpt": {"stage": "target-cpt", "peak_lr": 2e-3, "warmup_ratio": 0.02,
                       "weight_decay": 0.01, "batch_size": 8, "max_epochs": 6,
                       "valid_every": 100, "cosine_horizon_epochs": 8},
        "translation-cpt": {"stage": "translation-cpt", "peak_lr": 2e-3, "warmup_ratio": 0.05,
                            "weight_decay": 0.01, "batch_size": 8, "max_epochs": 4,
                            "valid_every": 400, "cosine_horizon_epochs": 5},
        "transform-sft": {"stage": "transform-sft", "peak_lr": 2e-3, "warmup_ratio": 0.01,
                          "weight_decay": 0.0, "batch_size": 8, "max_epochs": 10,
                          "valid_every": 400, "cosine_horizon_epochs": 10},
        "direct-sft": {"stage": "transform-sft", "peak_lr": 2e-3, "warmup_ratio": 0.01,
                       "weight_decay": 0.0, "batch_size": 8, "max_epochs": 10,
                       "valid_every": 400, "cosine_horizon_epochs": 10},
    })
    cpt_window: int = 48
    sft_max_len: int = 160
    eval_max_new: int = 64
    translation_fraction: float = 0.2

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        # True and 1.0 compare equal to 1, and True is an int instance
        if type(doc.get("version")) is not int or doc["version"] != 1:
            raise PipelineError("unsupported run config version")
        _check_fields("config fields", doc, cls.__dataclass_fields__)
        world = doc.get("world", {})
        if not isinstance(world, dict):
            raise PipelineError(f"world must be an object, got {world!r}")
        _check_fields("world fields", world, WorldSizes.__dataclass_fields__)
        doc["world"] = WorldSizes(**world)
        # the vocabulary size comes from the learned vocabulary
        try:
            ModelConfig(vocab_size=1, **doc.get("model", {}))
        except (TypeError, ModelError) as e:
            raise PipelineError(f"model: {e}") from e
        if not isinstance(doc.get("stages", {}), dict):
            raise PipelineError(f"stages must be an object, got {doc['stages']!r}")
        if "stages" in doc and set(doc["stages"]) != set(PHASES):
            raise PipelineError(f"stages must set exactly the phases {sorted(PHASES)}, "
                                f"got {sorted(doc['stages'])}")
        cfg = cls(**doc)
        _check_range("seed", cfg.seed, 0, float("inf"), int)
        for phase in PHASES:
            try:
                cfg.stage_config(phase)
            except (TypeError, TrainerError) as e:
                raise PipelineError(f"stages[{phase!r}]: {e}") from e
        if cfg.languages != [wd.LANGUAGE]:
            raise PipelineError(f"languages must be {[wd.LANGUAGE]}, got {cfg.languages!r}")
        # build_language_spec draws 8 harmful markers, then 24 lookup keys
        # from the other content words
        _check_range("world.n_words", cfg.world.n_words, 32, float("inf"), int)
        for name, count in asdict(cfg.world).items():
            if name not in ("n_words", "harmful_fraction"):
                _check_range(f"world.{name}", count, 1, float("inf"), int)
        _check_range("world.harmful_fraction", cfg.world.harmful_fraction, 0, 1, (int, float))
        max_len = ModelConfig(vocab_size=1, **cfg.model).max_seq_len
        _check_range("eval_max_new", cfg.eval_max_new, 1, float("inf"), int)
        _check_range("cpt_window", cfg.cpt_window, 2, max_len, int)
        _check_range("sft_max_len", cfg.sft_max_len, 2, max_len, int)
        _check_range("translation_fraction", cfg.translation_fraction, 0, 1, (int, float))
        return cfg

    def stage_config(self, phase: str) -> StageConfig:
        """The phase's settings, trained under the run seed."""
        if "seed" in self.stages[phase]:
            raise PipelineError(f"stages[{phase!r}]: a phase may not set seed; "
                                f"every phase trains under the run seed")
        return StageConfig(**self.stages[phase], seed=self.seed)

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def _check_fields(what: str, doc: dict, known) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise PipelineError(f"unknown {what}: {sorted(unknown)}")


def _check_range(name: str, value, lo, hi, kind) -> None:
    """Raise PipelineError unless value is of type kind and in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, kind) or not lo <= value <= hi:
        raise PipelineError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def default_config() -> RunConfig:
    return RunConfig()


def tiny_config(seed: int = 0) -> RunConfig:
    """A minutes-free configuration for smoke tests and determinism
    checks; far too small to learn anything."""
    cfg = RunConfig(seed=seed)
    cfg.world = WorldSizes(n_words=40, mono_docs=60, parallel_pairs=30, replay_docs=10,
                           chat_queries=40, transfer_queries=24, valid_queries=10,
                           harmful_fraction=0.2, en_vocab=220, x_vocab=120)
    cfg.model = {"n_layers": 2, "d_model": 16, "n_heads": 2, "d_ff": 32,
                 "max_seq_len": 160, "lora_rank": 2, "lora_alpha": 4.0,
                 "lora_dropout": 0.0}
    for phase in cfg.stages:
        cfg.stages[phase] = {**cfg.stages[phase], "max_epochs": 1, "max_steps": 3,
                             "valid_every": 2}
    cfg.eval_max_new = 24
    return cfg


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------


class Workspace:
    """Artifact directory with a manifest and a single-writer lock."""

    def __init__(self, workdir: str):
        self.root = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts: str) -> str:
        p = os.path.join(self.root, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def append_manifest(self, step: str, config_hash: str, outputs: list[str]) -> None:
        entries = []
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, encoding="utf-8") as f:
                entries = json.load(f)
        entries.append({"step": step, "config_hash": config_hash,
                        "outputs": sorted(outputs), "tool_version": TOOL_VERSION})
        with atomic_open(self.manifest_path) as f:
            json.dump(entries, f, indent=1, sort_keys=True)

    @contextlib.contextmanager
    def lock(self):
        lock_path = os.path.join(self.root, "run.lock")
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise PipelineError(
                f"{lock_path} exists: another pipeline run owns this workdir") from None
        try:
            try:
                os.write(fd, str(os.getpid()).encode())
            finally:
                os.close(fd)
            yield
        finally:
            os.unlink(lock_path)

    def write_json(self, relpath: str, doc) -> str:
        p = self.path(relpath)
        with atomic_open(p) as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        return p

    def read_json(self, relpath: str):
        with open(os.path.join(self.root, relpath), encoding="utf-8") as f:
            return json.load(f)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def step_gen_world(cfg: RunConfig, ws: Workspace) -> None:
    spec = wd.build_language_spec(seed=cfg.seed, n_words=cfg.world.n_words)
    p = ws.path(WORLD_DIR, "spec.json")
    with atomic_open(p) as f:
        f.write(spec.to_json())
    outputs = [p]

    w = cfg.world
    en_mono = wd.gen_corpus(spec, "mono-en", w.mono_docs, seed=cfg.seed + 1)
    x_mono = wd.gen_corpus(spec, "mono-x", w.mono_docs, seed=cfg.seed + 2)
    pairs = wd.gen_corpus(spec, "parallel", w.parallel_pairs, seed=cfg.seed + 3)
    replay = wd.gen_corpus(spec, "mono-en", w.replay_docs, seed=cfg.seed + 4)
    n_queries = w.chat_queries + w.transfer_queries + w.valid_queries
    queries = wd.gen_query_set(spec, n_queries, w.harmful_fraction, seed=cfg.seed + 5)
    train, valid = wd.split_queries(
        queries, valid_fraction=w.valid_queries / n_queries, seed=cfg.seed + 6)
    chat_q = train[:w.chat_queries]
    transfer_q = train[w.chat_queries:w.chat_queries + w.transfer_queries]

    for name, rows in [
        ("mono_en.jsonl", wd.corpus_rows("mono-en", en_mono)),
        ("mono_x.jsonl", wd.corpus_rows("mono-x", x_mono)),
        ("parallel.jsonl", wd.corpus_rows("parallel", pairs)),
        ("replay_en.jsonl", wd.corpus_rows("mono-en", replay)),
        ("queries_chat.jsonl", wd.query_rows(chat_q)),
        ("queries_transfer.jsonl", wd.query_rows(transfer_q)),
        ("queries_valid.jsonl", wd.query_rows(valid)),
    ]:
        p = ws.path(WORLD_DIR, name)
        wd.save_jsonl(p, rows)
        outputs.append(p)
    ws.append_manifest("gen-world", cfg.hash(), outputs)


def _load_world(ws: Workspace):
    with open(os.path.join(ws.root, WORLD_DIR, "spec.json"), encoding="utf-8") as f:
        spec = wd.ToyLanguageSpec.from_json(f.read())
    load = lambda name: wd.load_jsonl(os.path.join(ws.root, WORLD_DIR, name))
    return {
        "spec": spec,
        "en_mono": [r["text"] for r in load("mono_en.jsonl")],
        "x_mono": [r["text"] for r in load("mono_x.jsonl")],
        "pairs": wd.pairs_from_rows(load("parallel.jsonl")),
        "replay": [r["text"] for r in load("replay_en.jsonl")],
        "chat_q": wd.queries_from_rows(load("queries_chat.jsonl")),
        "transfer_q": wd.queries_from_rows(load("queries_transfer.jsonl")),
        "valid_q": wd.queries_from_rows(load("queries_valid.jsonl")),
    }


def _format_lines() -> list[str]:
    lines = [
        SYSTEM_OPEN, INST_CLOSE, TURN_BREAK,
        # part of the shipped BPE corpus; dropping it changes the merges
        "Let me interpret the instruction in English: "
        " Then the English response is: "
        " Finally, the X response is: ",
    ]
    lines += TRANSLATION_PROMPTS
    return lines * 25


def step_learn_vocab(cfg: RunConfig, ws: Workspace) -> None:
    data = _load_world(ws)
    v_en = tok.learn_vocab(data["en_mono"] + _format_lines(), cfg.world.en_vocab,
                           alphabet=TEMPLATE_CHARS)
    base = tok.merge_vocab(v_en, tok.Vocabulary([], []), [tok.EOS, tok.PAD, tok.RESPONSE])
    v_x = tok.learn_vocab(data["x_mono"], cfg.world.x_vocab)
    outputs = [ws.path("vocab", "base.txt"), ws.path("vocab", f"learned_{wd.LANGUAGE}.txt")]
    base.save(outputs[0])
    v_x.save(outputs[1])
    ws.append_manifest("learn-vocab", cfg.hash(), outputs)


def step_merge_vocab(cfg: RunConfig, ws: Workspace) -> None:
    base = tok.Vocabulary.load(os.path.join(ws.root, "vocab", "base.txt"))
    learned = tok.Vocabulary.load(os.path.join(ws.root, "vocab", f"learned_{wd.LANGUAGE}.txt"))
    full = tok.merge_vocab(base, learned, [tok.EN, tok.X])
    p = ws.path("vocab", "full.txt")
    full.save(p)
    _verify_extension_stability(ws, base, full)
    ws.append_manifest("merge-vocab", cfg.hash(), [p])


def _verify_extension_stability(ws: Workspace, base, full) -> None:
    """Source-language text must tokenize identically before and after
    the extension; guaranteed by the disjoint surface alphabets, checked
    here against a sample."""
    data = _load_world(ws)
    sample = data["en_mono"][:50] + [
        render_template_text(ConversationHistory(pending=q.text))
        for q in data["chat_q"][:20]
    ]
    for text in sample:
        if base.encode(text) != full.encode(text):
            raise PipelineError(
                "vocabulary extension changed the tokenization of source text")


def _vocabs(ws: Workspace):
    base = tok.Vocabulary.load(os.path.join(ws.root, "vocab", "base.txt"))
    full = tok.Vocabulary.load(os.path.join(ws.root, "vocab", "full.txt"))
    return base, full


def step_build_data(cfg: RunConfig, ws: Workspace) -> None:
    base_vocab, full_vocab = _vocabs(ws)
    outputs = []

    def dump(name: str, records, vocab) -> None:
        p = ws.path("data", name + ".jsonl")
        dp.save_records(p, records)
        ws.write_json(f"data/{name}.manifest.json",
                      dp.dataset_manifest(records, cfg.seed, tok.vocab_hash(vocab)))
        outputs.append(p)

    data = _load_world(ws)
    spec = data["spec"]
    teacher = wd.TeacherOracle(spec)
    translate = lambda s: wd.oracle_translate(spec, s, "en->x")

    # source-language chat model data (base vocabulary)
    dump("original_lm", dp.build_cpt(data["en_mono"], base_vocab), base_vocab)
    dump("original_chat", dp.build_rkd(data["chat_q"], teacher, base_vocab), base_vocab)
    dump("valid_chat", dp.build_rkd(data["valid_q"], teacher, base_vocab), base_vocab)

    dump("stage1", dp.build_cpt(data["x_mono"], full_vocab), full_vocab)
    dump("stage2", dp.build_translation_cpt(data["pairs"], data["replay"], full_vocab,
                                            seed=cfg.seed), full_vocab)
    rkd = dp.build_rkd(data["transfer_q"], teacher, full_vocab)
    tcot = dp.build_tcot(rkd, translate, full_vocab)
    trans_sft = dp.build_translation_sft(TRANSLATION_PROMPTS, data["pairs"], full_vocab)
    dump("stage3", dp.mix_finetune(tcot, rkd, trans_sft, seed=cfg.seed,
                                   translation_fraction=cfg.translation_fraction),
         full_vocab)
    dump("ablation_direct",
         dp.build_direct_sft(data["transfer_q"], teacher, translate, full_vocab), full_vocab)

    rkd_valid = dp.build_rkd(data["valid_q"], teacher, full_vocab)
    tcot_valid = dp.build_tcot(rkd_valid, translate, full_vocab)
    dump(f"valid_rkd_{wd.LANGUAGE}", rkd_valid, full_vocab)
    dump(f"valid_tcot_{wd.LANGUAGE}", tcot_valid, full_vocab)
    dump("valid_stage3", rkd_valid + tcot_valid, full_vocab)
    ws.append_manifest("build-data", cfg.hash(), outputs)


def _guard_vocab(ws: Workspace, name: str, vocab) -> None:
    manifest = ws.read_json(f"data/{name}.manifest.json")
    if manifest["vocab_hash"] != tok.vocab_hash(vocab):
        raise PipelineError(
            f"dataset {name} was built with a different vocabulary "
            f"({manifest['vocab_hash']} != {tok.vocab_hash(vocab)}); rebuild the data")


def _packed(cfg: RunConfig, ws: Workspace, name: str, kind: str, vocab) -> dp.PackedDataset:
    _guard_vocab(ws, name, vocab)
    records = dp.load_records(os.path.join(ws.root, "data", name + ".jsonl"))
    max_len = cfg.cpt_window if kind != "transform-sft" else cfg.sft_max_len
    return dp.pack_and_mix(records, pad_id=vocab.pad_id, seed=cfg.seed, kind=kind,
                           max_len=max_len, eos_id=vocab.eos_id)


def _load_ckpt(ws: Workspace, name: str, vocab) -> ModelBundle:
    bundle, _ = load_bundle(os.path.join(ws.root, "checkpoints", name),
                            expect_vocab_hash=tok.vocab_hash(vocab))
    return bundle


@dataclass(frozen=True)
class Phase:
    data: str                     # training set under data/
    start: str | None             # checkpoint it starts from; None: fresh weights
    saves: str                    # checkpoint it saves
    valid: str | None = None      # validation set for best-checkpoint selection
    transfer: bool = True         # adapters over the full vocabulary, else full-parameter
    merged: str | None = None     # checkpoint saved with the adapters folded in


# training phases in run order; each one's data kind and optimizer
# settings are RunConfig.stages[phase]
PHASES = {
    "original-lm": Phase("original_lm", None, "original_lm", transfer=False),
    "original-chat": Phase("original_chat", "original_lm", "original", valid="valid_chat",
                           transfer=False),
    "target-cpt": Phase("stage1", "extended", "target_cpt"),
    "translation-cpt": Phase("stage2", "target_cpt", "cpt_only"),
    "transform-sft": Phase("stage3", "cpt_only", "final_premerge", valid="valid_stage3",
                           merged="final"),
    # the no-chain baseline branches off the shared stage-2 checkpoint
    "direct-sft": Phase("ablation_direct", "cpt_only", "direct_sft"),
}


def _train_phase(cfg: RunConfig, ws: Workspace, phase: str) -> list[str]:
    """Train one phase from its start checkpoint and save what it ends
    with; returns the paths written.

    A transfer phase starting from a checkpoint without adapters attaches
    fresh ones."""
    spec = PHASES[phase]
    base_vocab, full_vocab = _vocabs(ws)
    vocab = full_vocab if spec.transfer else base_vocab
    if spec.start is None:
        model_config = ModelConfig(vocab_size=len(vocab), **cfg.model)
        bundle = ModelBundle(config=model_config,
                             weights=init_weights(model_config, seed=cfg.seed),
                             vocab_hash=tok.vocab_hash(vocab))
    else:
        bundle = _load_ckpt(ws, spec.start, vocab)
    if spec.transfer and bundle.adapters is None:
        attach_adapters(bundle, seed=cfg.seed + 8)

    kind = cfg.stages[phase]["stage"]
    dataset = _packed(cfg, ws, spec.data, kind, vocab)
    valid = (None if spec.valid is None
             else _packed(cfg, ws, spec.valid, kind, vocab).examples[:64])
    metrics = ws.path("metrics", f"{phase}.jsonl")
    with open(metrics, "w", encoding="utf-8") as f:
        def log(entry: dict) -> None:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
            f.flush()

        train_stage(bundle, dataset, cfg.stage_config(phase),
                    toggles=AblationToggles(use_lora=spec.transfer),
                    valid_examples=valid, select_best=valid is not None, log=log)

    outputs = [metrics, ws.path("checkpoints", spec.saves)]
    save_bundle(bundle, outputs[-1], extra_meta={"stage": phase})
    if spec.merged is not None:
        merge_adapters(bundle.weights, bundle.adapters)
        bundle.adapters = None
        outputs.append(ws.path("checkpoints", spec.merged))
        save_bundle(bundle, outputs[-1], extra_meta={"stage": phase})
    return outputs


def train_phases(cfg: RunConfig, ws: Workspace, step: str, phases) -> None:
    """Train `phases` in order and record them as one manifest step."""
    outputs = []
    for phase in phases:
        outputs += _train_phase(cfg, ws, phase)
    ws.append_manifest(step, cfg.hash(), outputs)


def step_train_original(cfg: RunConfig, ws: Workspace) -> None:
    train_phases(cfg, ws, "train-original", [p for p in PHASES if not PHASES[p].transfer])


def step_extend(cfg: RunConfig, ws: Workspace) -> None:
    base_vocab, full_vocab = _vocabs(ws)
    bundle = _load_ckpt(ws, "original", base_vocab)
    weights = extend_embeddings(bundle.weights, len(base_vocab), len(full_vocab),
                                seed=cfg.seed + 7)
    extended = ModelBundle(config=weights.config, weights=weights,
                           vocab_hash=tok.vocab_hash(full_vocab))
    ckpt = ws.path("checkpoints", "extended")
    save_bundle(extended, ckpt, extra_meta={"stage": "extended"})
    ws.append_manifest("extend", cfg.hash(), [ckpt])


def step_train_transfer(cfg: RunConfig, ws: Workspace) -> None:
    train_phases(cfg, ws, "train-transfer", [p for p in PHASES if PHASES[p].transfer])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _lenient_scores(acc: ev.AccuracyReport) -> list[int]:
    """Judge scores that credit answers with the right words in any order."""
    return [10 if a is not None and sorted(a.split()) == sorted(e.split()) else 1
            for a, e in zip(acc.answers, acc.expected)]


def _multiturn_probe(bundle, acc: ev.AccuracyReport, vocab, max_new: int) -> float:
    """Share of second turns that still come back as a well-formed chain
    when the first turn's source-language portions form the history.
    Pairs up the first eight harmless queries of `acc`, the bundle's own
    accuracy pass, so only the second turns are decoded here."""
    probes = [(posed, out) for posed, out, harmful in zip(acc.posed, acc.outputs, acc.harmful)
              if not harmful][:8]
    pairs = list(zip(probes[::2], probes[1::2]))
    if not pairs:
        return 0.0
    ok = 0
    for (_, out1), (qx2, _) in pairs:
        try:
            parse1 = parse_tcot(out1, vocab)
            if parse1.mode != "tcot":
                continue
            prompt2 = render_template(build_multiturn_input([parse1], qx2, vocab), vocab)
            out2 = greedy_decode(bundle, prompt2, max_new=max_new, eos_id=vocab.eos_id)
            if parse_tcot(out2, vocab).mode == "tcot":
                ok += 1
        except (ev.ParseError, SequenceLengthError, tok.TokenizerError):
            continue
    return 100.0 * ok / len(pairs)


def step_evaluate(cfg: RunConfig, ws: Workspace) -> dict:
    _, full_vocab = _vocabs(ws)
    final = _load_ckpt(ws, "final_premerge", full_vocab)
    direct = _load_ckpt(ws, "direct_sft", full_vocab)
    cpt_only = _load_ckpt(ws, "cpt_only", full_vocab)
    reference = _load_ckpt(ws, "extended", full_vocab)
    outputs = []

    data = _load_world(ws)
    spec = data["spec"]
    valid_q = data["valid_q"]

    acc_final = ev.exact_match_eval(final, valid_q, spec, full_vocab,
                                    mode="x", max_new=cfg.eval_max_new)
    acc_direct = ev.exact_match_eval(direct, valid_q, spec, full_vocab,
                                     mode="x", max_new=cfg.eval_max_new)
    delta = ev.compute_delta(acc_final.judge_scores, acc_direct.judge_scores)

    # safety table over outcome categories. Both rows sum to the number
    # of harmful queries, so once the zero-sum columns are dropped every
    # expected count is positive; the test needs two columns left.
    table = [list(acc_final.bypass_reject_unclear),
             list(acc_direct.bypass_reject_unclear)]
    cols = [j for j in range(3) if table[0][j] + table[1][j] > 0]
    chi2 = None
    if len(cols) >= 2:
        chi2 = asdict(ev.chi2_test([[row[j] for j in cols] for row in table]))

    rkd_valid = dp.load_records(os.path.join(ws.root, "data", f"valid_rkd_{wd.LANGUAGE}.jsonl"))
    tcot_valid = dp.load_records(os.path.join(ws.root, "data", f"valid_tcot_{wd.LANGUAGE}.jsonl"))

    forgetting = {name: asdict(r) for name, r in ev.forgetting_probability(
        {"cpt_only": cpt_only, "final": final, "direct_sft": direct},
        reference, rkd_valid).items()}

    similarity = asdict(ev.hidden_similarity(final, tcot_valid, full_vocab))

    # strict vs lenient judge agreement on the pairwise comparison
    strict = ev.verdicts(acc_final.judge_scores, acc_direct.judge_scores)
    lenient = ev.verdicts(_lenient_scores(acc_final), _lenient_scores(acc_direct))
    agreement = {"with_tie": ev.agreement_rate(strict, lenient, include_ties=True)}
    try:
        agreement["without_tie"] = ev.agreement_rate(strict, lenient, include_ties=False)
    except ev.EvalError:
        agreement["without_tie"] = None

    # the first validation output that parses as a chain, reusing the
    # accuracy pass's decodes
    attention_summary = None
    for posed, out in zip(acc_final.posed, acc_final.outputs):
        prompt = render_template(ConversationHistory(pending=posed), full_vocab)
        try:
            dump = ev.attention_dump(final, prompt, out, full_vocab)
        except ev.ParseError:
            continue  # output not a well-formed chain; try the next query
        paths = [ws.path("report", f"attention_{wd.LANGUAGE}.{ext}") for ext in ("npy", "json")]
        dump.save(*paths)
        outputs += paths
        attention_summary = dump.x_row_mass
        break

    results = {
        "accuracy": {"final": acc_final.to_dict(), "direct_sft": acc_direct.to_dict()},
        "delta_final_vs_direct": delta.to_dict(),
        "binomial": {"n_win": delta.n_win, "n_loss": delta.n_loss,
                     "p_value": delta.p_value, "significant": delta.p_value < 0.05},
        "safety_chi2": chi2,
        "forgetting": forgetting,
        "hidden_similarity": similarity,
        "judge_agreement": agreement,
        "attention_x_row_mass": attention_summary,
        "multiturn_chain_rate": _multiturn_probe(final, acc_final, full_vocab, cfg.eval_max_new),
    }
    report = {"config_hash": cfg.hash(), "tool_version": TOOL_VERSION,
              "languages": [wd.LANGUAGE], "per_language": {wd.LANGUAGE: results}}
    report_path = ws.write_json("report/report.json", report)
    outputs.append(report_path)

    # aligned tables, one row per comparison
    delta_csv = ws.path("report", "delta.csv")
    with atomic_open(delta_csv, newline="") as f:
        w = csv.writer(f)
        w.writerow(["language", "comparison", "win", "tie", "loss", "delta", "p_value"])
        w.writerow([wd.LANGUAGE, "final vs direct-sft",
                    *(f"{v:.2f}" for v in (delta.win, delta.tie, delta.loss, delta.delta)),
                    f"{delta.p_value:.6f}"])
    safety_csv = ws.path("report", "safety.csv")
    with atomic_open(safety_csv, newline="") as f:
        w = csv.writer(f)
        w.writerow(["language", "model", "bypass", "reject", "unclear"])
        for name, acc in (("final", acc_final), ("direct_sft", acc_direct)):
            w.writerow([wd.LANGUAGE, name, *acc.bypass_reject_unclear])
    outputs += [delta_csv, safety_csv]
    ws.append_manifest("evaluate", cfg.hash(), outputs)
    return report


def run_all(cfg: RunConfig, workdir: str) -> dict:
    ws = Workspace(workdir)
    with ws.lock():
        ws.write_json("config.json", json.loads(cfg.to_json()))
        step_gen_world(cfg, ws)
        step_learn_vocab(cfg, ws)
        step_merge_vocab(cfg, ws)
        step_build_data(cfg, ws)
        step_train_original(cfg, ws)
        step_extend(cfg, ws)
        step_train_transfer(cfg, ws)
        return step_evaluate(cfg, ws)
