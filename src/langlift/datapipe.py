"""Training-data construction and batch packing.

Four record families feed the pipeline: plain monolingual documents for
language pre-training, two-direction translation instances replayed
between source-language documents, recovery records pairing a query with
the teacher's answer behind a ⟨response⟩ sentinel, and translation
chain-of-thought records whose target walks ⟨EN⟩ q ⟨response⟩ a ⟨X⟩ a′.
Document-style records are packed to a fixed window with ⟨EOS⟩
separators; instruction-style records are padded per batch and never
packed, and their loss masks cover target tokens only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import world as wd
from .inference import ConversationHistory, render_template
from .tokenizer import EN, RESPONSE, Vocabulary, lang_token
from .world import ParallelPair, Query, TeacherOracle

CPT_KINDS = ("cpt", "translation-cpt")


class DataError(ValueError):
    pass


class LengthError(DataError):
    pass


class TemplateError(DataError):
    pass


@dataclass
class CptRecord:
    ids: list[int]
    kind: str = "cpt"


@dataclass
class TranslationCptRecord:
    ids: list[int]
    direction: str  # "en->x" or "x->en"
    kind: str = "translation-cpt"


@dataclass
class RkdRecord:
    q_en: str
    a_en: str
    input_ids: list[int]
    target_ids: list[int]
    kind: str = "rkd"


@dataclass
class TcotRecord:
    q_x: str
    q_en: str
    a_en: str
    a_x: str
    input_ids: list[int]
    target_ids: list[int]
    kind: str = "tcot"


@dataclass
class SftRecord:
    input_ids: list[int]
    target_ids: list[int]
    kind: str = "translation-sft"
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_cpt(sentences: list[str], vocab: Vocabulary) -> list[CptRecord]:
    if not sentences:
        raise DataError("no documents to build from")
    return [CptRecord(ids=vocab.encode(s)) for s in sentences]


def build_translation_cpt(pairs: list[ParallelPair], en_docs: list[str],
                          vocab: Vocabulary, seed: int,
                          language: str = "X") -> list[TranslationCptRecord]:
    """Two records per pair, one per direction, each preceded by one
    source-language replay document (when any are supplied) with an
    ⟨EOS⟩ separator."""
    if not pairs:
        raise DataError("no parallel pairs to build from")
    eos = vocab.eos_id
    x_id = vocab.special_id(lang_token(language))
    en_id = vocab.special_id(EN)

    instances = []
    for p in pairs:
        instances.append(("en->x", vocab.encode(p.en) + [x_id] + vocab.encode(p.x)))
        instances.append(("x->en", vocab.encode(p.x) + [en_id] + vocab.encode(p.en)))
    rng = np.random.default_rng([seed, 301])
    order = rng.permutation(len(instances))

    records = []
    for slot, idx in enumerate(order):
        direction, ids = instances[idx]
        if en_docs:
            doc = vocab.encode(en_docs[slot % len(en_docs)])
            ids = doc + [eos] + ids
        records.append(TranslationCptRecord(ids=ids, direction=direction))
    return records


def build_rkd(queries: list[Query], teacher: TeacherOracle,
              vocab: Vocabulary) -> list[RkdRecord]:
    """One record per query: the template-wrapped query as input, the
    ⟨response⟩-led teacher answer (⟨EOS⟩-terminated) as target."""
    resp = vocab.special_id(RESPONSE)
    eos = vocab.eos_id
    records = []
    for i, q in enumerate(queries):
        try:
            answer = teacher.answer(q.text)
        except Exception as e:
            raise DataError(f"teacher failed on query {i}: {e}") from e
        records.append(RkdRecord(
            q_en=q.text,
            a_en=answer,
            input_ids=render_template(ConversationHistory(pending=q.text), vocab),
            target_ids=[resp] + vocab.encode(answer) + [eos],
        ))
    return records


def build_tcot(rkd_records: list[RkdRecord], translator, vocab: Vocabulary,
               language: str = "X") -> list[TcotRecord]:
    """Translate each recovery record into the target language and lay
    out the chain target between the reserved tokens."""
    en_id = vocab.special_id(EN)
    resp = vocab.special_id(RESPONSE)
    x_id = vocab.special_id(lang_token(language))
    eos = vocab.eos_id
    records = []
    for r in rkd_records:
        q_x = translator(r.q_en)
        a_x = translator(r.a_en)
        target = ([en_id] + vocab.encode(r.q_en) + [resp] + vocab.encode(r.a_en)
                  + [x_id] + vocab.encode(a_x) + [eos])
        records.append(TcotRecord(
            q_x=q_x, q_en=r.q_en, a_en=r.a_en, a_x=a_x,
            input_ids=render_template(ConversationHistory(pending=q_x), vocab),
            target_ids=target,
        ))
    return records


def build_translation_sft(templates: list[str], pairs: list[ParallelPair],
                          vocab: Vocabulary, language: str = "X") -> list[SftRecord]:
    """Instruction-following translation data: every template × pair ×
    direction. The target opens with the produced language's ID token."""
    if not templates or not pairs:
        raise DataError("need at least one template and one pair")
    for t in templates:
        if "{src}" not in t:
            raise TemplateError(f"template {t!r} lacks the {{src}} placeholder")
    x_id = vocab.special_id(lang_token(language))
    en_id = vocab.special_id(EN)
    eos = vocab.eos_id
    records = []
    for template in templates:
        for p in pairs:
            for direction in ("en->x", "x->en"):
                src, dst = (p.en, p.x) if direction == "en->x" else (p.x, p.en)
                lang_id = x_id if direction == "en->x" else en_id
                records.append(SftRecord(
                    input_ids=render_template(
                        ConversationHistory(pending=template.format(src=src)), vocab),
                    target_ids=[lang_id] + vocab.encode(dst) + [eos],
                    meta={"direction": direction, "src": src, "dst": dst},
                ))
    return records


def build_direct_sft(queries: list[Query], teacher: TeacherOracle, translator,
                     vocab: Vocabulary) -> list[SftRecord]:
    """Direct target-language instruction data (the no-chain ablation):
    translated query in, ⟨response⟩ plus translated answer out."""
    resp = vocab.special_id(RESPONSE)
    eos = vocab.eos_id
    records = []
    for q in queries:
        a_en = teacher.answer(q.text)
        records.append(SftRecord(
            input_ids=render_template(ConversationHistory(pending=translator(q.text)), vocab),
            target_ids=[resp] + vocab.encode(translator(a_en)) + [eos],
            kind="direct-sft",
            meta={"q_en": q.text, "a_en": a_en},
        ))
    return records


def mix_finetune(tcot: list[TcotRecord], rkd: list[RkdRecord],
                 translation: list[SftRecord], seed: int,
                 translation_fraction: float = 0.2) -> list:
    """Combine the fine-tuning record kinds into one deterministically
    shuffled list; translation instructions are subsampled to a fraction
    of the chain-record count."""
    rng = np.random.default_rng([seed, 302])
    n_trans = min(len(translation), int(round(translation_fraction * len(tcot))))
    picked = [translation[i] for i in rng.permutation(len(translation))[:n_trans]]
    mixed = list(tcot) + list(rkd) + picked
    order = rng.permutation(len(mixed))
    return [mixed[i] for i in order]


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


@dataclass
class TrainExample:
    ids: np.ndarray        # int32 token ids
    loss_mask: np.ndarray  # bool, True exactly on positions trained as targets
    lengths: tuple[int, ...] | None = None  # a stack: its sequences' lengths, end to end

    @property
    def n_target(self) -> int:
        return int(self.loss_mask.sum())


@dataclass
class PackedDataset:
    kind: str              # stage this data belongs to
    batches: list[list[TrainExample]]
    seed: int

    @property
    def examples(self) -> list[TrainExample]:
        return [ex for b in self.batches for ex in b]


def _is_document_record(r) -> bool:
    return getattr(r, "kind", "") in CPT_KINDS


def pack_and_mix(records: list, pad_id: int, seed: int, kind: str,
                 max_len: int = 512, batch_size: int = 8,
                 eos_id: int | None = None) -> PackedDataset:
    """Deterministically shuffle, then pack or pad into batches.

    Document records are concatenated with ⟨EOS⟩ separators (eos_id) and
    cut into max_len windows (every real token is a target). Instruction
    records keep their input+target layout, are padded to the longest
    sequence of their batch, and mask only the target span. An
    instruction record longer than max_len is an error.
    """
    if not records:
        raise DataError("nothing to pack")
    rng = np.random.default_rng([seed, 303])
    order = rng.permutation(len(records))
    shuffled = [records[i] for i in order]

    examples: list[TrainExample] = []
    if all(_is_document_record(r) for r in shuffled):
        if eos_id is None:
            raise DataError("document packing needs the ⟨EOS⟩ separator id")

        def emit(window: list[int]) -> None:
            if len(window) >= 2:  # a 1-token tail trains nothing
                examples.append(TrainExample(
                    ids=np.asarray(window, dtype=np.int32),
                    loss_mask=np.ones(len(window), dtype=bool),
                ))

        # fill windows with whole records so a translation instance is
        # never split from its pair; only records longer than the window
        # spill over
        window: list[int] = []
        for r in shuffled:
            ids = list(r.ids)
            if window and len(window) + 1 + len(ids) <= max_len:
                window.append(eos_id)
                window.extend(ids)
                continue
            emit(window)
            window = ids
            while len(window) > max_len:
                emit(window[:max_len])
                window = window[max_len:]
        emit(window)
    elif any(_is_document_record(r) for r in shuffled):
        raise DataError("cannot mix document records with instruction records in one pack")
    else:
        for r in shuffled:
            seq = list(r.input_ids) + list(r.target_ids)
            if len(seq) > max_len:
                raise LengthError(f"record of {len(seq)} tokens exceeds max_len {max_len}")
            mask = np.zeros(len(seq), dtype=bool)
            mask[len(r.input_ids):] = True
            examples.append(TrainExample(ids=np.asarray(seq, dtype=np.int32), loss_mask=mask))

    batches = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        width = max(len(ex.ids) for ex in chunk)
        padded = []
        for ex in chunk:
            if len(ex.ids) == width:
                padded.append(ex)
                continue
            ids = np.full(width, pad_id, dtype=np.int32)
            ids[:len(ex.ids)] = ex.ids
            mask = np.zeros(width, dtype=bool)
            mask[:len(ex.loss_mask)] = ex.loss_mask
            padded.append(TrainExample(ids=ids, loss_mask=mask))
        batches.append(padded)
    return PackedDataset(kind=kind, batches=batches, seed=seed)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_ROW_TYPES = {
    "cpt": CptRecord,
    "translation-cpt": TranslationCptRecord,
    "rkd": RkdRecord,
    "tcot": TcotRecord,
    "translation-sft": SftRecord,
    "direct-sft": SftRecord,
}


def record_to_row(record) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record)}


def record_from_row(row: dict):
    cls = _ROW_TYPES.get(row.get("kind"))
    if cls is None:
        raise DataError(f"unknown record kind {row.get('kind')!r}")
    return cls(**{f.name: row[f.name] for f in fields(cls)})


def save_records(path, records) -> None:
    wd.save_jsonl(path, [record_to_row(r) for r in records])


def load_records(path) -> list:
    return [record_from_row(row) for row in wd.load_jsonl(path)]


def dataset_manifest(records, seed: int, vocab_hash: str) -> dict:
    counts: dict[str, int] = {}
    for r in records:
        counts[r.kind] = counts.get(r.kind, 0) + 1
    return {"counts": counts, "seed": seed, "vocab_hash": vocab_hash}
