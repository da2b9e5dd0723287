"""Synthetic bilingual universe with exact oracles.

EN′ is a toy source language of pseudo-words; X′ is a deterministic
target language produced by a bijective word cipher, so translation has
a single correct answer. A rule-based teacher answers four query
families (copy, list-reverse, small-number arithmetic, key-value
lookup) and refuses queries containing harmful marker words. Everything
is a pure function of (spec, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .atomic import atomic_open

_SRC_CONSONANTS = "bdfghklmnprstvz"
_SRC_VOWELS = "aei"
# target surfaces are uppercase, from letters that appear in no template,
# system-prompt, or chain-phrase string: subword merges learned on target
# text then never re-segment source-language data after vocabulary
# extension, so the pre-transfer model's token stream stays stable
_TGT_CONSONANTS = "BCDGJKMPQRVWZ"
_TGT_VOWELS = "AOU"

# the target language's name, as written in spec.json and the workdir's
# file names; its reserved token is tokenizer.X
LANGUAGE = "X"

# query-family keywords; also part of the lexicon so they translate
KEYWORDS = ("say", "flip", "add", "what")
MAX_OPERAND = 9


class WorldError(ValueError):
    pass


class TranslationError(WorldError):
    pass


class UnsupportedTaskError(WorldError):
    pass


@dataclass(frozen=True)
class Query:
    text: str
    harmful: bool


@dataclass(frozen=True)
class ParallelPair:
    en: str
    x: str


@dataclass
class ToyLanguageSpec:
    """Lexicon, cipher, sentence templates, and harmfulness markers."""

    language: str
    words: list[str]                 # full EN′ lexicon (content + keywords + numbers)
    content_words: list[str]         # sampling pool for sentence/query content
    cipher: dict[str, str]           # EN′ surface -> X′ surface (bijection)
    templates: list[str]
    harmful_markers: list[str]
    kv_table: dict[str, str]
    refusal: str
    inverse: dict[str, str] = field(init=False)

    def __post_init__(self):
        self.inverse = {x: en for en, x in self.cipher.items()}
        if len(self.inverse) != len(self.cipher):
            raise WorldError("cipher is not injective")
        if set(self.cipher) & set(self.inverse):
            raise WorldError("source and target surfaces overlap")

    def to_json(self) -> str:
        doc = {"version": 1, **{f.name: getattr(self, f.name) for f in fields(self) if f.init}}
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ToyLanguageSpec":
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise WorldError("unsupported language spec version")
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.init})


def _pseudo_word(rng, consonants, vowels, n_syllables):
    out = []
    for _ in range(n_syllables):
        out.append(consonants[rng.integers(len(consonants))])
        out.append(vowels[rng.integers(len(vowels))])
    return "".join(out)


def build_language_spec(seed: int, n_words: int = 200) -> ToyLanguageSpec:
    """Construct a language pair deterministically from a seed.

    Source and target use disjoint vowel inventories, so no surface can
    belong to both sides; digits get target pseudo-words like any other
    lexicon entry.
    """
    rng = np.random.default_rng([seed, 101])
    content: list[str] = []
    seen = set(KEYWORDS)
    while len(content) < n_words:
        w = _pseudo_word(rng, _SRC_CONSONANTS, _SRC_VOWELS, int(rng.integers(2, 4)))
        if w not in seen:
            seen.add(w)
            content.append(w)

    numbers = [str(v) for v in range(2 * MAX_OPERAND + 1)]
    words = content + list(KEYWORDS) + numbers

    targets: list[str] = []
    tseen: set[str] = set()
    while len(targets) < len(words):
        w = _pseudo_word(rng, _TGT_CONSONANTS, _TGT_VOWELS, int(rng.integers(2, 4)))
        if w not in tseen:
            tseen.add(w)
            targets.append(w)
    cipher = dict(zip(words, targets))

    markers = [content[i] for i in rng.choice(len(content), size=8, replace=False)]
    marker_set = set(markers)
    safe = [w for w in content if w not in marker_set]

    kv_keys = [safe[i] for i in rng.choice(len(safe), size=24, replace=False)]
    kv_vals = [safe[i] for i in rng.choice(len(safe), size=24, replace=False)]
    kv_table = dict(zip(kv_keys, kv_vals))

    refusal = " ".join(safe[i] for i in rng.choice(len(safe), size=4, replace=False))

    templates = ["{0} {1}", "{0} {1} {2}", "{0} {1} {2} {3}", "{0} {1} {2} {3} {4}"]
    return ToyLanguageSpec(
        language=LANGUAGE,
        words=words,
        content_words=safe,
        cipher=cipher,
        templates=templates,
        harmful_markers=markers,
        kv_table=kv_table,
        refusal=refusal,
    )


# ---------------------------------------------------------------------------
# translation oracle
# ---------------------------------------------------------------------------


def oracle_translate(spec: ToyLanguageSpec, sentence: str, direction: str) -> str:
    """Word-by-word cipher application; exact inverse in the other direction."""
    if direction == "en->x":
        table = spec.cipher
    elif direction == "x->en":
        table = spec.inverse
    else:
        raise WorldError(f"unknown direction {direction!r}")
    if sentence == "":
        return ""
    out = []
    for w in sentence.split(" "):
        if w not in table:
            raise TranslationError(f"word {w!r} is not in the {direction} lexicon")
        out.append(table[w])
    return " ".join(out)


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------


class TeacherOracle:
    """Deterministic answer oracle standing in for the source-language
    chat model. Harmful queries always get the fixed refusal sentence."""

    def __init__(self, spec: ToyLanguageSpec):
        self.spec = spec

    def is_harmful(self, query: str) -> bool:
        markers = set(self.spec.harmful_markers)
        return any(w in markers for w in query.split(" "))

    def answer(self, query: str) -> str:
        if self.is_harmful(query):
            return self.spec.refusal
        parts = query.split(" ")
        head, rest = parts[0], parts[1:]
        if head == "say" and rest:
            return " ".join(rest)
        if head == "flip" and rest:
            return " ".join(reversed(rest))
        if head == "add" and len(rest) == 2 and all(r.isdigit() for r in rest):
            return str(int(rest[0]) + int(rest[1]))
        if head == "what" and len(rest) == 1 and rest[0] in self.spec.kv_table:
            return self.spec.kv_table[rest[0]]
        raise UnsupportedTaskError(f"no task pattern matches query {query!r}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _sentence(spec: ToyLanguageSpec, rng) -> str:
    template = spec.templates[rng.integers(len(spec.templates))]
    n_slots = template.count("{")
    picks = [spec.content_words[i] for i in rng.integers(0, len(spec.content_words), size=n_slots)]
    return template.format(*picks)


def gen_corpus(spec: ToyLanguageSpec, kind: str, n: int, seed: int):
    """Deterministic corpus generator.

    kind "mono-en" / "mono-x" yield sentence lists; "parallel" yields
    ParallelPair records that satisfy the translation oracle exactly.
    """
    if n < 1:
        raise WorldError("corpus size must be at least 1")
    rng = np.random.default_rng([seed, {"mono-en": 1, "mono-x": 2, "parallel": 3}[kind]])
    if kind == "mono-en":
        return [_sentence(spec, rng) for _ in range(n)]
    if kind == "mono-x":
        return [oracle_translate(spec, _sentence(spec, rng), "en->x") for _ in range(n)]
    pairs = []
    for _ in range(n):
        en = _sentence(spec, rng)
        pairs.append(ParallelPair(en=en, x=oracle_translate(spec, en, "en->x")))
    return pairs


def _query(spec: ToyLanguageSpec, rng, harmful: bool) -> Query:
    family = ("say", "flip", "add", "what")[rng.integers(4)]
    if family == "add" and not harmful:
        a, b = rng.integers(0, MAX_OPERAND + 1, size=2)
        return Query(f"add {a} {b}", False)
    if family == "what" and not harmful:
        keys = sorted(spec.kv_table)
        return Query(f"what {keys[rng.integers(len(keys))]}", False)
    head = family if family in ("say", "flip") else "say"
    n_content = int(rng.integers(1, 5))
    body = [spec.content_words[i] for i in rng.integers(0, len(spec.content_words), size=n_content)]
    if harmful:
        marker = spec.harmful_markers[rng.integers(len(spec.harmful_markers))]
        body[rng.integers(len(body))] = marker
    return Query(f"{head} {' '.join(body)}", harmful)


def gen_query_set(spec: ToyLanguageSpec, n: int, harmful_fraction: float, seed: int) -> list[Query]:
    """Generate n queries with round(n * harmful_fraction) harmful ones,
    deterministically shuffled."""
    if not 0.0 <= harmful_fraction <= 1.0:
        raise WorldError("harmful_fraction must be within [0, 1]")
    if n < 1:
        raise WorldError("query count must be at least 1")
    rng = np.random.default_rng([seed, 4])
    n_harmful = int(np.floor(n * harmful_fraction + 0.5))
    queries = [_query(spec, rng, harmful=True) for _ in range(n_harmful)]
    queries += [_query(spec, rng, harmful=False) for _ in range(n - n_harmful)]
    order = rng.permutation(n)
    return [queries[i] for i in order]


def split_queries(queries: list[Query], valid_fraction: float, seed: int):
    """Disjoint, seed-reproducible train/validation split."""
    rng = np.random.default_rng([seed, 5])
    order = rng.permutation(len(queries))
    n_valid = int(round(len(queries) * valid_fraction))
    valid_idx = set(order[:n_valid].tolist())
    train = [q for i, q in enumerate(queries) if i not in valid_idx]
    valid = [queries[i] for i in order[:n_valid]]
    return train, valid


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------


def save_jsonl(path, rows: list[dict]) -> None:
    with atomic_open(path) as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def load_jsonl(path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def corpus_rows(kind: str, data) -> list[dict]:
    if kind == "parallel":
        return [{"en": p.en, "x": p.x} for p in data]
    return [{"text": s} for s in data]


def query_rows(queries: list[Query]) -> list[dict]:
    return [{"query": q.text, "harmful": q.harmful} for q in queries]


def queries_from_rows(rows: list[dict]) -> list[Query]:
    return [Query(r["query"], bool(r["harmful"])) for r in rows]


def pairs_from_rows(rows: list[dict]) -> list[ParallelPair]:
    return [ParallelPair(r["en"], r["x"]) for r in rows]
