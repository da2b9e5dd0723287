"""Subword vocabulary learning, merging, and encoding with reserved tokens.

The tokenizer is plain byte-pair encoding over the raw character stream
of each line (whitespace is an ordinary symbol, so merges may span word
boundaries and decode is exact concatenation). Reserved tokens such as
⟨EOS⟩ are never produced by merges and never parsed out of raw text;
they are inserted programmatically by id.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

from .atomic import atomic_open

EOS = "⟨EOS⟩"
PAD = "⟨PAD⟩"
RESPONSE = "⟨response⟩"
EN = "⟨EN⟩"

# reserved bracket characters; regular text may never contain them
_RESERVED_CHARS = ("⟨", "⟩")


def lang_token(name: str) -> str:
    """Language-ID token surface for a language name, e.g. "X" -> ⟨X⟩."""
    return f"⟨{name}⟩"


class TokenizerError(ValueError):
    pass


class EncodingError(TokenizerError):
    pass


class DecodingError(TokenizerError):
    pass


class SpecialTokenConflict(TokenizerError):
    pass


@dataclass
class Vocabulary:
    """Token table plus ordered merge rules and reserved-token registry.

    id_to_token and token_to_id are exact inverses; ids are dense
    0..size-1; reserved tokens sit at the top of the id range.
    """

    id_to_token: list[str]
    merges: list[tuple[str, str]]
    specials: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("duplicate token surfaces in vocabulary")
        self._rank = {pair: i for i, pair in enumerate(self.merges)}
        self._cache: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def special_id(self, surface: str) -> int:
        try:
            return self.specials[surface]
        except KeyError:
            raise TokenizerError(f"vocabulary has no reserved token {surface!r}") from None

    @property
    def pad_id(self) -> int:
        return self.special_id(PAD)

    @property
    def eos_id(self) -> int:
        return self.special_id(EOS)

    # -- encode / decode ----------------------------------------------------

    def encode(self, text: str) -> list[int]:
        if text == "":
            return []
        for ch in _RESERVED_CHARS:
            if ch in text:
                raise EncodingError(
                    "reserved bracket characters may not appear in raw text; "
                    "reserved tokens are inserted by id, not parsed from text"
                )
        cached = self._cache.get(text)
        if cached is None:
            cached = tuple(self._bpe(text))
            if len(self._cache) < 65536:
                self._cache[text] = cached
        return list(cached)

    def _bpe(self, text: str) -> list[int]:
        symbols = list(text)
        for ch in symbols:
            if ch not in self.token_to_id:
                raise EncodingError(f"symbol {ch!r} is not in the base alphabet")
        while len(symbols) > 1:
            best_rank = None
            for pair in zip(symbols, symbols[1:]):
                r = self._rank.get(pair)
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank = r
            if best_rank is None:
                break
            a, b = self.merges[best_rank]
            merged = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
                    merged.append(a + b)
                    i += 2
                else:
                    merged.append(symbols[i])
                    i += 1
            symbols = merged
        return [self.token_to_id[s] for s in symbols]

    def decode(self, ids) -> str:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_token):
                raise DecodingError(f"token id {i} out of range 0..{len(self.id_to_token) - 1}")
            out.append(self.id_to_token[i])
        return "".join(out)

    # -- persistence ---------------------------------------------------------

    def dumps(self) -> str:
        """Stable line-oriented text format: tokens in id order, then merge
        rules, then reserved tokens. Each payload line is one JSON value so
        surfaces containing spaces survive."""
        lines = ["#langlift-vocab-v1"]
        lines += [json.dumps(t, ensure_ascii=False) for t in self.id_to_token]
        lines.append("#merges")
        lines += [json.dumps(list(m), ensure_ascii=False) for m in self.merges]
        lines.append("#specials")
        lines += [json.dumps([s, i], ensure_ascii=False) for s, i in sorted(self.specials.items(), key=lambda kv: kv[1])]
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Vocabulary":
        lines = text.splitlines()
        if not lines or lines[0] != "#langlift-vocab-v1":
            raise TokenizerError("not a langlift vocabulary file")
        tokens: list[str] = []
        merges: list[tuple[str, str]] = []
        specials: dict[str, int] = {}
        section = "tokens"
        for line in lines[1:]:
            if line == "#merges":
                section = "merges"
            elif line == "#specials":
                section = "specials"
            elif section == "tokens":
                tokens.append(json.loads(line))
            elif section == "merges":
                a, b = json.loads(line)
                merges.append((a, b))
            else:
                s, i = json.loads(line)
                specials[s] = int(i)
        return cls(tokens, merges, specials)

    def save(self, path) -> None:
        with atomic_open(path) as f:
            f.write(self.dumps())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            return cls.loads(f.read())


def vocab_hash(vocab: Vocabulary) -> str:
    return hashlib.sha256(vocab.dumps().encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# learning and merging
# ---------------------------------------------------------------------------


def learn_vocab(corpus: list[str], target_size: int, alphabet=None) -> Vocabulary:
    """Learn a vocabulary of at most target_size tokens by greedy BPE.

    The base alphabet is the corpus character set (optionally widened by
    `alphabet`). Each round merges the most frequent adjacent pair;
    frequency ties break to the lexicographically smallest pair, so the
    result is a pure function of (corpus, target_size, alphabet).
    """
    if not corpus:
        raise TokenizerError("cannot learn a vocabulary from an empty corpus")
    chars = set()
    for line in corpus:
        chars.update(line)
    if alphabet is not None:
        chars.update(alphabet)
    for ch in _RESERVED_CHARS:
        if ch in chars:
            raise TokenizerError("corpus contains reserved bracket characters")
    base = sorted(chars)
    if target_size < len(base):
        raise TokenizerError(
            f"target_size {target_size} is below the alphabet size {len(base)}"
        )

    tokens = list(base)
    seen = set(tokens)
    merges: list[tuple[str, str]] = []

    lines = [list(line) for line in corpus if line]
    counts: Counter = Counter()
    for line in lines:
        counts.update(zip(line, line[1:]))
    holders: dict[tuple[str, str], set[int]] = {}
    for idx, line in enumerate(lines):
        for pair in zip(line, line[1:]):
            holders.setdefault(pair, set()).add(idx)

    while len(tokens) < target_size:
        best = None
        best_count = 0
        for pair, n in counts.items():
            if n > best_count or (n == best_count and best is not None and pair < best):
                best, best_count = pair, n
        if best is None or best_count < 1:
            break
        a, b = best
        new_tok = a + b
        merges.append(best)
        if new_tok not in seen:
            tokens.append(new_tok)
            seen.add(new_tok)

        for idx in list(holders.get(best, ())):
            line = lines[idx]
            # subtract the line's old pairs, rewrite, add the new ones
            for pair in zip(line, line[1:]):
                counts[pair] -= 1
                if counts[pair] == 0:
                    del counts[pair]
                hs = holders.get(pair)
                if hs is not None:
                    hs.discard(idx)
                    if not hs:
                        del holders[pair]
            rewritten = []
            i = 0
            while i < len(line):
                if i + 1 < len(line) and line[i] == a and line[i + 1] == b:
                    rewritten.append(new_tok)
                    i += 2
                else:
                    rewritten.append(line[i])
                    i += 1
            lines[idx] = rewritten
            for pair in zip(rewritten, rewritten[1:]):
                counts[pair] += 1
                holders.setdefault(pair, set()).add(idx)

    return Vocabulary(tokens, merges, {})


def merge_vocab(original: Vocabulary, learned: Vocabulary, specials: list[str]) -> Vocabulary:
    """Extend `original` with the novel tokens of `learned`, then reserve
    `specials` at the top of the id range.

    Every existing id is preserved; reserved tokens already present keep
    their ids; a special surface colliding with a regular token is an
    error.
    """
    tokens = list(original.id_to_token)
    known = set(tokens)
    for t in learned.id_to_token:
        if t not in known and t not in learned.specials:
            tokens.append(t)
            known.add(t)

    merges = list(original.merges)
    merge_set = set(merges)
    for m in learned.merges:
        if m not in merge_set:
            merges.append(m)
            merge_set.add(m)

    new_specials = dict(original.specials)
    for s in specials:
        if s in new_specials:
            continue
        if s in known:
            raise SpecialTokenConflict(f"special token {s!r} collides with an existing regular token")
        tokens.append(s)
        known.add(s)
        new_specials[s] = len(tokens) - 1

    merged = Vocabulary(tokens, merges, new_specials)
    for a, b in merges:
        if a + b in new_specials:
            raise SpecialTokenConflict(f"merge rule would produce reserved token {a + b!r}")
    return merged
