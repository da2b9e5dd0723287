"""Subword vocabulary learning, merging, and encoding with reserved tokens.

The tokenizer is plain byte-pair encoding over the raw character stream
of each line (whitespace is an ordinary symbol, so merges may span word
boundaries and decode is exact concatenation). Reserved tokens such as
⟨EOS⟩ are never produced by merges and never parsed out of raw text;
they are inserted programmatically by id.

Both BPE loops are defined pass by pass: learning merges the most
frequent pair everywhere, then counts again; encoding merges the
lowest-ranked pair everywhere, then looks again. Both run on a linked
list of symbols and touch only the places a merge changes, so their cost
follows the merges made rather than the text length times the passes,
with outputs identical to the per-pass definition.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field

from .atomic import atomic_open

EOS = "⟨EOS⟩"
PAD = "⟨PAD⟩"
RESPONSE = "⟨response⟩"
EN = "⟨EN⟩"
X = "⟨X⟩"

# reserved bracket characters; regular text may never contain them
_RESERVED_CHARS = ("⟨", "⟩")


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
        self._hash: str | None = None

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
        """Apply the merge rules to one text.

        By definition each pass finds the lowest-ranked adjacent pair and
        merges its occurrences left to right, until no pair has a rank.
        Here a min-heap holds (rank, left position) for every pair of a
        linked list of symbols. A pass pops every entry of the lowest
        rank in position order, skips those whose pair has since changed,
        and pushes the pairs it creates only when it ends: a created pair
        may rank below the pass's own, and the definition merges it in
        the next pass, not within this one.
        """
        symbols: list = list(text)
        for ch in symbols:
            if ch not in self.token_to_id:
                raise EncodingError(f"symbol {ch!r} is not in the base alphabet")
        rank = self._rank
        n = len(symbols)
        nxt = list(range(1, n + 1))
        nxt[-1] = -1
        prv = list(range(-1, n - 1))
        heap = [(rank[pair], i) for i, pair in enumerate(zip(symbols, symbols[1:]))
                if pair in rank]
        heapq.heapify(heap)
        while heap:
            r = heap[0][0]
            a, b = self.merges[r]
            changed = set()
            while heap and heap[0][0] == r:
                i = heapq.heappop(heap)[1]
                j = nxt[i]
                if j < 0 or symbols[i] != a or symbols[j] != b:
                    continue
                symbols[i], symbols[j] = a + b, None
                k = nxt[j]
                nxt[i] = k
                if k >= 0:
                    prv[k] = i
                    changed.add(i)
                if prv[i] >= 0:
                    changed.add(prv[i])
            for i in changed:
                created = rank.get((symbols[i], symbols[nxt[i]]))
                if created is not None:
                    heapq.heappush(heap, (created, i))
        return [self.token_to_id[s] for s in symbols if s is not None]

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
    """Content hash of the vocabulary file, computed once per vocabulary
    (a vocabulary is not changed after it is made)."""
    if vocab._hash is None:
        vocab._hash = hashlib.sha256(vocab.dumps().encode("utf-8")).hexdigest()[:16]
    return vocab._hash


# ---------------------------------------------------------------------------
# learning and merging
# ---------------------------------------------------------------------------


def learn_vocab(corpus: list[str], target_size: int, alphabet=None) -> Vocabulary:
    """Learn a vocabulary of at most target_size tokens by greedy BPE.

    The base alphabet is the corpus character set (optionally widened by
    `alphabet`). Each round merges the most frequent adjacent pair;
    frequency ties break to the lexicographically smallest pair, so the
    result is a pure function of (corpus, target_size, alphabet).

    By definition a round rewrites every line left to right and counts
    every pair again. Here the corpus is one symbol list with next/prev
    links (-1 at line ends); the pair counts are kept exact, and each
    pair keeps an append-only array of the left positions where it has
    occurred. A round visits only the best pair's positions, in order,
    skips those that no longer hold the pair, and moves the counts of the
    neighbouring pairs, (prev, a) to (prev, ab) and (b, next) to
    (ab, next). The rewritten symbols and the counts equal the per-round
    definition's after every round, so the merges do too.
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

    symbols: list = []
    nxt, prv = array("i"), array("i")
    for line in corpus:
        if line:
            start = len(symbols)
            symbols.extend(line)
            prv.append(-1)
            prv.extend(range(start, len(symbols) - 1))
            nxt.extend(range(start + 1, len(symbols)))
            nxt.append(-1)
    counts: Counter = Counter()
    where: dict[tuple[str, str], array] = {}

    def add(pair, i):
        counts[pair] += 1
        if pair in where:
            where[pair].append(i)
        else:
            where[pair] = array("i", (i,))

    def remove(pair):
        n = counts[pair] - 1
        if n:
            counts[pair] = n
        else:  # no position holds the pair any more
            del counts[pair]
            del where[pair]

    for i, j in enumerate(nxt):
        if j >= 0:
            add((symbols[i], symbols[j]), i)

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

        for i in sorted(set(where[best])):
            j = nxt[i]
            if j < 0 or symbols[i] != a or symbols[j] != b:
                continue
            p, k = prv[i], nxt[j]
            if p >= 0:
                remove((symbols[p], a))
                add((symbols[p], new_tok), p)
            if k >= 0:
                remove((b, symbols[k]))
                add((new_tok, symbols[k]), i)
                prv[k] = i
            remove(best)
            symbols[i], symbols[j] = new_tok, None
            nxt[i] = k

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
