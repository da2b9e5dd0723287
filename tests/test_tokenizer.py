from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlift import tokenizer as tok

# ---------------------------------------------------------------------------
# reference oracles: the per-pass BPE loops the tokenizer is defined by
# ---------------------------------------------------------------------------


def reference_learn_vocab(corpus: list[str], target_size: int, alphabet=None) -> tok.Vocabulary:
    """The per-round definition of tok.learn_vocab: every round rewrites each
    line holding the best pair and counts its pairs again.

    Learn a vocabulary of at most target_size tokens by greedy BPE.

    The base alphabet is the corpus character set (optionally widened by
    `alphabet`). Each round merges the most frequent adjacent pair;
    frequency ties break to the lexicographically smallest pair, so the
    result is a pure function of (corpus, target_size, alphabet).
    """
    if not corpus:
        raise tok.TokenizerError("cannot learn a vocabulary from an empty corpus")
    chars = set()
    for line in corpus:
        chars.update(line)
    if alphabet is not None:
        chars.update(alphabet)
    for ch in tok._RESERVED_CHARS:
        if ch in chars:
            raise tok.TokenizerError("corpus contains reserved bracket characters")
    base = sorted(chars)
    if target_size < len(base):
        raise tok.TokenizerError(
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

    return tok.Vocabulary(tokens, merges, {})


def reference_bpe(vocab: tok.Vocabulary, text: str) -> list[int]:
    """The per-pass definition of Vocabulary._bpe: every pass scans all
    pairs for the lowest rank and rewrites the whole text."""
    symbols = list(text)
    for ch in symbols:
        if ch not in vocab.token_to_id:
            raise tok.EncodingError(f"symbol {ch!r} is not in the base alphabet")
    while len(symbols) > 1:
        best_rank = None
        for pair in zip(symbols, symbols[1:]):
            r = vocab._rank.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
        if best_rank is None:
            break
        a, b = vocab.merges[best_rank]
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
    return [vocab.token_to_id[s] for s in symbols]


def test_learn_vocab_abab_merges():
    v = tok.learn_vocab(["abab"], target_size=4)
    assert v.merges[:2] == [("a", "b"), ("ab", "ab")]
    assert "abab" in v.token_to_id


def test_learn_vocab_zero_budget():
    v = tok.learn_vocab(["abc abc"], target_size=4)  # alphabet is {a,b,c,space}
    assert v.merges == []
    assert len(v) == 4


def test_learn_vocab_deterministic():
    corpus = ["the cat sat", "the dog sat", "cat and dog"]
    v1 = tok.learn_vocab(corpus, target_size=30)
    v2 = tok.learn_vocab(corpus, target_size=30)
    assert v1.id_to_token == v2.id_to_token
    assert v1.merges == v2.merges


def test_learn_vocab_empty_corpus():
    with pytest.raises(tok.TokenizerError):
        tok.learn_vocab([], target_size=10)


def test_learn_vocab_budget_below_alphabet():
    with pytest.raises(tok.TokenizerError):
        tok.learn_vocab(["abcdef"], target_size=3)


def test_merge_vocab_self_merge_adds_only_specials():
    v = tok.learn_vocab(["abab"], target_size=4)
    merged = tok.merge_vocab(v, v, [tok.EOS, tok.PAD, tok.RESPONSE])
    assert len(merged) == len(v) + 3
    for t, i in v.token_to_id.items():
        assert merged.token_to_id[t] == i


def test_merge_vocab_set_union():
    original = tok.Vocabulary(["a", "b"], [])
    learned = tok.Vocabulary(["b", "c"], [])
    merged = tok.merge_vocab(original, learned, [tok.X])
    assert len(merged) == 4
    assert merged.token_to_id["a"] == 0
    assert merged.token_to_id["b"] == 1
    assert merged.token_to_id["c"] == 2
    assert merged.special_id("⟨X⟩") == 3


def test_merge_vocab_special_collision():
    original = tok.Vocabulary(["a", "⟨EOS⟩"], [])
    with pytest.raises(tok.SpecialTokenConflict):
        tok.merge_vocab(original, tok.Vocabulary(["a"], []), [tok.EOS])


def test_merge_vocab_keeps_existing_special_ids():
    base = tok.merge_vocab(tok.Vocabulary(["a", "b"], []), tok.Vocabulary(["a"], []), [tok.EOS])
    eos_id = base.special_id(tok.EOS)
    bigger = tok.merge_vocab(base, tok.Vocabulary(["c"], []), [tok.EOS, tok.PAD])
    assert bigger.special_id(tok.EOS) == eos_id
    assert bigger.special_id(tok.PAD) == len(bigger) - 1


def test_encode_empty():
    v = tok.learn_vocab(["ab"], target_size=3)
    assert v.encode("") == []


def test_encode_applies_merges():
    v = tok.learn_vocab(["abab"], target_size=4)
    ids = v.encode("abab")
    assert ids == [v.token_to_id["abab"]]


def test_encode_rejects_special_literal():
    v = tok.merge_vocab(tok.learn_vocab(["ab"], target_size=3), tok.Vocabulary(["a"], []), [tok.EOS])
    with pytest.raises(tok.EncodingError):
        v.encode("a⟨EOS⟩b")


def test_encode_unknown_symbol():
    v = tok.learn_vocab(["ab"], target_size=3)
    with pytest.raises(tok.EncodingError):
        v.encode("abz")


def test_decode_special_renders_canonically():
    v = tok.merge_vocab(tok.learn_vocab(["ab"], target_size=3), tok.Vocabulary(["a"], []), [tok.EOS])
    assert v.decode([v.eos_id]) == "⟨EOS⟩"
    assert v.decode([]) == ""


def test_decode_out_of_range():
    v = tok.learn_vocab(["ab"], target_size=3)
    with pytest.raises(tok.DecodingError):
        v.decode([99])


def test_round_trip_corpus_lines():
    rng = np.random.default_rng(5)
    words = ["tomo", "keri", "suna", "va", "blen", "ora"]
    corpus = [" ".join(rng.choice(words, size=rng.integers(1, 7))) for _ in range(100)]
    v = tok.learn_vocab(corpus, target_size=80)
    for line in corpus:
        assert v.decode(v.encode(line)) == line


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="abcd ", max_size=40))
def test_round_trip_property(text):
    v = tok.learn_vocab(["abcd dcba abab c d"], target_size=12)
    assert v.decode(v.encode(text)) == text


def test_no_regular_text_encodes_to_special():
    v = tok.merge_vocab(
        tok.learn_vocab(["abab baba"], target_size=10),
        tok.Vocabulary(["a"], []),
        [tok.EOS, tok.PAD],
    )
    special_ids = set(v.specials.values())
    rng = np.random.default_rng(0)
    for _ in range(50):
        text = "".join(rng.choice(list("ab "), size=rng.integers(0, 20)))
        assert not set(v.encode(text)) & special_ids


def test_vocab_file_round_trip(tmp_path):
    v = tok.merge_vocab(
        tok.learn_vocab(["ab ba abab"], target_size=9),
        tok.Vocabulary(["q"], []),
        [tok.EOS, tok.PAD, tok.RESPONSE],
    )
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = tok.Vocabulary.load(path)
    assert loaded.id_to_token == v.id_to_token
    assert loaded.merges == v.merges
    assert loaded.specials == v.specials
    assert tok.vocab_hash(loaded) == tok.vocab_hash(v)


def test_id_stability_under_merge():
    corpus = ["melo pira melo", "pira gusa"]
    original = tok.merge_vocab(tok.learn_vocab(corpus, target_size=25), tok.Vocabulary(["m"], []), [tok.EOS])
    learned = tok.learn_vocab(["zuko muno zuko"], target_size=20)
    merged = tok.merge_vocab(original, learned, [tok.X])
    for t, i in original.token_to_id.items():
        assert merged.token_to_id[t] == i
    # old text still encodes to the same ids
    assert merged.encode("melo pira") == original.encode("melo pira")


# ---------------------------------------------------------------------------
# the tokenizer's loops against the per-pass oracles
# ---------------------------------------------------------------------------


def _same_encoding(vocab: tok.Vocabulary, text: str) -> None:
    try:
        expected = reference_bpe(vocab, text)
    except tok.EncodingError:
        with pytest.raises(tok.EncodingError):
            vocab.encode(text)
    else:
        assert vocab.encode(text) == expected


@settings(max_examples=300, deadline=None)
@given(alphabet=st.sampled_from(["aab ", "ab", "abc ", "aaab"]), data=st.data())
def test_learn_vocab_matches_per_round_definition(alphabet, data):
    corpus = data.draw(st.lists(st.text(alphabet=alphabet, max_size=30), min_size=1, max_size=8))
    widen = data.draw(st.sampled_from([None, "z"]))
    n_chars = len(set("".join(corpus)) | set(widen or ""))
    target = n_chars + data.draw(st.integers(0, 40))
    got = tok.learn_vocab(corpus, target, alphabet=widen)
    want = reference_learn_vocab(corpus, target, alphabet=widen)
    assert got.id_to_token == want.id_to_token
    assert got.merges == want.merges


_surfaces = st.text(alphabet="ab", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(merges=st.lists(st.tuples(_surfaces, _surfaces), max_size=12),
       texts=st.lists(st.text(alphabet="ab", max_size=24), min_size=1, max_size=6))
def test_encode_matches_per_pass_definition_on_any_merge_table(merges, texts):
    # tables a learner would never write: any order, repeats, rank inversions
    tokens = list(dict.fromkeys(["a", "b"] + [a + b for a, b in merges]))
    vocab = tok.Vocabulary(tokens, merges)
    for text in texts + [texts[0] + "c"]:  # "c" is outside the alphabet
        _same_encoding(vocab, text)


@settings(max_examples=100, deadline=None)
@given(corpora=st.lists(st.lists(st.text(alphabet="aab ", min_size=1, max_size=20),
                                 min_size=1, max_size=5), min_size=2, max_size=3),
       extra=st.integers(0, 25), text=st.text(alphabet="ab ", max_size=40))
def test_encode_matches_per_pass_definition_on_merged_vocabularies(corpora, extra, text):
    vocab = tok.Vocabulary([], [])
    for corpus in corpora:
        learned = tok.learn_vocab(corpus, 3 + extra, alphabet="ab ")
        vocab = tok.merge_vocab(vocab, learned, [tok.EOS])
    _same_encoding(vocab, text)


def test_encode_defers_pairs_a_pass_creates():
    # the ("a","b") pass creates ("ab","a"), which ranks lower; the
    # definition merges it only in the next pass, by when it is gone
    vocab = tok.Vocabulary(["a", "b", "ab", "aba"], [("ab", "a"), ("a", "b")])
    assert reference_bpe(vocab, "abab") == [2, 2]
    assert vocab.encode("abab") == [2, 2]


def test_toy_vocabulary_matches_per_pass_definition(toy):
    corpus = toy.x_mono
    got = tok.learn_vocab(corpus, 150)
    want = reference_learn_vocab(corpus, 150)
    assert (got.id_to_token, got.merges) == (want.id_to_token, want.merges)
    for line in toy.en_mono[:100] + toy.x_mono[:100]:
        assert toy.vocab.encode(line) == reference_bpe(toy.vocab, line)
