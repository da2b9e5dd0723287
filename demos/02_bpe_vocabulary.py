"""Learning a subword vocabulary, extending it, and the reserved tokens.

Shows the greedy pair merges on a tiny corpus, the id-stable merge that
adds target-language tokens on top, and why raw text can never produce
a reserved token id.
"""
from langlift import tokenizer as tok

# %% greedy merges on a toy corpus
corpus = ["the cat sat", "the cat ran", "a cat sat"]
vocab = tok.learn_vocab(corpus, target_size=20)
print("alphabet + merged tokens:")
for i, t in enumerate(vocab.id_to_token):
    print(f"  {i:3d} {t!r}")
print("merge rules in priority order:", vocab.merges)

# %% encoding applies the merges; decoding is exact concatenation
ids = vocab.encode("the cat sat")
print("\nencode('the cat sat') ->", ids)
print("decode back ->", repr(vocab.decode(ids)))

# %% extension: existing ids stay put, new tokens and specials append
base = tok.merge_vocab(vocab, tok.Vocabulary([], []), [tok.EOS, tok.PAD, tok.RESPONSE])
target = tok.learn_vocab(["KOTU MA", "MA KOTU"], target_size=12)
full = tok.merge_vocab(base, target, [tok.EN, tok.X])
print(f"\nbase size {len(base)} -> merged size {len(full)}")
print("'the cat sat' under both vocabularies:",
      base.encode("the cat sat") == full.encode("the cat sat"))
print("reserved ids:", full.specials)

# %% reserved surfaces in raw text are rejected, not silently encoded
try:
    full.encode("the ⟨EOS⟩ cat")
except tok.EncodingError as e:
    print("\nencoding '⟨EOS⟩' as text:", e)
