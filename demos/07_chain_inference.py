"""Prompt rendering, greedy decoding, and chain parsing.

Uses a rigged scorer in place of a trained model so the full inference
path (template bytes, structural mode routing, source-language-only
history assembly) is visible without a training run.
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import build_toy_world

from langlift import inference as inf
from langlift import model as md
from langlift import tokenizer as tok

toy = build_toy_world(seed=4, n_words=40, n_mono=150, n_pairs=20)
vocab = toy.vocab

w1, w2 = toy.spec.content_words[:2]

# %% the exact prompt bytes for a two-turn conversation
history = inf.ConversationHistory(
    turns=[(f"say {w1}", w1)], pending=toy.translate(f"flip {w1} {w2}"))
print(inf.render_template_text(history))

# %% rig a model to emit a fixed chain and decode it greedily
q_en = f"flip {w1} {w2}"
a_en = toy.teacher.answer(q_en)
a_x = toy.translate(a_en)
script = ([vocab.special_id(tok.EN)] + vocab.encode(q_en)
          + [vocab.special_id(tok.RESPONSE)] + vocab.encode(a_en)
          + [vocab.special_id("⟨X⟩")] + vocab.encode(a_x) + [vocab.eos_id])

config = md.ModelConfig(vocab_size=len(vocab), n_layers=1, d_model=16, n_heads=2,
                        d_ff=32, max_seq_len=192, lora_rank=1, lora_alpha=1.0,
                        lora_dropout=0.0)
bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=0))

prompt = inf.render_template(inf.ConversationHistory(pending=toy.translate(q_en)), vocab)
real_forward = inf.forward
calls = []


def scripted_forward(ids, weights, adapters=None, **kw):
    # the n-th call emits script[n]: decoding passes the prompt, then one token a call
    logits = np.zeros((len(ids), len(vocab)), dtype=np.float32)
    logits[-1, script[min(len(calls), len(script) - 1)]] = 10.0
    calls.append(len(ids))
    return md.ForwardResult(logits=md.nc.Tensor(logits), hidden=None, attention=[])


inf.forward = scripted_forward
out = inf.greedy_decode(bundle, prompt, max_new=64, eos_id=vocab.eos_id)
inf.forward = real_forward
print(f"{len(calls)} forward calls ran {sum(calls)} positions: the {len(prompt)} prompt "
      f"tokens and each of the {len(out)} generated ones but the last")

# %% structural parsing: the first reserved token routes the mode
parse = inf.parse_tcot(out, vocab)
print("mode:", parse.mode)
print("q_en:", repr(vocab.decode(parse.q_en)))
print("a_en:", repr(vocab.decode(parse.a_en)))
print("a_x: ", repr(vocab.decode(parse.a_x)))

# %% multi-turn: only the source-language portions become history
next_history = inf.build_multiturn_input([parse], toy.translate(f"say {w2}"), vocab)
print("\nhistory for the next turn:", next_history.turns)
print("pending:", next_history.pending)

# %% malformed outputs are reported, never silently repaired
try:
    inf.parse_tcot([vocab.special_id(tok.EN)] + vocab.encode("q"), vocab)
except inf.ParseError as e:
    print("\nmalformed chain:", e)
