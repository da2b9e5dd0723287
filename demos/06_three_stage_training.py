"""The staged training loop at miniature scale.

Runs a few steps of each stage on a throwaway configuration to show the
mechanics: frozen base under adapters, the learning-rate shape, exact
resume from a checkpoint, and the stage-boundary merge that approximates
full-parameter training.
"""
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import build_toy_world

from langlift import datapipe as dp
from langlift import model as md
from langlift import trainer as tr
from langlift import world as wd

toy = build_toy_world(seed=9, n_words=40, n_mono=200, n_pairs=40)
vocab = toy.vocab

config = md.ModelConfig(vocab_size=len(vocab), n_layers=2, d_model=32, n_heads=2,
                        d_ff=64, max_seq_len=96, lora_rank=4, lora_alpha=8.0,
                        lora_dropout=0.0)
bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=0))
md.attach_adapters(bundle, seed=1)

# %% stage 1: target-language documents, packed to fixed windows
docs = dp.build_cpt(toy.x_mono, vocab)
packed = dp.pack_and_mix(docs, pad_id=vocab.pad_id, seed=0, kind="target-cpt",
                         max_len=48, batch_size=8, eos_id=vocab.eos_id)
stage1 = tr.StageConfig(stage="target-cpt", peak_lr=2e-3, warmup_ratio=0.1,
                        max_epochs=1, max_steps=12, batch_size=8, seed=0)
metrics, _ = tr.train_stage(bundle, packed, stage1)
print("stage-1 lr curve:", [round(m["lr"], 5) for m in metrics[:6]], "...")
print(f"stage-1 loss {metrics[0]['train_loss']:.3f} -> {metrics[-1]['train_loss']:.3f}")

# %% the base projections never moved; the adapters did
print("adapter up-projection now nonzero:", bool(np.any(bundle.adapters[0]["wq"].up.data)))

# %% stage 2: two-direction translation instances with replay documents
tcpt = dp.build_translation_cpt(toy.pairs, toy.en_mono[:30], vocab, seed=0)
packed2 = dp.pack_and_mix(tcpt, pad_id=vocab.pad_id, seed=0, kind="translation-cpt",
                          max_len=48, batch_size=8, eos_id=vocab.eos_id)
stage2 = tr.StageConfig(stage="translation-cpt", peak_lr=2e-3, max_epochs=1,
                        max_steps=8, batch_size=8, seed=0)
metrics, _ = tr.train_stage(bundle, packed2, stage2)
print(f"stage-2 loss {metrics[0]['train_loss']:.3f} -> {metrics[-1]['train_loss']:.3f}")

# %% checkpoint, resume, and bit-equality of the resumed run
queries = wd.gen_query_set(toy.spec, 16, harmful_fraction=0.0, seed=2)
rkd = dp.build_rkd(queries, toy.teacher, vocab)
packed3 = dp.pack_and_mix(rkd, pad_id=vocab.pad_id, seed=0, kind="transform-sft",
                          max_len=96, batch_size=8)
stage3 = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, weight_decay=0.1,
                        max_epochs=2, batch_size=4, seed=0)

# one run straight through its 8 steps, checkpointed after step 3, and the
# same run continued from that checkpoint
straight = md.clone_bundle(bundle)
opt = tr.AdamW()
with tempfile.TemporaryDirectory() as tmp:
    def checkpoint_after_step_3(entry):
        if entry["step"] == 2:
            tr.save_checkpoint(straight, opt, tmp + "/ck", step=3, stage="transform-sft")

    m_straight, _ = tr.train_stage(straight, packed3, stage3, optimizer=opt,
                                   log=checkpoint_after_step_3)
    loaded, opt2, meta = tr.load_checkpoint(tmp + "/ck")
m_rest, _ = tr.train_stage(loaded, packed3, stage3, optimizer=opt2, start_step=meta["step"])
print(f"\nresumed at step {meta['step']} of {len(m_straight)}, trained {len(m_rest)} more")
print("resume reproduces the uninterrupted run:",
      [m["train_loss"] for m in m_straight[meta["step"]:]] == [m["train_loss"] for m in m_rest]
      and all(np.array_equal(a.data, b.data) for (_, a), (_, b)
              in zip(straight.named_parameters(), loaded.named_parameters())))

# %% folding adapters at a stage boundary (full-parameter approximation)
before = md.forward([1, 2, 3], straight.weights, straight.adapters).logits.data
tr.approx_full_ft(straight, seed=3)
after = md.forward([1, 2, 3], straight.weights, straight.adapters).logits.data
print("stage-boundary merge kept the function:",
      float(np.abs(after - before).max() / np.abs(before).max()) < 1e-5)
