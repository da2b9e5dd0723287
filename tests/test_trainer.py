from dataclasses import replace

import numpy as np
import pytest

from langlift import datapipe as dp
from langlift import model as md
from langlift import numcore as nc
from langlift import trainer as tr
from langlift import world as wd


def small_bundle(vocab_size, with_adapters=True, seed=1, **kw):
    base = dict(vocab_size=vocab_size, n_layers=2, d_model=32, n_heads=2, d_ff=64,
                max_seq_len=96, lora_rank=4, lora_alpha=8.0, lora_dropout=0.0)
    base.update(kw)
    config = md.ModelConfig(**base)
    bundle = md.ModelBundle(config=config, weights=md.init_weights(config, seed=seed))
    if with_adapters:
        md.attach_adapters(bundle, seed=seed + 1)
    return bundle


@pytest.fixture(scope="module")
def sft16(toy):
    queries = wd.gen_query_set(toy.spec, 16, harmful_fraction=0.0, seed=31)
    records = dp.build_rkd(queries, toy.teacher, toy.vocab)
    return dp.pack_and_mix(records, pad_id=toy.vocab.pad_id, seed=1, kind="transform-sft",
                           max_len=96, batch_size=8)


def test_overfit_small_sft(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-2, warmup_ratio=0.05,
                            max_epochs=100, max_steps=200, cosine_horizon_epochs=100,
                            batch_size=8, seed=0, valid_every=1000)
    metrics, _ = tr.train_stage(bundle, sft16, config)
    assert len(metrics) == 200
    assert metrics[-1]["train_loss"] < 0.05


def test_frozen_base_contract(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    before = {n: t.data.copy() for n, t in bundle.weights.base_matrices()}
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, max_epochs=1,
                            max_steps=5, batch_size=4, seed=0)
    tr.train_stage(bundle, sft16, config)
    for n, t in bundle.weights.base_matrices():
        assert np.array_equal(before[n], t.data), n


def test_adapter_training_changes_only_embeddings_and_head(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    before = {n: t.data.copy() for n, t in bundle.weights.named()}
    config = tr.StageConfig(stage="transform-sft", peak_lr=3e-3, max_epochs=1,
                            max_steps=4, batch_size=4, seed=0)
    tr.train_stage(bundle, sft16, config)
    changed = {n for n, t in bundle.weights.named() if not np.array_equal(before[n], t.data)}
    assert changed == {"embed", "head"}


def test_zero_steps_no_change(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    before = {n: t.data.copy() for n, t in bundle.named_parameters()}
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, max_steps=0, seed=0)
    metrics, _ = tr.train_stage(bundle, sft16, config)
    assert metrics == []
    for n, t in bundle.named_parameters():
        assert np.array_equal(before[n], t.data)


def test_stage_data_mismatch(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    config = tr.StageConfig(stage="target-cpt", peak_lr=1e-3, seed=0)
    with pytest.raises(tr.TrainerError):
        tr.train_stage(bundle, sft16, config)


def test_lora_toggle_contract(toy, sft16):
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, max_steps=1, seed=0)
    with pytest.raises(tr.TrainerError):
        tr.train_stage(small_bundle(len(toy.vocab), with_adapters=False), sft16, config)
    with pytest.raises(tr.TrainerError):
        tr.train_stage(small_bundle(len(toy.vocab)), sft16, config,
                       toggles=tr.AblationToggles(use_lora=False))


def test_full_parameter_training_changes_base(toy, sft16):
    bundle = small_bundle(len(toy.vocab), with_adapters=False)
    before = {n: t.data.copy() for n, t in bundle.weights.base_matrices()}
    config = tr.StageConfig(stage="transform-sft", peak_lr=3e-3, max_epochs=1,
                            max_steps=5, batch_size=4, seed=0)
    tr.train_stage(bundle, sft16, config, toggles=tr.AblationToggles(use_lora=False))
    changed = sum(0 if np.array_equal(before[n], t.data) else 1
                  for n, t in bundle.weights.base_matrices())
    assert changed > 0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validation_pure_and_matches_per_record_oracle(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    examples = sft16.examples[:6]
    v1 = tr.evaluate_validation(bundle, examples)
    v2 = tr.evaluate_validation(bundle, examples)
    assert v1 == v2
    per_record = [tr.example_loss(bundle, ex).item() for ex in examples]
    assert abs(v1 - np.mean(per_record)) < 1e-12


def test_validation_rigged_certainty(toy):
    # logits forced to put probability ~1 on every target -> loss ~0
    ex = dp.TrainExample(ids=np.array([1, 2, 3], dtype=np.int32),
                         loss_mask=np.array([False, True, True]))
    bundle = small_bundle(len(toy.vocab))

    class Rigged:
        def __call__(self, ids, weights, adapters=None, **kw):
            logits = np.full((len(ids), len(toy.vocab)), -30.0, dtype=np.float32)
            for t in range(len(ids) - 1):
                logits[t, [2, 3, 0][t]] = 30.0
            logits[-1, 0] = 30.0
            return md.ForwardResult(logits=md.nc.Tensor(logits), hidden=None, attention=[])

    orig = tr.forward
    tr.forward = Rigged()
    try:
        assert tr.evaluate_validation(bundle, [ex]) < 1e-6
    finally:
        tr.forward = orig


def test_validation_empty_rejected(toy):
    with pytest.raises(tr.TrainerError):
        tr.evaluate_validation(small_bundle(len(toy.vocab)), [])


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_shape():
    config = tr.StageConfig(stage="target-cpt", peak_lr=1.0, warmup_ratio=0.1,
                            max_epochs=1, seed=0)
    total = 100
    lrs = [tr.lr_at(s, total, config) for s in range(total)]
    assert lrs[0] == 0.0
    warmup = 10
    assert abs(lrs[warmup] - 1.0) < 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))
    assert lrs[-1] < 0.05


def test_lr_horizon_knob():
    near = tr.StageConfig(stage="target-cpt", peak_lr=1.0, warmup_ratio=0.0,
                          max_epochs=1, seed=0)
    far = tr.StageConfig(stage="target-cpt", peak_lr=1.0, warmup_ratio=0.0,
                         max_epochs=1, cosine_horizon_epochs=100, seed=0)
    # with a distant horizon the end-of-run lr barely decays
    assert tr.lr_at(99, 100, near) < 0.01
    assert tr.lr_at(99, 100, far) > 0.9


def test_padding_width_does_not_change_training(toy):
    queries = wd.gen_query_set(toy.spec, 16, harmful_fraction=0.0, seed=31)
    records = dp.build_rkd(queries, toy.teacher, toy.vocab)
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, max_epochs=1,
                            max_steps=2, batch_size=8, seed=0)
    runs = []
    for width in (8, 4):
        bundle = small_bundle(len(toy.vocab))
        # records are padded to the longest of each pack batch; pads sit
        # after the last target, so training never sees them
        packed = dp.pack_and_mix(records, pad_id=toy.vocab.pad_id, seed=1,
                                 kind="transform-sft", max_len=96, batch_size=width)
        metrics, _ = tr.train_stage(bundle, packed, config)
        runs.append((metrics, {n: t.data.copy() for n, t in bundle.named_parameters()}))
    (m1, p1), (m2, p2) = runs
    assert [m["train_loss"] for m in m1] == [m["train_loss"] for m in m2]
    for n in p1:
        assert np.array_equal(p1[n], p2[n]), n


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------

def test_checkpoint_resume_equivalence(tmp_path, toy, sft16):
    # 16 records in steps of 4 over 2 epochs: an 8-step plan, resumed
    # after step 5, inside the second epoch
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, weight_decay=0.3,
                            max_epochs=2, batch_size=4, seed=3)
    k = 5
    path = str(tmp_path / "ck")
    straight = small_bundle(len(toy.vocab))
    optimizer = tr.AdamW()

    def checkpoint_after_step_k(entry):
        if entry["step"] == k - 1:
            tr.save_checkpoint(straight, optimizer, path, step=k, stage=config.stage)

    m_straight, _ = tr.train_stage(straight, sft16, config, optimizer=optimizer,
                                   log=checkpoint_after_step_k)
    loaded, opt2, meta = tr.load_checkpoint(path)
    m_resumed, _ = tr.train_stage(loaded, sft16, config, optimizer=opt2,
                                  start_step=meta["step"])

    assert len(m_straight) == 8 and meta["step"] == k
    assert [m["step"] for m in m_resumed] == list(range(k, 8))
    assert [m["train_loss"] for m in m_straight[k:]] == [m["train_loss"] for m in m_resumed]
    for (n1, t1), (n2, t2) in zip(straight.named_parameters(), loaded.named_parameters()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data), n1
    # the weight decay acted, so the resumed run kept it
    undecayed = small_bundle(len(toy.vocab))
    tr.train_stage(undecayed, sft16, replace(config, weight_decay=0.0), optimizer=tr.AdamW())
    assert not all(np.array_equal(t1.data, t2.data) for (_, t1), (_, t2)
                   in zip(straight.named_parameters(), undecayed.named_parameters()))


def test_resume_with_best_selection_is_refused(toy, sft16):
    # the best state seen before the resume point is not in a checkpoint
    config = tr.StageConfig(stage="transform-sft", max_epochs=1, batch_size=2,
                            valid_every=1, seed=0)
    with pytest.raises(tr.TrainerError, match="best"):
        tr.train_stage(small_bundle(len(toy.vocab)), sft16, config,
                       valid_examples=sft16.examples[:2], select_best=True, start_step=4)


def test_checkpoint_vocab_hash_guard(tmp_path, toy):
    bundle = small_bundle(len(toy.vocab))
    bundle.vocab_hash = "goodhash"
    path = str(tmp_path / "ck")
    tr.save_checkpoint(bundle, None, path)
    with pytest.raises(md.ModelError):
        tr.load_checkpoint(path, expect_vocab_hash="otherhash")


# ---------------------------------------------------------------------------
# merge mid-pipeline
# ---------------------------------------------------------------------------

def test_approx_full_ft_equivalence(toy, sft16):
    bundle = small_bundle(len(toy.vocab))
    config = tr.StageConfig(stage="transform-sft", peak_lr=2e-3, max_epochs=1,
                            max_steps=6, batch_size=8, seed=0)
    tr.train_stage(bundle, sft16, config)
    ids = sft16.examples[0].ids.tolist()[:20]
    before = md.forward(ids, bundle.weights, bundle.adapters).logits.data
    tr.approx_full_ft(bundle, seed=9)
    after = md.forward(ids, bundle.weights, bundle.adapters).logits.data
    rel = np.abs(after - before).max() / np.abs(before).max()
    assert rel < 1e-5
    # fresh adapters are zero again
    assert not np.any(bundle.adapters[0]["wq"].up.data)


def test_approx_full_ft_requires_adapters(toy):
    with pytest.raises(tr.TrainerError):
        tr.approx_full_ft(small_bundle(len(toy.vocab), with_adapters=False), seed=0)


def test_metrics_deterministic(toy, sft16):
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, max_epochs=1,
                            max_steps=4, batch_size=8, seed=7)
    runs = []
    for _ in range(2):
        bundle = small_bundle(len(toy.vocab))
        metrics, _ = tr.train_stage(bundle, sft16, config)
        runs.append(metrics)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# stacked steps
# ---------------------------------------------------------------------------

def _live(ex):
    return int(np.flatnonzero(ex.loss_mask)[-1]) + 1


def adapted_bundle(vocab_size, dropout):
    """Non-zero adapters, so that their dropout changes the loss."""
    bundle = small_bundle(vocab_size, lora_dropout=dropout)
    rng = np.random.default_rng(5)
    for _, t in md.adapters_named(bundle.adapters):
        t.data = rng.normal(0.0, 0.3, size=t.shape).astype(np.float32)
    return bundle


def test_stack_loss_is_the_mean_of_record_losses(toy, sft16):
    records = sft16.examples[:3]
    stack = tr.stack_examples(records)
    assert stack.lengths == tuple(_live(ex) for ex in records)
    assert stack.loss_mask[-1] and len(stack.ids) == sum(stack.lengths)

    bundle = adapted_bundle(len(toy.vocab), dropout=0.3)
    one_by_one = np.mean([tr.example_loss(bundle, ex).item() for ex in records])
    assert abs(tr.example_loss(bundle, stack).item() - one_by_one) < 1e-5 * one_by_one

    rng = np.random.default_rng(9)
    trained = np.mean([tr.example_loss(bundle, ex, training=True, rng=rng).item()
                       for ex in records])
    stacked = tr.example_loss(bundle, stack, training=True, rng=np.random.default_rng(9)).item()
    assert abs(stacked - trained) < 1e-5 * trained
    assert abs(trained - one_by_one) > 1e-3  # dropout is on


@pytest.mark.parametrize("mode", ["lora", "full"])
def test_stack_gradients_match_per_record_accumulation(toy, sft16, mode):
    records = sft16.examples[:4]
    grads = []
    for stacked in (False, True):
        bundle = adapted_bundle(len(toy.vocab), dropout=0.3)
        if mode == "full":
            bundle.adapters = None
        md.set_trainable(bundle, mode)
        rng = np.random.default_rng(10)
        for ex in [tr.stack_examples(records)] if stacked else records:
            with nc.tape():
                loss = tr.example_loss(bundle, ex, training=True, rng=rng)
                nc.backward(nc.scale(loss, 1.0 if stacked else 1 / len(records)))
        grads.append({n: t.grad for n, t in bundle.trainable_parameters()})
    per_record, stacked = grads
    assert per_record.keys() == stacked.keys()
    for n, g in per_record.items():
        assert np.abs(stacked[n] - g).max() <= 1e-5 * np.abs(g).max(), n


@pytest.mark.parametrize("mode", ["lora", "full"])
def test_padded_record_and_one_record_stack_agree_bit_for_bit(toy, sft16, mode):
    # a benchmark scores records as pack_and_mix pads them; training runs
    # them as stacks, so one record must read the same either way
    record = next(ex for ex in sft16.examples if len(ex.ids) > _live(ex))
    results = []
    for ex in (record, tr.stack_examples([record])):
        bundle = adapted_bundle(len(toy.vocab), dropout=0.3)
        if mode == "full":
            bundle.adapters = None
        md.set_trainable(bundle, mode)
        with nc.tape():
            loss = tr.example_loss(bundle, ex, training=True, rng=np.random.default_rng(11))
            nc.backward(loss)
        results.append((loss.data, {n: t.grad for n, t in bundle.trainable_parameters()}))
    (padded_loss, padded), (stacked_loss, stacked) = results
    assert padded_loss.tobytes() == stacked_loss.tobytes()
    assert padded.keys() == stacked.keys()
    for n, g in padded.items():
        assert np.array_equal(stacked[n], g), n


def test_train_stage_trains_every_target_once_per_epoch(toy, sft16, monkeypatch):
    # a benchmark counts trained tokens as the live lengths of the
    # examples example_loss receives; stacking must keep that total
    calls = []
    example_loss = tr.example_loss

    def counting(bundle, example, training=False, rng=None):
        calls.append((training, example))
        return example_loss(bundle, example, training=training, rng=rng)

    monkeypatch.setattr(tr, "example_loss", counting)
    bundle = small_bundle(len(toy.vocab))
    config = tr.StageConfig(stage="transform-sft", peak_lr=1e-3, max_epochs=2,
                            batch_size=8, valid_every=1, seed=0)
    tr.train_stage(bundle, sft16, config, valid_examples=sft16.examples[:2])
    stacks = [ex for training, ex in calls if training]
    assert all(ex.loss_mask[len(ex.ids) - 1] for ex in stacks)
    assert all(_live(ex) <= bundle.config.max_seq_len for ex in stacks)
    assert max(len(ex.lengths) for ex in stacks) > 1
    assert (sum(_live(ex) for ex in stacks)
            == config.max_epochs * sum(_live(ex) for ex in sft16.examples))
    valid = [ex for training, ex in calls if not training]
    # 4 steps, each validating 2 records one by one
    assert len(valid) == 4 * 2 and all(ex.lengths is None for ex in valid)
