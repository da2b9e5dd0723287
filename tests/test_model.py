from dataclasses import replace

import numpy as np
import pytest

from langlift import model as md
from langlift import numcore as nc
from gradcheck import assert_grads_close


def tiny_config(vocab=23, **kw):
    base = dict(vocab_size=vocab, n_layers=2, d_model=16, n_heads=2, d_ff=32,
                max_seq_len=12, lora_rank=2, lora_alpha=4.0, lora_dropout=0.0)
    base.update(kw)
    return md.ModelConfig(**base)


@pytest.fixture
def setup():
    config = tiny_config()
    weights = md.init_weights(config, seed=1)
    adapters = md.init_adapters(config, seed=2)
    return config, weights, adapters


def rand_ids(config, rng, t=None):
    t = t or int(rng.integers(2, config.max_seq_len + 1))
    return rng.integers(0, config.vocab_size, size=t).tolist()


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------

def test_zero_init_adapters_bit_identical(setup):
    config, weights, adapters = setup
    rng = np.random.default_rng(0)
    for _ in range(5):
        ids = rand_ids(config, rng)
        base = md.forward(ids, weights).logits.data
        adapted = md.forward(ids, weights, adapters).logits.data
        assert np.array_equal(base, adapted)


def test_output_shape(setup):
    config, weights, _ = setup
    for t in (1, 3, config.max_seq_len):
        out = md.forward(list(range(t)), weights)
        assert out.logits.shape == (t, config.vocab_size)


def test_attention_rows_sum_to_one(setup):
    config, weights, _ = setup
    out = md.forward([1, 2, 3, 4, 5], weights)
    assert len(out.attention) == config.n_layers
    assert out.hidden.shape == (5, config.d_model)
    for attn in out.attention:
        assert attn.shape == (config.n_heads, 5, 5)
        assert np.abs(attn.sum(axis=2) - 1.0).max() < 1e-6
        for head in attn:
            assert np.abs(np.triu(head, k=1)).max() == 0.0


def test_overlong_input_rejected(setup):
    config, weights, _ = setup
    with pytest.raises(md.SequenceLengthError):
        md.forward([0] * (config.max_seq_len + 1), weights)


def test_causality(setup):
    config, weights, _ = setup
    rng = np.random.default_rng(3)
    ids = rand_ids(config, rng, t=8)
    base = md.forward(ids, weights).logits.data
    for t in range(1, 8):
        perturbed = list(ids)
        perturbed[t] = (perturbed[t] + 1) % config.vocab_size
        out = md.forward(perturbed, weights).logits.data
        assert np.array_equal(out[:t], base[:t])


# ---------------------------------------------------------------------------
# key/value cache
# ---------------------------------------------------------------------------

@pytest.fixture
def adapted():
    """A model with non-zero adapters on all seven targets."""
    config = tiny_config(max_seq_len=24)
    assert set(config.lora_targets) == set(md.ALL_TARGETS)
    weights = md.init_weights(config, seed=1)
    adapters = md.init_adapters(config, seed=2)
    _randomize_adapters(adapters, np.random.default_rng(12), scale=0.3)
    return config, weights, adapters


def cached_rows(ids, chunks, weights, adapters):
    """Logits and hidden rows of ids, each chunk passed to its own call
    on one cache."""
    cache = md.KVCache(weights.config)
    logits, hidden, stop = [], [], 0
    for n in chunks:
        out = md.forward(ids[stop:stop + n], weights, adapters, cache=cache)
        stop += n
        assert out.logits.shape[0] == n and cache.length == stop
        assert out.attention[0].shape == (weights.config.n_heads, n, stop)
        logits.append(out.logits.data)
        hidden.append(out.hidden.data)
    return np.concatenate(logits), np.concatenate(hidden)


def test_cache_first_call_bit_identical(adapted):
    config, weights, adapters = adapted
    rng = np.random.default_rng(13)
    for t in (1, 2, 7, config.max_seq_len):
        ids = rand_ids(config, rng, t=t)
        full = md.forward(ids, weights, adapters)
        first = md.forward(ids, weights, adapters, cache=md.KVCache(config))
        assert np.array_equal(first.logits.data, full.logits.data)
        assert np.array_equal(first.hidden.data, full.hidden.data)


@pytest.mark.parametrize("chunks", [
    [1] * 24,                # one token at a time from the first
    [9] + [1] * 15,          # a prompt, then one token at a time
    [3, 1, 5, 2, 6, 4, 3],   # uneven chunks
])
def test_cache_matches_uncached_forward(adapted, chunks):
    config, weights, adapters = adapted
    rng = np.random.default_rng(14)
    for _ in range(5):
        ids = rand_ids(config, rng, t=sum(chunks))
        full = md.forward(ids, weights, adapters)
        logits, hidden = cached_rows(ids, chunks, weights, adapters)
        assert np.abs(logits - full.logits.data).max() < 1e-5
        assert np.abs(hidden - full.hidden.data).max() < 1e-5


def test_cache_under_tape_rejected(adapted):
    config, weights, adapters = adapted
    with nc.tape():
        with pytest.raises(md.ModelError):
            md.forward([1, 2, 3], weights, adapters, cache=md.KVCache(config))


def test_cache_overflow_leaves_it_unchanged(adapted, monkeypatch):
    config, weights, adapters = adapted
    cache = md.KVCache(config)
    md.forward([1, 2, 3], weights, adapters, cache=cache)
    with pytest.raises(md.SequenceLengthError):
        md.forward([4] * (config.max_seq_len - 2), weights, adapters, cache=cache)
    assert cache.length == 3

    # a call that fails in its last layer does not count its rows either
    attention = nc.attention
    calls = []

    def failing_attention(*args):
        calls.append(None)
        if len(calls) == config.n_layers:
            raise RuntimeError("attention failed")
        return attention(*args)

    monkeypatch.setattr(nc, "attention", failing_attention)
    with pytest.raises(RuntimeError):
        md.forward([5, 6], weights, adapters, cache=cache)
    monkeypatch.setattr(nc, "attention", attention)
    assert cache.length == 3

    rest = [4] * (config.max_seq_len - 3)
    out = md.forward(rest, weights, adapters, cache=cache)
    assert cache.length == config.max_seq_len
    full = md.forward([1, 2, 3] + rest, weights, adapters)
    assert np.abs(out.logits.data - full.logits.data[3:]).max() < 1e-5


# ---------------------------------------------------------------------------
# sequences laid end to end
# ---------------------------------------------------------------------------

def test_stacked_forward_matches_separate_forwards(adapted):
    config, weights, adapters = adapted
    rng = np.random.default_rng(16)
    lengths = (7, 1, config.max_seq_len, 4)
    seqs = [rand_ids(config, rng, t=n) for n in lengths]
    out = md.forward(sum(seqs, []), weights, adapters, lengths=lengths)
    assert [a[0].shape for a in out.attention] == [(config.n_heads, 7, 7)] * config.n_layers
    start = 0
    for ids in seqs:
        alone = md.forward(ids, weights, adapters)
        rows = slice(start, start + len(ids))
        assert np.abs(out.logits.data[rows] - alone.logits.data).max() < 1e-5
        assert np.abs(out.hidden.data[rows] - alone.hidden.data).max() < 1e-5
        start += len(ids)


def test_stacked_forward_draws_dropout_sequence_by_sequence(adapted):
    config, weights, adapters = adapted
    w = replace(weights, config=replace(config, lora_dropout=0.3))
    rng = np.random.default_rng(17)
    seqs = [rand_ids(config, rng, t=n) for n in (5, 9, 3)]
    stacked = md.forward(sum(seqs, []), w, adapters, training=True,
                         rng=np.random.default_rng(18), lengths=[5, 9, 3]).logits.data
    one_rng = np.random.default_rng(18)
    separate = np.concatenate([md.forward(ids, w, adapters, training=True, rng=one_rng).logits.data
                               for ids in seqs])
    assert np.abs(stacked - separate).max() < 1e-5
    eval_logits = md.forward(sum(seqs, []), w, adapters, lengths=[5, 9, 3]).logits.data
    assert np.abs(stacked - eval_logits).max() > 1e-3


def test_stacked_forward_rejects_bad_lengths(adapted):
    config, weights, adapters = adapted
    with pytest.raises(md.ModelError):
        md.forward([1, 2, 3], weights, adapters, lengths=[1, 1])
    with pytest.raises(md.ModelError):
        md.forward([1, 2, 3], weights, adapters, lengths=[3, 0])
    n = config.max_seq_len
    # a stack may be longer than max_seq_len, a sequence in it may not
    assert md.forward([1] * (n + 1), weights, adapters, lengths=[1, n]).logits.shape[0] == n + 1
    with pytest.raises(md.SequenceLengthError):
        md.forward([1] * (n + 2), weights, adapters, lengths=[1, n + 1])
    with pytest.raises(md.ModelError):
        md.forward([1, 2, 3], weights, adapters, cache=md.KVCache(config), lengths=[2, 1])


# ---------------------------------------------------------------------------
# lora_apply
# ---------------------------------------------------------------------------

def test_lora_apply_zero_update():
    w = nc.Tensor(np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32))
    h = nc.Tensor(np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32))
    adapter = md.LoraAdapter(
        down=nc.Tensor(np.random.default_rng(2).normal(size=(4, 2)).astype(np.float32)),
        up=nc.Tensor(np.zeros((2, 4), dtype=np.float32)),
        scale=2.0,
    )
    assert np.array_equal(md.lora_apply(h, w, adapter).data, nc.matmul(h, w).data)


def test_lora_apply_hand_case():
    # identity base, h=[0,1]: down picks coordinate 1, up writes it to slot 0
    w = nc.Tensor(np.eye(2, dtype=np.float32))
    h = nc.Tensor(np.array([[0.0, 1.0]], dtype=np.float32))
    adapter = md.LoraAdapter(
        down=nc.Tensor(np.array([[0.0], [1.0]], dtype=np.float32)),
        up=nc.Tensor(np.array([[1.0, 0.0]], dtype=np.float32)),
        scale=1.0,
    )
    out = md.lora_apply(h, w, adapter)
    assert out.data.tolist() == [[1.0, 1.0]]


def test_lora_scale_invariance():
    rng = np.random.default_rng(4)
    w = nc.Tensor(rng.normal(size=(6, 6)).astype(np.float32))
    h = nc.Tensor(rng.normal(size=(2, 6)).astype(np.float32))
    down = nc.Tensor(rng.normal(size=(6, 3)).astype(np.float32))
    up = nc.Tensor(rng.normal(size=(3, 6)).astype(np.float32))
    a1 = md.LoraAdapter(down=down, up=up, scale=8.0 / 3.0)
    a2 = md.LoraAdapter(down=down, up=up, scale=16.0 / 6.0)
    assert np.array_equal(md.lora_apply(h, w, a1).data, md.lora_apply(h, w, a2).data)


def test_lora_disabled_returns_base():
    rng = np.random.default_rng(5)
    w = nc.Tensor(rng.normal(size=(4, 4)).astype(np.float32))
    h = nc.Tensor(rng.normal(size=(2, 4)).astype(np.float32))
    assert np.array_equal(md.lora_apply(h, w, None).data, nc.matmul(h, w).data)


def test_training_dropout_follows_the_config(adapted):
    config, weights, adapters = adapted
    ids = rand_ids(config, np.random.default_rng(15), t=10)
    eval_logits = md.forward(ids, weights, adapters).logits.data

    def train_logits(dropout, seed):
        w = replace(weights, config=replace(config, lora_dropout=dropout))
        rng = np.random.default_rng(seed)
        return md.forward(ids, w, adapters, training=True, rng=rng).logits.data

    assert np.array_equal(train_logits(0.0, 1), eval_logits)
    assert not np.array_equal(train_logits(0.5, 1), eval_logits)
    assert np.array_equal(train_logits(0.5, 1), train_logits(0.5, 1))


def test_lora_shape_error():
    w = nc.Tensor(np.eye(3, dtype=np.float32))
    h = nc.Tensor(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(nc.ShapeError):
        md.lora_apply(h, w, None)


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def _randomize_adapters(adapters, rng, scale=0.05):
    for per_layer in adapters:
        for a in per_layer.values():
            a.up.data = rng.normal(0, scale, size=a.up.shape).astype(np.float32)
            a.down.data = rng.normal(0, scale, size=a.down.shape).astype(np.float32)


def test_merge_zero_adapters_bit_exact(setup):
    config, weights, adapters = setup
    before = {n: t.data.copy() for n, t in weights.named()}
    md.merge_adapters(weights, adapters)
    for n, t in weights.named():
        assert np.array_equal(before[n], t.data), n


def test_merge_matches_adapter_forward(setup):
    config, weights, adapters = setup
    rng = np.random.default_rng(6)
    _randomize_adapters(adapters, rng)
    ids_list = [rand_ids(config, rng) for _ in range(20)]
    adapter_logits = [md.forward(ids, weights, adapters).logits.data for ids in ids_list]
    md.merge_adapters(weights, adapters)
    for ids, expected in zip(ids_list, adapter_logits):
        merged = md.forward(ids, weights).logits.data
        # relative to the logit scale: per-entry division by near-zero
        # logits is meaningless in f32
        rel = np.abs(merged - expected).max() / np.abs(expected).max()
        assert rel < 1e-5


def test_double_merge_rejected(setup):
    _, weights, adapters = setup
    md.merge_adapters(weights, adapters)
    with pytest.raises(md.MergeError):
        md.merge_adapters(weights, adapters)


# ---------------------------------------------------------------------------
# embedding extension
# ---------------------------------------------------------------------------

def test_extend_noop(setup):
    config, weights, _ = setup
    out = md.extend_embeddings(weights, config.vocab_size, config.vocab_size, seed=9)
    for (n1, t1), (n2, t2) in zip(weights.named(), out.named()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)


def test_extend_preserves_old_logits(setup):
    config, weights, _ = setup
    bigger = md.extend_embeddings(weights, config.vocab_size, config.vocab_size + 7, seed=9)
    ids = [0, 5, 2, 9]
    old = md.forward(ids, weights).logits.data
    new = md.forward(ids, bigger).logits.data
    assert np.array_equal(new[:, :config.vocab_size], old)


def test_extend_deterministic(setup):
    config, weights, _ = setup
    a = md.extend_embeddings(weights, config.vocab_size, config.vocab_size + 5, seed=4)
    b = md.extend_embeddings(weights, config.vocab_size, config.vocab_size + 5, seed=4)
    assert np.array_equal(a.embed.data, b.embed.data)
    assert np.array_equal(a.head.data, b.head.data)


def test_extend_shrink_rejected(setup):
    config, weights, _ = setup
    with pytest.raises(md.ModelError):
        md.extend_embeddings(weights, config.vocab_size, config.vocab_size - 1, seed=0)


# ---------------------------------------------------------------------------
# training plumbing
# ---------------------------------------------------------------------------

def test_frozen_base_under_lora_training(setup):
    config, weights, adapters = setup
    bundle = md.ModelBundle(config=config, weights=weights, adapters=adapters)
    md.set_trainable(bundle, "lora")
    rng = np.random.default_rng(8)
    base_before = {n: t.data.copy() for n, t in weights.base_matrices()}
    norm_before = {
        n: t.data.copy() for n, t in weights.named() if "ln" in n
    }
    for _ in range(3):
        ids = rand_ids(config, rng, t=6)
        with nc.tape():
            out = md.forward(ids, weights, adapters, training=True, rng=rng)
            loss = nc.cross_entropy(out.logits, ids)
            nc.backward(loss)
        for name, tensor in bundle.trainable_parameters():
            tensor.data = tensor.data - 0.05 * tensor.grad
            tensor.grad = None
    for n, t in weights.base_matrices():
        assert np.array_equal(base_before[n], t.data), n
    for n, t in weights.named():
        if "ln" in n:
            assert np.array_equal(norm_before[n], t.data), n
    # adapters and embeddings did change
    assert np.any(adapters[0]["wq"].up.data)


def test_full_model_gradcheck_two_layers():
    config = tiny_config(vocab=11)
    weights = md.init_weights(config, seed=3, dtype=np.float64)
    adapters = md.init_adapters(config, seed=4, dtype=np.float64)
    rng = np.random.default_rng(10)
    _randomize_adapters(adapters, rng)
    for per_layer in adapters:
        for a in per_layer.values():
            a.up.data = a.up.data.astype(np.float64)
            a.down.data = a.down.data.astype(np.float64)
    ids = [1, 4, 7, 2, 9, 3]
    leaves = dict(weights.named()) | dict(md.adapters_named(adapters))

    def loss():
        out = md.forward(ids, weights, adapters)
        return nc.cross_entropy(out.logits, ids[1:] + [0])

    # smaller step: layer-norm curvature at 0.02-scale init inflates the
    # O(eps^2) truncation term of the central difference
    assert_grads_close(loss, leaves, eps=1e-4)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, setup):
    config, weights, adapters = setup
    rng = np.random.default_rng(11)
    _randomize_adapters(adapters, rng)
    bundle = md.ModelBundle(config=config, weights=weights, adapters=adapters, vocab_hash="abc123")
    path = str(tmp_path / "ckpt")
    md.save_bundle(bundle, path, extra_meta={"stage": "test"})
    loaded, meta = md.load_bundle(path, expect_vocab_hash="abc123")
    assert meta["stage"] == "test"
    for (n1, t1), (n2, t2) in zip(bundle.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data), n1


def test_checkpoint_with_legacy_adapter_keys_loads(tmp_path, setup):
    # manifests once also stored has_adapters and adapter_scale
    config, weights, adapters = setup
    _randomize_adapters(adapters, np.random.default_rng(16))
    for bundle in (md.ModelBundle(config=config, weights=weights, adapters=adapters),
                   md.ModelBundle(config=config, weights=weights)):
        path = str(tmp_path / ("with" if bundle.adapters else "without"))
        md.save_bundle(bundle, path)
        arrays, meta = md.read_checkpoint(path)
        assert "has_adapters" not in meta and "adapter_scale" not in meta
        meta["has_adapters"] = bundle.adapters is not None
        meta["adapter_scale"] = (config.lora_alpha / config.lora_rank
                                 if bundle.adapters else None)
        md.write_checkpoint(path, arrays, meta)
        loaded, _ = md.load_bundle(path)
        assert (loaded.adapters is None) == (bundle.adapters is None)
        for (n1, t1), (n2, t2) in zip(bundle.named_parameters(),
                                      loaded.named_parameters(), strict=True):
            assert n1 == n2 and np.array_equal(t1.data, t2.data), n1
        for per_layer in loaded.adapters or []:
            assert all(a.scale == config.lora_alpha / config.lora_rank
                       for a in per_layer.values())


def test_checkpoint_vocab_hash_mismatch(tmp_path, setup):
    config, weights, adapters = setup
    bundle = md.ModelBundle(config=config, weights=weights, adapters=adapters, vocab_hash="abc123")
    path = str(tmp_path / "ckpt")
    md.save_bundle(bundle, path)
    with pytest.raises(md.ModelError):
        md.load_bundle(path, expect_vocab_hash="different")


def test_checkpoint_rejects_truncated_blob(tmp_path, setup):
    config, weights, adapters = setup
    path = tmp_path / "ckpt"
    md.save_bundle(md.ModelBundle(config=config, weights=weights, adapters=adapters), str(path))
    blob = path / md.CHECKPOINT_BLOB
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(md.ModelError):
        md.load_bundle(str(path))


@pytest.mark.parametrize("damage", ["missing", "reshaped"])
def test_checkpoint_rejects_bad_tensor(tmp_path, setup, damage):
    config, weights, adapters = setup
    path = str(tmp_path / "ckpt")
    md.save_bundle(md.ModelBundle(config=config, weights=weights, adapters=adapters), path)
    arrays, meta = md.read_checkpoint(path)
    if damage == "missing":
        del arrays["layers.0.lora.wq.up"]
    else:
        arrays["head"] = arrays["head"].T
    md.write_checkpoint(path, arrays, meta)
    with pytest.raises(md.ModelError):
        md.load_bundle(path)


def test_config_validation():
    with pytest.raises(md.ModelError):
        tiny_config(d_model=10, n_heads=3)
    with pytest.raises(md.ModelError):
        tiny_config(lora_rank=0)
    with pytest.raises(md.ModelError):
        tiny_config(lora_dropout=1.0)
