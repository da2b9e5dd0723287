"""Micro decoder-only transformer with attachable low-rank adapters.

Pre-norm residual blocks, learned positional embeddings, gated MLP.
Tokens live on rows, so a projection stored as [d_in, d_out] is applied
as x @ W. An adapter adds scale * (x @ down) @ up to a projection; the
up matrix starts at zero, so a freshly attached adapter changes nothing
until trained, and merging folds scale * down @ up into the base matrix.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numcore as nc
from .atomic import atomic_open

ALL_TARGETS = ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")

_NEG_MASK = -1e9  # finite additive mask; underflows to exact 0 after softmax


class ModelError(ValueError):
    pass


class SequenceLengthError(ModelError):
    pass


class MergeError(ModelError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    n_layers: int = 4
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    max_seq_len: int = 256
    lora_rank: int = 8
    lora_alpha: float = 16.0
    lora_dropout: float = 0.05
    lora_targets: tuple = ALL_TARGETS

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        if self.lora_rank < 1:
            raise ModelError("lora_rank must be at least 1")
        if not 0.0 <= self.lora_dropout < 1.0:
            raise ModelError("lora_dropout must be in [0, 1)")
        self.lora_targets = tuple(self.lora_targets)
        unknown = set(self.lora_targets) - set(ALL_TARGETS)
        if unknown:
            raise ModelError(f"unknown adapter targets: {sorted(unknown)}")


@dataclass
class LayerWeights:
    ln1_g: nc.Tensor
    ln1_b: nc.Tensor
    wq: nc.Tensor
    wk: nc.Tensor
    wv: nc.Tensor
    wo: nc.Tensor
    ln2_g: nc.Tensor
    ln2_b: nc.Tensor
    w_gate: nc.Tensor
    w_up: nc.Tensor
    w_down: nc.Tensor


@dataclass
class TransformerWeights:
    config: ModelConfig
    embed: nc.Tensor          # [vocab, d]
    pos: nc.Tensor            # [max_seq_len, d]
    layers: list[LayerWeights]
    lnf_g: nc.Tensor
    lnf_b: nc.Tensor
    head: nc.Tensor           # [d, vocab]

    def named(self):
        yield "embed", self.embed
        yield "pos", self.pos
        for i, layer in enumerate(self.layers):
            for fname in _layer_shapes(self.config):
                yield f"layers.{i}.{fname}", getattr(layer, fname)
        yield "lnf_g", self.lnf_g
        yield "lnf_b", self.lnf_b
        yield "head", self.head

    def base_matrices(self):
        """The frozen-under-adaptation projection matrices."""
        for i, layer in enumerate(self.layers):
            for fname in ALL_TARGETS:
                yield f"layers.{i}.{fname}", getattr(layer, fname)


def _t(rng, shape, std, dtype):
    return nc.Tensor(rng.normal(0.0, std, size=shape).astype(dtype))


def _layer_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor of one block, in LayerWeights order."""
    d, ff = config.d_model, config.d_ff
    return {"ln1_g": (d,), "ln1_b": (d,), "wq": (d, d), "wk": (d, d), "wv": (d, d),
            "wo": (d, d), "ln2_g": (d,), "ln2_b": (d,), "w_gate": (d, ff),
            "w_up": (d, ff), "w_down": (ff, d)}


def _build_weights(config: ModelConfig, make) -> TransformerWeights:
    """The weights of `config`, each tensor from make(name, shape), made
    in the order init_weights draws them."""
    d, v = config.d_model, config.vocab_size
    shapes = _layer_shapes(config)
    layers = [LayerWeights(**{f: make(f"layers.{i}.{f}", shape) for f, shape in shapes.items()})
              for i in range(config.n_layers)]
    return TransformerWeights(
        config=config,
        embed=make("embed", (v, d)),
        pos=make("pos", (config.max_seq_len, d)),
        layers=layers,
        lnf_g=make("lnf_g", (d,)), lnf_b=make("lnf_b", (d,)),
        head=make("head", (d, v)),
    )


def init_weights(config: ModelConfig, seed: int, dtype=np.float32) -> TransformerWeights:
    rng = np.random.default_rng([seed, 201])

    def make(name, shape):
        # layer-norm gains start at one, their biases at zero
        if name.endswith("_g"):
            return nc.Tensor(np.ones(shape, dtype=dtype))
        if name.endswith("_b"):
            return nc.Tensor(np.zeros(shape, dtype=dtype))
        return _t(rng, shape, 0.02, dtype)

    return _build_weights(config, make)


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------


@dataclass
class LoraAdapter:
    """Low-rank update for one projection: delta(x) = scale * (x @ down) @ up.

    up is zero at construction so the update starts at exactly zero;
    scale is alpha / rank, so doubling alpha and rank together changes
    nothing. A model runs without its adapters when forward is passed
    none.
    """

    down: nc.Tensor           # [d_in, rank], random init
    up: nc.Tensor             # [rank, d_out], zero init
    scale: float
    merged: bool = field(default=False, compare=False)


def _build_adapters(config: ModelConfig, make) -> list[dict[str, LoraAdapter]]:
    """One adapter per configured target per layer, each matrix from
    make(name, shape), scaled by lora_alpha / lora_rank."""
    shapes = _layer_shapes(config)
    adapters = []
    for i in range(config.n_layers):
        per_layer = {}
        for target in config.lora_targets:
            d_in, d_out = shapes[target]
            prefix = f"layers.{i}.lora.{target}"
            per_layer[target] = LoraAdapter(
                down=make(f"{prefix}.down", (d_in, config.lora_rank)),
                up=make(f"{prefix}.up", (config.lora_rank, d_out)),
                scale=config.lora_alpha / config.lora_rank,
            )
        adapters.append(per_layer)
    return adapters


def init_adapters(config: ModelConfig, seed: int, dtype=np.float32) -> list[dict[str, LoraAdapter]]:
    rng = np.random.default_rng([seed, 202])

    def make(name, shape):
        if name.endswith(".up"):
            return nc.Tensor(np.zeros(shape, dtype=dtype))
        return _t(rng, shape, 0.02, dtype)

    return _build_adapters(config, make)


def adapters_named(adapters):
    for i, per_layer in enumerate(adapters):
        for target in sorted(per_layer):
            yield f"layers.{i}.lora.{target}.down", per_layer[target].down
            yield f"layers.{i}.lora.{target}.up", per_layer[target].up


def lora_apply(h: nc.Tensor, w: nc.Tensor, adapter: LoraAdapter | None,
               keep: np.ndarray | None = None) -> nc.Tensor:
    """x @ W, plus the adapter branch when an adapter is passed.

    Without an adapter the projection runs as the base model's. A
    still-zero adapter adds exactly 0.0, so the output is bit-identical
    to the base projection. keep, a dropout multiplier shaped like h,
    hits only the adapter branch; forward passes one in training mode
    only.
    """
    if adapter is None:
        return nc.matmul(h, w)
    return nc.low_rank_matmul(h, w, adapter.down, adapter.up, adapter.scale, keep)


def _dropout_keeps(config: ModelConfig, adapters, lengths, rng,
                   dtype) -> dict[tuple[int, str], np.ndarray]:
    """Every adapter branch's dropout multiplier for sequences of these
    lengths laid end to end, keyed by (layer, target). Drawn sequence by
    sequence, and within one by layer and target in the order forward
    applies them, so a stacked forward draws exactly what separate
    forwards over its sequences would."""
    if rng is None:
        raise ModelError("training-mode dropout needs a generator")
    widths = {target: shape[0] for target, shape in _layer_shapes(config).items()}
    parts: dict[tuple[int, str], list[np.ndarray]] = {}
    for n in lengths:
        for li, per_layer in enumerate(adapters):
            for target in ALL_TARGETS:
                if target in per_layer:
                    parts.setdefault((li, target), []).append(
                        nc.dropout_keep((n, widths[target]), config.lora_dropout, rng, dtype))
    return {key: p[0] if len(p) == 1 else np.concatenate(p) for key, p in parts.items()}


def merge_adapters(weights: TransformerWeights, adapters) -> TransformerWeights:
    """Fold scale * down @ up into every wrapped projection in place.

    Adapters are consumed: their matrices are zeroed and a second merge
    of the same set is rejected.
    """
    for per_layer in adapters:
        for target, a in per_layer.items():
            if a.merged:
                raise MergeError("adapters were already merged; attach fresh ones first")
    for layer, per_layer in zip(weights.layers, adapters):
        for target, a in per_layer.items():
            delta = (a.down.data @ a.up.data) * np.asarray(a.scale, dtype=a.down.dtype)
            w = getattr(layer, target)
            if np.any(delta):
                w.data = w.data + delta.astype(w.dtype)
            a.up.data = np.zeros_like(a.up.data)
            a.down.data = np.zeros_like(a.down.data)
            a.merged = True
    return weights


def extend_embeddings(weights: TransformerWeights, old_vocab_size: int,
                      new_vocab_size: int, seed: int) -> TransformerWeights:
    """Grow the token embedding and output head to a larger vocabulary.

    Existing rows/columns are copied bit-exactly; new ones are drawn
    from a seeded normal(0, 0.02). Returns a fresh weight struct.
    """
    if old_vocab_size != weights.config.vocab_size:
        raise ModelError(
            f"old_vocab_size {old_vocab_size} does not match current {weights.config.vocab_size}"
        )
    if new_vocab_size < old_vocab_size:
        raise ModelError("vocabulary cannot shrink")
    out = copy.deepcopy(weights)
    out.config = replace(weights.config, vocab_size=new_vocab_size)
    if new_vocab_size == old_vocab_size:
        return out
    rng = np.random.default_rng([seed, 203])
    d = weights.config.d_model
    dtype = weights.embed.dtype
    extra = new_vocab_size - old_vocab_size
    new_embed = np.concatenate(
        [weights.embed.data, rng.normal(0.0, 0.02, size=(extra, d)).astype(dtype)], axis=0)
    new_head = np.concatenate(
        [weights.head.data, rng.normal(0.0, 0.02, size=(d, extra)).astype(dtype)], axis=1)
    out.embed = nc.Tensor(new_embed)
    out.head = nc.Tensor(new_head)
    return out


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    # rows are the positions the call ran: the ids it was passed
    logits: nc.Tensor                 # [rows, vocab]
    hidden: nc.Tensor                 # [rows, d] last block output
    # per layer, [n_heads, rows, T] probabilities; for sequences laid end
    # to end, per layer a list of each sequence's [n_heads, L, L]
    attention: list


class KVCache:
    """Every layer's key and value rows for the first `length` positions
    a cached forward has run, in buffers sized for the longest sequence."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        shape = (config.n_layers, config.max_seq_len, config.d_model)
        self.k = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.length = 0

    def extend(self, layer: int, k: nc.Tensor, v: nc.Tensor) -> tuple[nc.Tensor, nc.Tensor]:
        """Store one layer's rows after the first `length`; return all of
        its rows through them."""
        stop = self.length + k.shape[0]
        self.k[layer, self.length:stop] = k.data
        self.v[layer, self.length:stop] = v.data
        return nc.Tensor(self.k[layer, :stop]), nc.Tensor(self.v[layer, :stop])


def forward(ids, weights: TransformerWeights, adapters=None, training: bool = False,
            rng=None, cache: KVCache | None = None, lengths=None) -> ForwardResult:
    """Run the decoder over the tokens `ids`, one result row each.

    Position t attends only to positions <= t. Run without adapters
    (adapters=None) or with still-zero ones, the result equals the base
    model's output exactly. In training mode the adapter branches drop
    out at config.lora_dropout, drawn from rng.

    With lengths, ids hold several sequences of those lengths laid end to
    end, and each runs as if passed alone: positions restart at 0, a
    sequence attends only within itself (only the per-sequence blocks of
    attention are computed), and dropout masks are drawn sequence by
    sequence in the order separate calls would draw them. Its rows agree
    with separate calls to float32 rounding: a product over all rows may
    sum in another order than one over a sequence's rows.

    With a cache, ids are the tokens that follow the cache's `length`
    and run at positions length, length + 1, ..., against the cached
    keys and values plus their own (attention maps are [n_heads, new,
    length + new]). The cache's length grows only once every layer has
    run, so a call that fails leaves it as it was. A fresh cache computes
    every row as the uncached call does, bit for bit; later calls agree
    with it to float32 rounding (one-row products sum in another order).
    A cache cannot be used while a tape records, nor with lengths.
    """
    config = weights.config
    t = len(ids)
    start = 0 if cache is None else cache.length
    if t == 0:
        raise ModelError("forward needs at least one token")
    if lengths is not None:
        if cache is not None:
            raise ModelError("a key/value cache runs one sequence, not several")
        if sum(lengths) != t or min(lengths) < 1:
            raise ModelError(f"lengths {list(lengths)} do not lay out {t} tokens")
    longest = start + t if lengths is None else max(lengths)
    if longest > config.max_seq_len:
        raise SequenceLengthError(
            f"sequence length {longest} exceeds max_seq_len {config.max_seq_len}")
    if cache is not None and nc.active_tape() is not None:
        raise ModelError("a key/value cache cannot be used while a tape records")

    dtype = weights.embed.dtype
    if lengths is None:
        # the causal mask's rows for positions start .. start + t - 1
        mask = np.triu(np.full((t, start + t), _NEG_MASK, dtype), k=start + 1)
        positions = range(start, start + t)
    else:
        # each sequence uses the leading block of the longest one's mask
        mask = np.triu(np.full((longest, longest), _NEG_MASK, dtype), k=1)
        positions = np.concatenate([np.arange(n) for n in lengths])
    keeps = {}
    if training and adapters is not None and config.lora_dropout > 0.0:
        keeps = _dropout_keeps(config, adapters, lengths or [t], rng, dtype)
    attention: list = []

    def proj(rows: nc.Tensor, w: nc.Tensor, layer_idx: int, target: str) -> nc.Tensor:
        adapter = None if adapters is None else adapters[layer_idx].get(target)
        keep = keeps[layer_idx, target] if keeps and adapter is not None else None
        return lora_apply(rows, w, adapter, keep)

    h = nc.add(nc.embedding(weights.embed, ids), nc.embedding(weights.pos, positions))
    for li, layer in enumerate(weights.layers):
        x = nc.layer_norm(h, layer.ln1_g, layer.ln1_b)
        q = proj(x, layer.wq, li, "wq")
        k = proj(x, layer.wk, li, "wk")
        v = proj(x, layer.wv, li, "wv")
        if cache is not None:
            k, v = cache.extend(li, k, v)
        ctx, probs = nc.attention(q, k, v, config.n_heads, mask, lengths)
        attention.append(probs)
        h = nc.add(h, proj(ctx, layer.wo, li, "wo"))

        x = nc.layer_norm(h, layer.ln2_g, layer.ln2_b)
        gate = nc.silu(proj(x, layer.w_gate, li, "w_gate"))
        up = proj(x, layer.w_up, li, "w_up")
        h = nc.add(h, proj(nc.mul(gate, up), layer.w_down, li, "w_down"))
    if cache is not None:
        cache.length = start + t

    final = nc.layer_norm(h, weights.lnf_g, weights.lnf_b)
    logits = nc.matmul(final, weights.head)
    return ForwardResult(logits=logits, hidden=h, attention=attention)


# ---------------------------------------------------------------------------
# bundle and checkpoint format
# ---------------------------------------------------------------------------


@dataclass
class ModelBundle:
    """A model plus whatever adapters are attached and its vocabulary hash."""

    config: ModelConfig
    weights: TransformerWeights
    adapters: list[dict[str, LoraAdapter]] | None = None
    vocab_hash: str = ""

    def named_parameters(self):
        yield from self.weights.named()
        if self.adapters is not None:
            yield from adapters_named(self.adapters)

    def trainable_parameters(self):
        return [(n, t) for n, t in self.named_parameters() if t.requires_grad]


def attach_adapters(bundle: ModelBundle, seed: int) -> ModelBundle:
    bundle.adapters = init_adapters(bundle.config, seed, dtype=bundle.weights.embed.dtype)
    return bundle


def set_trainable(bundle: ModelBundle, mode: str) -> None:
    """"full": everything trains. "lora": the adapters, the token
    embeddings and the head train; the projections, norms and positional
    table stay frozen, so run without its adapters the network computes
    as before adapter training, over the embeddings as trained."""
    if mode not in ("lora", "full"):
        raise ModelError(f"unknown trainable mode {mode!r}")
    for _, tensor in bundle.weights.named():
        tensor.requires_grad = mode == "full"
        tensor.grad = None
    if mode == "lora":
        for t in (bundle.weights.embed, bundle.weights.head):
            t.requires_grad = True
        if bundle.adapters is None:
            raise ModelError("lora training mode needs attached adapters")
    if bundle.adapters is not None:
        for _, tensor in adapters_named(bundle.adapters):
            tensor.requires_grad = mode == "lora"
            tensor.grad = None


def clone_bundle(bundle: ModelBundle) -> ModelBundle:
    return copy.deepcopy(bundle)


CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_BLOB = "weights.bin"


def write_checkpoint(path: str, named_arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Manifest (tensor names, shapes, byte offsets, meta, the blob's
    size and sha256) plus one blob of little-endian float32, each
    replaced whole. load(save(x)) is bit-exact."""
    os.makedirs(path, exist_ok=True)
    entries = []
    offset = 0
    chunks = []
    for name in sorted(named_arrays):
        arr = np.ascontiguousarray(named_arrays[name], dtype="<f4")
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    blob = b"".join(chunks)
    manifest = {"format": "langlift-checkpoint-v1", "meta": meta, "tensors": entries,
                "nbytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}
    with atomic_open(os.path.join(path, CHECKPOINT_BLOB), "wb") as f:
        f.write(blob)
    with atomic_open(os.path.join(path, CHECKPOINT_MANIFEST)) as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(os.path.join(path, CHECKPOINT_MANIFEST), encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("format") != "langlift-checkpoint-v1":
        raise ModelError(f"{path} is not a langlift checkpoint")
    with open(os.path.join(path, CHECKPOINT_BLOB), "rb") as f:
        blob = f.read()
    if (len(blob) != manifest.get("nbytes")
            or hashlib.sha256(blob).hexdigest() != manifest.get("sha256")):
        raise ModelError(f"{path}: {CHECKPOINT_BLOB} does not match the size and sha256 "
                         f"its manifest records")
    arrays = {}
    for e in manifest["tensors"]:
        raw = blob[e["offset"]:e["offset"] + e["nbytes"]]
        arrays[e["name"]] = np.frombuffer(raw, dtype="<f4").reshape(e["shape"]).copy()
    return arrays, manifest["meta"]


def save_bundle(bundle: ModelBundle, path: str, extra_meta: dict | None = None) -> None:
    arrays = {name: t.data for name, t in bundle.named_parameters()}
    meta = {"config": asdict(bundle.config), "vocab_hash": bundle.vocab_hash}
    if extra_meta:
        meta.update(extra_meta)
    write_checkpoint(path, arrays, meta)


def load_bundle(path: str, expect_vocab_hash: str | None = None) -> tuple[ModelBundle, dict]:
    arrays, meta = read_checkpoint(path)
    if expect_vocab_hash is not None and meta.get("vocab_hash") != expect_vocab_hash:
        raise ModelError(
            f"checkpoint vocabulary hash {meta.get('vocab_hash')!r} does not match "
            f"expected {expect_vocab_hash!r}"
        )
    config = ModelConfig(**meta["config"])

    def stored(name, shape):
        if name not in arrays:
            raise ModelError(f"checkpoint is missing tensor {name!r}")
        if arrays[name].shape != shape:
            raise ModelError(f"checkpoint tensor {name!r} has shape {arrays[name].shape}, "
                             f"expected {shape}")
        return nc.Tensor(arrays[name])

    bundle = ModelBundle(config=config, weights=_build_weights(config, stored),
                         vocab_hash=meta.get("vocab_hash", ""))
    if any(".lora." in name for name in arrays):
        bundle.adapters = _build_adapters(config, stored)
    return bundle, meta
