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
        for name in ("vocab_size", "n_layers", "d_model", "n_heads", "d_ff", "max_seq_len",
                     "lora_rank"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ModelError(f"{name} must be an integer of at least 1, got {value!r}")
        alpha = self.lora_alpha
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not alpha > 0:
            raise ModelError(f"lora_alpha must be a positive number, got {alpha!r}")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        dropout = self.lora_dropout
        if (isinstance(dropout, bool) or not isinstance(dropout, (int, float))
                or not 0.0 <= dropout < 1.0):
            raise ModelError(f"lora_dropout must be a number in [0, 1), got {dropout!r}")
        targets = self.lora_targets
        if not isinstance(targets, (list, tuple)) or not all(isinstance(t, str) for t in targets):
            raise ModelError(f"lora_targets must be a list of target names, got {targets!r}")
        self.lora_targets = tuple(targets)
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


def _outer_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor outside the blocks, in the order
    init_weights draws them."""
    d, v = config.d_model, config.vocab_size
    return {"embed": (v, d), "pos": (config.max_seq_len, d), "lnf_g": (d,), "lnf_b": (d,),
            "head": (d, v)}


def _build_weights(config: ModelConfig, make) -> TransformerWeights:
    """The weights of `config`, each tensor from make(name, shape), made
    in the order init_weights draws them: the blocks, then the rest."""
    shapes = _layer_shapes(config)
    layers = [LayerWeights(**{f: make(f"layers.{i}.{f}", shape) for f, shape in shapes.items()})
              for i in range(config.n_layers)]
    return TransformerWeights(config=config, layers=layers,
                              **{name: make(name, shape)
                                 for name, shape in _outer_shapes(config).items()})


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
    lengths laid end to end, keyed by (layer, target). Masks are drawn
    sequence by sequence, and within one by layer and target in the
    order forward applies them: a generator yields the same numbers
    however the draws are split, so a stacked forward draws exactly what
    separate forwards over its sequences would."""
    if rng is None:
        raise ModelError("training-mode dropout needs a generator")
    widths = {target: shape[0] for target, shape in _layer_shapes(config).items()}
    keys = [(li, target) for li, per_layer in enumerate(adapters)
            for target in ALL_TARGETS if target in per_layer]
    parts: dict[tuple[int, str], list[np.ndarray]] = {key: [] for key in keys}
    for n in lengths:
        for key in keys:
            parts[key].append(rng.random((n, widths[key[1]])) >= config.lora_dropout)
    return {key: nc.dropout_keep(np.concatenate(p), config.lora_dropout, dtype)
            for key, p in parts.items()}


def fold_adapters(weights: TransformerWeights, adapters) -> TransformerWeights:
    """The weights with every wrapped projection replaced by
    W + scale * down @ up, so a forward without adapters computes what
    the adapters' forward computes, to float32 rounding.

    Pure: a new weight struct is returned and neither argument changes
    (an adapter's `merged` flag is neither read nor set). Every other
    tensor, and a projection whose adapter adds exactly zero, is the
    caller's own tensor, shared, not copied. Raises ShapeError at the
    first weight or adapter whose shape the config does not give it.
    """
    _check_shapes(weights, adapters, None)
    layers = []
    for layer, per_layer in zip(weights.layers, adapters):
        folded = {}
        for target, a in per_layer.items():
            delta = (a.down.data @ a.up.data) * np.asarray(a.scale, dtype=a.down.dtype)
            if np.any(delta):
                w = getattr(layer, target)
                folded[target] = nc.Tensor(w.data + delta.astype(w.dtype))
        layers.append(replace(layer, **folded))
    return replace(weights, layers=layers)


def merge_adapters(weights: TransformerWeights, adapters) -> TransformerWeights:
    """Fold the adapters into their projections in place, with the
    arithmetic of fold_adapters, so a forward of the merged weights
    equals one of fold_adapters(weights, adapters) bit for bit.

    Adapters are consumed: their matrices are zeroed and a second merge
    of the same set is rejected.
    """
    for per_layer in adapters:
        for target, a in per_layer.items():
            if a.merged:
                raise MergeError("adapters were already merged; attach fresh ones first")
    folded = fold_adapters(weights, adapters)
    for layer, new, per_layer in zip(weights.layers, folded.layers, adapters):
        for target, a in per_layer.items():
            getattr(layer, target).data = getattr(new, target).data
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
    # per layer, one [n_heads, n, past + n] array of probabilities per
    # sequence of n rows (past: the rows a cache held before the call)
    attention: list


class KVCache:
    """Every layer's key and value rows for the first `length` positions
    a cached forward has run, in buffers sized for the longest sequence
    of the config it was built for. A cached call writes its rows after
    the first `length` and moves `length` past them once every layer has
    run."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        shape = (config.n_layers, config.max_seq_len, config.d_model)
        self.k = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.length = 0


def forward(ids, weights: TransformerWeights, adapters=None, training: bool = False,
            rng=None, cache: KVCache | None = None, lengths=None) -> ForwardResult:
    """Run the decoder over sequences laid end to end, one result row per
    token of `ids`.

    lengths gives the sequences' lengths (default one sequence, (len(ids),)).
    Each runs as if passed alone: its positions start at 0, position t
    attends only to the positions <= t of its own sequence (attention is
    causal by construction and computes only the per-sequence blocks),
    and dropout masks are drawn sequence by sequence in the order
    separate calls would draw them. A stack's rows agree with separate calls to float32 rounding: a
    product over all rows may sum in another order than one over a
    sequence's rows. Run without adapters (adapters=None) or with
    still-zero ones, the result equals the base model's output exactly.
    In training mode the adapter branches drop out at
    config.lora_dropout, drawn from rng.

    While a tape records, the call runs the numcore primitives. Every
    other call runs on plain arrays, through the primitives' array
    functions and so with their arithmetic, bit for bit; it checks every
    weight, adapter and cache shape once, up front.

    A cache holds one sequence: ids are the tokens that follow its
    `length` and run at positions length, length + 1, ..., against the
    cached keys and values plus their own (attention maps are [n_heads,
    new, length + new]). The cache's length grows only once every layer
    has run, so a call that fails leaves it as it was. A cache cannot be
    used while a tape records, nor with more than one sequence. A fresh
    cache computes every row as the uncached call does, bit for bit;
    later calls agree with it to float32 rounding (one-row products sum
    in another order).
    """
    config = weights.config
    t = len(ids)
    start = 0 if cache is None else cache.length
    if t == 0:
        raise ModelError("forward needs at least one token")
    if lengths is None:
        lengths = (t,)
    if sum(lengths) != t or min(lengths) < 1:
        raise ModelError(f"lengths {list(lengths)} do not lay out {t} tokens")
    if cache is not None and len(lengths) > 1:
        raise ModelError("a key/value cache runs one sequence, not several")
    longest = max(lengths)
    if start + longest > config.max_seq_len:
        raise SequenceLengthError(
            f"sequence length {start + longest} exceeds max_seq_len {config.max_seq_len}")
    # bound on every call, so a function replaced in numcore is the one that runs
    if nc.active_tape() is not None:
        if cache is not None:
            raise ModelError("a key/value cache cannot be used while a tape records")
        gather, norm, project, attend = nc.embedding, nc.layer_norm, lora_apply, nc.attention
        add, mul, silu, result = nc.add, nc.mul, nc.silu, lambda x: x
    else:
        _check_shapes(weights, adapters, cache)
        gather, norm, project, attend = _gather, _norm, _project, nc._attention
        add, mul, silu, result = np.add, np.multiply, _silu, nc.Tensor
    keeps = {}
    if training and adapters is not None and config.lora_dropout > 0.0:
        keeps = _dropout_keeps(config, adapters, lengths, rng, weights.embed.dtype)

    def proj(x, li: int, target: str):
        adapter = None if adapters is None else adapters[li].get(target)
        return project(x, getattr(weights.layers[li], target), adapter, keeps.get((li, target)))

    stop = start + t
    positions = start + np.concatenate([np.arange(n) for n in lengths])
    attention: list = []
    h = add(gather(weights.embed, ids), gather(weights.pos, positions))
    for li, layer in enumerate(weights.layers):
        x = norm(h, layer.ln1_g, layer.ln1_b)
        q, k, v = proj(x, li, "wq"), proj(x, li, "wk"), proj(x, li, "wv")
        if cache is not None:
            cache.k[li, start:stop], cache.v[li, start:stop] = k, v
            k, v = cache.k[li, :stop], cache.v[li, :stop]
        ctx, probs = attend(q, k, v, config.n_heads, lengths)
        attention.append(probs)
        h = add(h, proj(ctx, li, "wo"))

        x = norm(h, layer.ln2_g, layer.ln2_b)
        gate = silu(proj(x, li, "w_gate"))
        h = add(h, proj(mul(gate, proj(x, li, "w_up")), li, "w_down"))
    if cache is not None:
        cache.length = stop

    logits = project(norm(h, weights.lnf_g, weights.lnf_b), weights.head, None, None)
    return ForwardResult(logits=result(logits), hidden=result(h), attention=attention)


# embedding, layer_norm, silu and lora_apply on arrays, for forward outside a tape

def _gather(table: nc.Tensor, ids) -> np.ndarray:
    return table.data[nc._token_rows(ids, len(table.data))]


def _norm(x: np.ndarray, gain: nc.Tensor, bias: nc.Tensor) -> np.ndarray:
    return nc._layer_norm(x, gain.data, bias.data)[0]


def _silu(x: np.ndarray) -> np.ndarray:
    return nc._silu(x)[0]


def _project(x: np.ndarray, w: nc.Tensor, adapter: LoraAdapter | None,
             keep: np.ndarray | None) -> np.ndarray:
    if adapter is None:
        return x @ w.data
    return nc._low_rank_matmul(x, w.data, adapter.down.data, adapter.up.data,
                               x.dtype.type(adapter.scale), keep)[0]


def _check_shapes(weights: TransformerWeights, adapters, cache: KVCache | None) -> None:
    """Raise ShapeError at the first weight, adapter or cache buffer whose
    shape is not the one the weights' config gives it. Names are
    formatted only for the error: this runs on every call outside a
    tape."""
    config = weights.config
    r = config.lora_rank
    shapes = _layer_shapes(config)
    if cache is not None:
        shape = (config.n_layers, config.max_seq_len, config.d_model)
        for name, buffer in (("k", cache.k), ("v", cache.v)):
            if buffer.shape != shape:
                raise nc.ShapeError(f"cache.{name} has shape {buffer.shape}, expected {shape}")
    for name, shape in _outer_shapes(config).items():
        if getattr(weights, name).data.shape != shape:
            raise _shape_error(name, getattr(weights, name), shape)
    for li, layer in enumerate(weights.layers):
        for f, shape in shapes.items():
            if getattr(layer, f).data.shape != shape:
                raise _shape_error(f"layers.{li}.{f}", getattr(layer, f), shape)
        for f, a in ({} if adapters is None else adapters[li]).items():
            d_in, d_out = shapes[f]
            if a.down.data.shape != (d_in, r):
                raise _shape_error(f"layers.{li}.lora.{f}.down", a.down, (d_in, r))
            if a.up.data.shape != (r, d_out):
                raise _shape_error(f"layers.{li}.lora.{f}.up", a.up, (r, d_out))


def _shape_error(name: str, t: nc.Tensor, shape: tuple[int, ...]) -> nc.ShapeError:
    return nc.ShapeError(f"{name} has shape {t.data.shape}, expected {shape}")


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
