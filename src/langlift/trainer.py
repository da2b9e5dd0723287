"""Stage training loop with adapter-only updates and exact resumability.

Every run is a pure function of (model state, dataset, config): batch
order derives from (seed, epoch), dropout noise from (seed, step), and
the learning rate from the step index alone, so a run resumed from a
checkpoint at step k reproduces the uninterrupted run bit for bit.

An optimizer step runs its records as stacks: consecutive records, each
trimmed to its last target, laid end to end up to the model's
max_seq_len rows, with one forward and one backward per stack. Inside a
stack every record keeps its own positions, attention and dropout
draws, and counts as the mean over its own targets, so the trained
weights differ from one tape per record only by float32 summation order
(one matrix product per stack sums the records' parameter gradients).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import numcore as nc
from .datapipe import PackedDataset, TrainExample
from .model import (ModelBundle, attach_adapters, forward, load_bundle,
                    merge_adapters, read_checkpoint, save_bundle, set_trainable,
                    write_checkpoint)

STAGES = ("target-cpt", "translation-cpt", "transform-sft")


class TrainerError(RuntimeError):
    pass


class TrainingDiverged(TrainerError):
    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


@dataclass
class StageConfig:
    stage: str
    peak_lr: float = 2e-4
    warmup_ratio: float = 0.01
    weight_decay: float = 0.0
    batch_size: int = 8
    grad_accum: int = 1
    max_epochs: int = 1
    cosine_horizon_epochs: int | None = None  # schedule horizon; None = max_epochs
    valid_every: int = 400
    seed: int = 0
    max_steps: int | None = None              # optional hard cap inside the epoch budget

    def __post_init__(self):
        if self.stage not in STAGES:
            raise TrainerError(f"unknown stage {self.stage!r}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise TrainerError("warmup_ratio must be in [0, 1)")
        if self.valid_every < 1:
            raise TrainerError("valid_every must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AblationToggles:
    use_lora: bool = True


def lr_at(step: int, total_steps: int, config: StageConfig) -> float:
    """Linear warmup from 0 to peak, then cosine down toward 0 at the
    horizon. Pure function of the step index and the config."""
    horizon_epochs = config.cosine_horizon_epochs or config.max_epochs
    horizon = max(1, int(round(total_steps * horizon_epochs / max(1, config.max_epochs))))
    warmup = int(math.floor(config.warmup_ratio * horizon))
    if warmup > 0 and step < warmup:
        return config.peak_lr * step / warmup
    progress = (step - warmup) / max(1, horizon - warmup)
    progress = min(progress, 1.0)
    return config.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Adam with decoupled weight decay. Moment buffers exist only for
    parameters that actually received gradients."""

    def __init__(self, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, named_params, lr: float) -> None:
        self.step_count += 1
        b1, b2 = self.betas
        correct1 = 1.0 - b1 ** self.step_count
        correct2 = 1.0 - b2 ** self.step_count
        for name, tensor in named_params:
            if tensor.grad is None:
                continue
            g = tensor.grad
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(tensor.data), np.zeros_like(tensor.data))
            m, v = self.moments[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * tensor.data
            tensor.data = tensor.data - np.asarray(lr, dtype=tensor.dtype) * update.astype(tensor.dtype)
            tensor.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, (m, v) in self.moments.items():
            out[f"opt.m.{name}"] = m
            out[f"opt.v.{name}"] = v
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        self.step_count = step_count
        self.moments = {}
        pairs: dict[str, dict[str, np.ndarray]] = {}
        for key, arr in arrays.items():
            if key.startswith("opt.m."):
                pairs.setdefault(key[len("opt.m."):], {})["m"] = arr
            elif key.startswith("opt.v."):
                pairs.setdefault(key[len("opt.v."):], {})["v"] = arr
        for name, mv in pairs.items():
            self.moments[name] = (mv["m"], mv["v"])


def _live_length(example: TrainExample) -> int:
    """Length up to the last target: nothing real follows it, so training
    never needs the rest."""
    live = np.flatnonzero(example.loss_mask)
    if live.size == 0:
        raise TrainerError("example has no target positions")
    return int(live[-1]) + 1


def stack_examples(examples) -> TrainExample:
    """The examples as one stack: each trimmed to its last target and laid
    end to end, so the stack ends on a target."""
    n = [_live_length(ex) for ex in examples]
    return TrainExample(ids=np.concatenate([ex.ids[:k] for ex, k in zip(examples, n)]),
                        loss_mask=np.concatenate([ex.loss_mask[:k] for ex, k in zip(examples, n)]),
                        lengths=tuple(n))


def _stacks(records, max_rows: int) -> list[TrainExample]:
    """Consecutive records grouped into stacks of at most max_rows rows
    (trimmed), in order; a record longer than that stands alone."""
    groups, rows = [], 0
    for ex in records:
        n = _live_length(ex)
        if not groups or rows + n > max_rows:
            groups.append([])
            rows = 0
        groups[-1].append(ex)
        rows += n
    return [stack_examples(g) for g in groups]


def example_loss(bundle: ModelBundle, example: TrainExample,
                 training: bool = False, rng=None) -> nc.Tensor:
    """Masked next-token cross entropy: the mean over the example's
    targets, or for a stack (see stack_examples) the mean over its
    sequences of each one's mean over its own targets.

    A single example is trimmed after its last target before the forward
    pass: nothing real follows it, so identical records give
    bit-identical losses however wide their batch was padded. A stack
    runs as one forward in which every sequence sees only itself (see
    model.forward), so its loss equals the mean of its sequences'
    one-by-one losses to float32 rounding, dropout included when the
    generator starts in the same state.
    """
    lengths = example.lengths or (_live_length(example),)
    n = sum(lengths)
    ids = example.ids[:n].tolist()
    out = forward(ids, bundle.weights, bundle.adapters, training=training, rng=rng,
                  lengths=example.lengths)
    # logits at position t predict token t+1; a sequence's last row
    # predicts nothing
    weights = np.zeros(n)
    start = 0
    for k in lengths:
        live = example.loss_mask[start + 1:start + k]
        if not live.any():
            raise TrainerError("example has no target positions")
        weights[start:start + k - 1] = live / (live.sum() * len(lengths))
        start += k
    return nc.cross_entropy(out.logits, ids[1:] + [0], weights=weights)


def evaluate_validation(bundle: ModelBundle, examples) -> float:
    """Mean of per-record masked losses; pure, no parameter mutation."""
    examples = list(examples)
    if not examples:
        raise TrainerError("validation set is empty")
    losses = [example_loss(bundle, ex).item() for ex in examples]
    return float(np.mean(losses))


def _step_plan(n_examples: int, config: StageConfig) -> list[list[int]]:
    """Example indices consumed by each optimizer step, for all epochs.

    Planning at the example level makes batch_size x grad_accum
    arithmetically one batch: (8, 1) and (4, 2) consume identical record
    sequences.
    """
    plan = []
    per_step = config.batch_size * max(1, config.grad_accum)
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, 401, epoch]).permutation(n_examples)
        for start in range(0, n_examples, per_step):
            plan.append([int(i) for i in order[start:start + per_step]])
    if config.max_steps is not None:
        plan = plan[:config.max_steps]
    return plan


def train_stage(bundle: ModelBundle, dataset: PackedDataset, config: StageConfig,
                toggles: AblationToggles | None = None, valid_examples=None,
                optimizer: AdamW | None = None, start_step: int = 0,
                select_best: bool = False, log=None) -> tuple[list[dict], AdamW]:
    """Run one training stage; returns (metrics, optimizer).

    Under use_lora the base projections, norms and positional table stay
    frozen and the adapters, embeddings, and head train; otherwise
    everything trains.
    Gradients of an optimizer step are the mean over all records in its
    accumulation window, each record weighted as the mean over its own
    targets, so grad_accum x batch_size is arithmetically one batch. The
    window's records run as stacks (see stack_examples), one tape each,
    at most max_seq_len rows per stack.
    """
    toggles = toggles or AblationToggles()
    if dataset.kind != config.stage:
        raise TrainerError(
            f"dataset kind {dataset.kind!r} does not match stage {config.stage!r}")
    if toggles.use_lora and bundle.adapters is None:
        raise TrainerError("use_lora requires attached adapters")
    if not toggles.use_lora and bundle.adapters is not None:
        raise TrainerError("full-parameter training must not have adapters attached")
    set_trainable(bundle, "lora" if toggles.use_lora else "full")

    if optimizer is None:
        optimizer = AdamW(weight_decay=config.weight_decay)
    examples = dataset.examples
    plan = _step_plan(len(examples), config)
    total_steps = len(plan)
    metrics: list[dict] = []
    best_loss = None
    best_state: dict[str, np.ndarray] | None = None

    nc.keep_freed_memory()
    params = list(bundle.named_parameters())
    for step in range(start_step, total_steps):
        records = [examples[i] for i in plan[step]]
        rng = np.random.default_rng([config.seed, 402, step])
        step_loss = 0.0
        for stack in _stacks(records, bundle.config.max_seq_len):
            # one tape per stack; leaf grads accumulate across stacks
            share = len(stack.lengths) / len(records)
            with nc.tape():
                loss = example_loss(bundle, stack, training=True, rng=rng)
                step_loss += loss.item() * share
                nc.backward(nc.scale(loss, share))
        if not math.isfinite(step_loss):
            raise TrainingDiverged(step)
        lr = lr_at(step, total_steps, config)
        optimizer.step(params, lr)

        entry = {"step": step, "lr": lr, "train_loss": step_loss}
        if valid_examples is not None and (step + 1) % config.valid_every == 0:
            vloss = evaluate_validation(bundle, valid_examples)
            entry["valid_loss"] = vloss
            if select_best and (best_loss is None or vloss < best_loss):
                best_loss = vloss
                best_state = {n: t.data.copy() for n, t in params if t.requires_grad}
        metrics.append(entry)
        if log is not None:
            log(entry)

    if select_best and best_state is not None:
        final = evaluate_validation(bundle, valid_examples)
        if best_loss < final:
            for n, t in params:
                if n in best_state:
                    t.data = best_state[n]
    return metrics, optimizer


def approx_full_ft(bundle: ModelBundle, seed: int) -> ModelBundle:
    """Fold the trained adapters into the base weights and attach fresh
    zero ones, approximating a full-parameter stage boundary."""
    if bundle.adapters is None:
        raise TrainerError("no adapters attached")
    merge_adapters(bundle.weights, bundle.adapters)
    attach_adapters(bundle, seed=seed)
    return bundle


def save_checkpoint(bundle: ModelBundle, optimizer: AdamW | None, path: str,
                    step: int = 0, stage: str = "", extra: dict | None = None) -> None:
    meta = {"step": step, "stage": stage}
    if extra:
        meta.update(extra)
    save_bundle(bundle, path, extra_meta=meta)
    if optimizer is not None and optimizer.moments:
        opt_dir = os.path.join(path, "optimizer")
        write_checkpoint(opt_dir, optimizer.state_arrays(),
                         {"step_count": optimizer.step_count})


def load_checkpoint(path: str, expect_vocab_hash: str | None = None):
    """Returns (bundle, optimizer-or-None, meta)."""
    bundle, meta = load_bundle(path, expect_vocab_hash=expect_vocab_hash)
    optimizer = None
    opt_dir = os.path.join(path, "optimizer")
    if os.path.isdir(opt_dir):
        arrays, opt_meta = read_checkpoint(opt_dir)
        optimizer = AdamW()
        optimizer.load_state_arrays(arrays, int(opt_meta["step_count"]))
    return bundle, optimizer, meta
