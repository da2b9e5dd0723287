"""Dense float tensors with a reverse-mode autodiff tape.

Shapes are explicit: 2-D [rows, cols] for matrices, 1-D for bias/gain
vectors, 0-D for losses. Kernels are plain numpy; the only broadcasting
is bias-add. Every primitive records onto the active tape when some
input requires a gradient, and backward() replays the tape in exact
reverse order, freeing each entry once replayed; a primitive computes
no gradient for an input that does not require one. Two fused
primitives, low_rank_matmul (a projection plus its adapter branch) and
attention (all heads, and any sequences laid end to end, at once), each
take one tape entry where their compositions take many.

Default dtype is float32. Float64 inputs are preserved as-is, which the
test suite uses for high-precision finite-difference checks; production
code never constructs float64 tensors.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class TapeError(RuntimeError):
    """backward() called on something the tape cannot differentiate."""


class EmptyLossError(ValueError):
    """Loss requested over zero positions."""


class Tensor:
    """A dense float array, optionally tracked for gradients.

    data is row-major; grad, when populated, has identical shape.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class ComputeTape:
    """Ordered record of primitive applications.

    Recording order is topological by construction, so backward simply
    walks the entries in reverse. Tensors hold no reference back to the
    tape, so a closed tape and its intermediates are freed as soon as
    the last name for it goes.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> None:
        out.requires_grad = True
        self._entries.append((out, inputs, grad_fn))


_ACTIVE: ComputeTape | None = None


def active_tape() -> ComputeTape | None:
    return _ACTIVE


@contextlib.contextmanager
def tape():
    """Context manager opening a fresh recording tape."""
    global _ACTIVE
    t = ComputeTape()
    prev = _ACTIVE
    _ACTIVE = t
    try:
        yield t
    finally:
        _ACTIVE = prev


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    if _ACTIVE is not None and any(t.requires_grad for t in inputs):
        _ACTIVE.record(out, inputs, grad_fn)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # rebinds instead of += so grads returned by several grad_fns may alias
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def backward(loss: Tensor) -> None:
    """Populate gradients of everything that produced a scalar loss.

    Walks the active tape in exact reverse order from the entry that
    recorded the loss, consuming it: each entry, and the gradient of the
    tensor it produced, is dropped as soon as it has been replayed, so
    only leaves (tensors no entry produced) keep a .grad, and memory
    held for the backward pass shrinks as it runs. Tensors with
    requires_grad=False never receive a gradient.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward root must be scalar, got shape {loss.data.shape}")
    entries = [] if _ACTIVE is None else _ACTIVE._entries
    end = next((i for i in range(len(entries) - 1, -1, -1) if entries[i][0] is loss), None)
    if end is None:
        raise TapeError("backward root was not recorded on the active tape "
                        "(or the tape was already consumed by a backward pass)")
    del entries[end + 1:]
    loss.grad = np.ones_like(loss.data)
    while entries:
        out, inputs, grad_fn = entries.pop()
        g_out, out.grad = out.grad, None
        if g_out is None:
            continue
        grads = grad_fn(g_out)
        for inp, g in zip(inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            _accumulate(inp, g)


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def keep_freed_memory() -> None:
    """Have the C allocator keep freed memory for reuse instead of handing
    it back to the kernel.

    backward frees a tape entry by entry while it allocates gradients,
    and the next forward allocates a whole tape again. Under glibc's
    default thresholds that memory went back to the kernel during every
    backward and was faulted in again page by page on the next forward,
    and what a page fault costs varies with the host's load. Here arrays
    up to 32 MB come from the heap and up to 64 MB of free heap stay
    mapped. Process-wide; a no-op where the C library has no mallopt.
    """
    import ctypes  # loaded only by a process that trains
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [m,k] @ b [k,n] -> [m,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def grad_fn(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _maybe_record(out, (a, b), grad_fn)


def low_rank_matmul(x: Tensor, w: Tensor, down: Tensor, up: Tensor, scale: float,
                    keep: np.ndarray | None = None) -> Tensor:
    """x @ w + scale * ((x * keep) @ down) @ up: a projection plus a
    low-rank update, as one tape entry. keep (a dropout multiplier
    shaped like x, or None) applies to the low-rank branch only."""
    if x.data.ndim != 2 or w.data.ndim != 2 or down.data.ndim != 2 or up.data.ndim != 2:
        raise ShapeError("low_rank_matmul needs 2-D operands")
    if (x.shape[1] != w.shape[0] or down.shape != (w.shape[0], up.shape[0])
            or up.shape[1] != w.shape[1]):
        raise ShapeError(f"low-rank shapes disagree: x {x.shape}, w {w.shape}, "
                         f"down {down.shape}, up {up.shape}")
    if keep is not None and keep.shape != x.shape:
        raise ShapeError(f"keep shape {keep.shape} does not match x {x.shape}")
    s = x.dtype.type(scale)
    branch = x.data if keep is None else x.data * keep
    mid = branch @ down.data
    out = Tensor(x.data @ w.data + (mid @ up.data) * s)

    def grad_fn(g):
        gs = g * s
        gmid = gs @ up.data.T
        gx = None
        if x.requires_grad:
            gb = gmid @ down.data.T
            gx = g @ w.data.T + (gb if keep is None else gb * keep)
        return (gx,
                x.data.T @ g if w.requires_grad else None,
                branch.T @ gmid if down.requires_grad else None,
                mid.T @ gs if up.requires_grad else None)

    return _maybe_record(out, (x, w, down, up), grad_fn)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D operand, got {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.T))

    def grad_fn(g):
        return (np.ascontiguousarray(g.T),)

    return _maybe_record(out, (x,), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1-D bias added to every row of a."""
    bias = a.data.ndim == 2 and b.data.ndim == 1
    if bias:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"bias length {b.shape[0]} does not match columns {a.shape[1]}")
    elif a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def grad_fn(g):
        return g, (g.sum(axis=0) if bias else g)

    return _maybe_record(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise multiply of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        return g * b.data, g * a.data

    return _maybe_record(out, (a, b), grad_fn)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * x.dtype.type(s))

    def grad_fn(g):
        return (g * s,)

    return _maybe_record(out, (x,), grad_fn)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def grad_fn(g):
        return (g * (x.data > 0),)

    return _maybe_record(out, (x,), grad_fn)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x); the gate nonlinearity."""
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * sig)

    def grad_fn(g):
        return (g * sig * (1.0 + x.data * (1.0 - sig)),)

    return _maybe_record(out, (x,), grad_fn)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D operand, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def grad_fn(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _maybe_record(out, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer normalization with learned gain and bias."""
    if x.data.ndim != 2 or gain.data.ndim != 1 or bias.data.ndim != 1:
        raise ShapeError("layer_norm expects x [m,n], gain [n], bias [n]")
    if x.shape[1] != gain.shape[0] or x.shape[1] != bias.shape[0]:
        raise ShapeError(f"layer_norm width mismatch: {x.shape} vs {gain.shape}/{bias.shape}")
    inv_n = x.dtype.type(1.0 / x.shape[1])
    centred = x.data - x.data.sum(axis=1, keepdims=True) * inv_n
    var = (centred * centred).sum(axis=1, keepdims=True) * inv_n
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = centred * inv_std
    out = Tensor(xhat * gain.data + bias.data)

    def grad_fn(g):
        gy = g * gain.data
        m1 = gy.sum(axis=1, keepdims=True) * inv_n
        m2 = (gy * xhat).sum(axis=1, keepdims=True) * inv_n
        gx = inv_std * (gy - m1 - xhat * m2)
        return (gx,
                (g * xhat).sum(axis=0) if gain.requires_grad else None,
                g.sum(axis=0) if bias.requires_grad else None)

    return _maybe_record(out, (x, gain, bias), grad_fn)


def _attention_probs(qh, kh, mask, s):
    """Per-head softmax of scaled scores plus mask: [H, Tq, dh] x [H, Tk, dh] -> [H, Tq, Tk]."""
    scores = (qh @ kh.transpose(0, 2, 1)) * s + mask
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def _attention_grads(gh, qh, kh, vh, probs, s):
    """Gradients of q, k and v heads given the output heads' gradient gh."""
    gp = gh @ vh.transpose(0, 2, 1)
    gs = probs * (gp - (gp * probs).sum(axis=2, keepdims=True)) * s
    return gs @ kh, gs.transpose(0, 2, 1) @ qh, probs.transpose(0, 2, 1) @ gh


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray,
              lengths=None) -> tuple[Tensor, np.ndarray | list[np.ndarray]]:
    """Multi-head scaled dot-product attention over rows.

    q [Tq, d] attends against k, v [Tk, d]; each holds n_heads column
    blocks of width d // n_heads. mask [Tq, Tk] is added to every head's
    scores (a large negative above the diagonal makes it causal).
    Returns the head outputs side by side, [Tq, d], and the attention
    probabilities [n_heads, Tq, Tk].

    With lengths, q, k and v hold sequences of those lengths laid end to
    end (Tq == Tk == sum(lengths)). Each attends only within itself, with
    mask's leading [L, L] block as its mask, so only the per-sequence
    blocks are computed; the probabilities come back as a list of one
    [n_heads, L, L] array per sequence.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention needs 2-D q [Tq, d] and k, v [Tk, d], "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    (tq, d), tk = q.shape, k.shape[0]
    if d % n_heads:
        raise ShapeError(f"width {d} does not split into {n_heads} heads")
    if lengths is None:
        if mask.shape != (tq, tk):
            raise ShapeError(f"mask shape {mask.shape} does not match {tq} queries by {tk} keys")
    elif tq != tk or sum(lengths) != tq:
        raise ShapeError(f"lengths {list(lengths)} do not lay out {tq} queries and {tk} keys")
    elif max(lengths) > min(mask.shape):
        raise ShapeError(f"mask shape {mask.shape} is smaller than a {max(lengths)}-row sequence")
    dh = d // n_heads
    s = q.dtype.type(1.0 / np.sqrt(dh))

    def heads(x):  # [T, d] -> [H, T, dh]
        return x.reshape(x.shape[0], n_heads, dh).transpose(1, 0, 2)

    def rows(x):  # [H, T, dh] -> [T, d]
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    if lengths is None:
        probs = _attention_probs(qh, kh, mask, s)
        out = Tensor(rows(probs @ vh))

        def grad_fn(g):
            return tuple(rows(x) for x in _attention_grads(heads(g), qh, kh, vh, probs, s))
    else:
        ends = np.cumsum(lengths).tolist()
        spans = [slice(e - n, e) for n, e in zip(lengths, ends)]
        probs = [_attention_probs(qh[:, r], kh[:, r], mask[:n, :n], s)
                 for r, n in zip(spans, lengths)]
        out = Tensor(rows(np.concatenate([p @ vh[:, r] for p, r in zip(probs, spans)], axis=1)))

        def grad_fn(g):
            gh = heads(g)
            per_block = [_attention_grads(gh[:, r], qh[:, r], kh[:, r], vh[:, r], p, s)
                         for p, r in zip(probs, spans)]
            return tuple(rows(np.concatenate(x, axis=1)) for x in zip(*per_block))

    return _maybe_record(out, (q, k, v), grad_fn), probs


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of table [V,d] at integer ids -> [len(ids), d]."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"token id out of range 0..{table.shape[0] - 1}")
    out = Tensor(table.data[idx])

    def grad_fn(g):
        if not table.requires_grad:
            return (None,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _maybe_record(out, (table,), grad_fn)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError("slice_cols needs a 2-D operand")
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"column slice [{start}:{stop}] out of range for {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data[:, start:stop]))

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _maybe_record(out, (x,), grad_fn)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_cols needs at least one part")
    rows = parts[0].shape[0]
    if any(p.data.ndim != 2 or p.shape[0] != rows for p in parts):
        raise ShapeError("concat_cols parts must be 2-D with equal row counts")
    widths = [p.shape[1] for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))

    def grad_fn(g):
        grads = []
        offset = 0
        for w in widths:
            grads.append(np.ascontiguousarray(g[:, offset:offset + w]))
            offset += w
        return tuple(grads)

    return _maybe_record(out, tuple(parts), grad_fn)


def dropout_keep(shape, p: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability p, else 1 / (1 - p)."""
    return (rng.random(shape) >= p).astype(dtype) / np.dtype(dtype).type(1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller supplies the generator so runs are replayable."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0,1), got {p}")
    if p == 0.0:
        return x
    keep = dropout_keep(x.shape, p, rng, x.dtype)
    out = Tensor(x.data * keep)

    def grad_fn(g):
        return (g * keep,)

    return _maybe_record(out, (x,), grad_fn)


def cross_entropy(logits: Tensor, targets, mask=None, weights=None) -> Tensor:
    """Mean negative log-probability of targets over masked positions.

    logits [T,V]; targets length T; mask length T of booleans (None means
    every position counts). Given per-row weights (length T, instead of a
    mask), the loss is instead the weighted sum of the rows' negative
    log-probabilities; rows of weight 0 do not count. Raises
    EmptyLossError when no position is live.
    """
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy expects logits [T,V]")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != (logits.shape[0],):
        raise ShapeError(f"targets length {tgt.shape} does not match logits rows {logits.shape[0]}")
    if mask is not None and weights is not None:
        raise ValueError("cross_entropy takes a mask or weights, not both")
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        live = w != 0
    else:
        live = np.ones(tgt.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        w = live / max(1, live.sum())
    if live.shape != tgt.shape:
        raise ShapeError("mask or weights length must match targets length")
    if not live.any():
        raise EmptyLossError("cross_entropy mask selects no positions")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= logits.shape[1]):
        raise IndexError("target id out of vocabulary range")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(logits.shape[0])
    loss = ((log_z - shifted[rows, tgt]) * w).sum()
    out = Tensor(np.asarray(loss, dtype=logits.dtype))

    def grad_fn(g):
        probs = np.exp(shifted - log_z[:, None])
        probs[rows, tgt] -= 1.0
        probs *= w[:, None]
        return (probs * g,)

    return _maybe_record(out, (logits,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.dtype))

    def grad_fn(g):
        return (np.full_like(x.data, 1.0) * g,)

    return _maybe_record(out, (x,), grad_fn)
