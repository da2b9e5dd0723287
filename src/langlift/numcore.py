"""Dense float tensors with a reverse-mode autodiff tape.

Shapes are explicit: 2-D [rows, cols] for matrices, 1-D for bias/gain
vectors, 0-D for losses. Kernels are plain numpy; the only broadcasting
is bias-add. The tape is a plain list: every primitive appends an
(output, inputs, grad_fn) entry to the active one when some input
requires a gradient, and backward() pops the list in exact reverse
order, freeing each entry once replayed; a primitive computes
no gradient for an input that does not require one. Two fused
primitives, low_rank_matmul (a projection plus its adapter branch) and
attention (all heads of all the sequences laid end to end in its rows,
at once), each take one tape entry where their compositions take many.
Attention is causal by construction: it takes no mask.

The forward arithmetic of layer_norm, low_rank_matmul, silu and
attention lives in private functions on plain arrays (_layer_norm,
_low_rank_matmul, _silu, _attention), which the primitives call and
which model.forward calls directly whenever no tape records, so each
formula is written once.

Default dtype is float32. Float64 inputs are preserved as-is, which the
test suite uses for high-precision finite-difference checks; production
code never constructs float64 tensors.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

DTYPE = np.float32
_NEG_MASK = -1e9  # finite additive mask; underflows to exact 0 after softmax


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


# The active tape: a list of (out, inputs, grad_fn) entries, one per
# primitive application. Recording order is topological by construction,
# so backward walks the list in reverse. Tensors hold no reference back
# to the tape, so a closed tape and its intermediates are freed by
# reference counting as soon as the last name for the list goes.
_ACTIVE: list[tuple[Tensor, tuple[Tensor, ...], object]] | None = None


def active_tape() -> list | None:
    return _ACTIVE


@contextlib.contextmanager
def tape():
    """Context manager opening a fresh recording tape (an empty list)."""
    global _ACTIVE
    t = []
    prev = _ACTIVE
    _ACTIVE = t
    try:
        yield t
    finally:
        _ACTIVE = prev


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    if _ACTIVE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE.append((out, inputs, grad_fn))
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
    entries = [] if _ACTIVE is None else _ACTIVE
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


def _low_rank_matmul(x, w, down, up, s, keep):
    """low_rank_matmul on arrays: the output, the adapter branch's input
    and its rank-wide middle."""
    branch = x if keep is None else x * keep
    mid = branch @ down
    return x @ w + (mid @ up) * s, branch, mid


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
    y, branch, mid = _low_rank_matmul(x.data, w.data, down.data, up.data, s, keep)
    out = Tensor(y)

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


def _silu(x):
    """silu on an array: the output and the sigmoid of x."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x); the gate nonlinearity."""
    y, sig = _silu(x.data)
    out = Tensor(y)

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


def _layer_norm(x, gain, bias, eps=1e-5):
    """layer_norm on arrays: the output, the normalized rows and their
    inverse standard deviations."""
    inv_n = x.dtype.type(1.0 / x.shape[1])
    centred = x - x.sum(axis=1, keepdims=True) * inv_n
    var = (centred * centred).sum(axis=1, keepdims=True) * inv_n
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = centred * inv_std
    return xhat * gain + bias, xhat, inv_std


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer normalization with learned gain and bias."""
    if x.data.ndim != 2 or gain.data.ndim != 1 or bias.data.ndim != 1:
        raise ShapeError("layer_norm expects x [m,n], gain [n], bias [n]")
    if x.shape[1] != gain.shape[0] or x.shape[1] != bias.shape[0]:
        raise ShapeError(f"layer_norm width mismatch: {x.shape} vs {gain.shape}/{bias.shape}")
    y, xhat, inv_std = _layer_norm(x.data, gain.data, bias.data, eps)
    out = Tensor(y)

    def grad_fn(g):
        inv_n = x.dtype.type(1.0 / x.shape[1])
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


def _heads(x, n_heads):
    """[T, d] -> [n_heads, T, d // n_heads], a view."""
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


def _spans(lengths, past):
    """Each sequence's query rows and its key rows (the past ones included)."""
    lo = 0
    for n in lengths:
        yield slice(lo, lo + n), slice(lo, lo + n + past)
        lo += n


def _attention(q, k, v, n_heads, lengths):
    """attention on arrays whose layout the caller has checked: the head
    outputs side by side and the probabilities, one array per sequence."""
    (tq, d), past = q.shape, k.shape[0] - q.shape[0]
    longest = max(lengths)
    # a block of n > 1 rows adds mask[:n, :n + past]; a one-row block sees every key
    if longest > 1:
        mask = np.triu(np.full((longest, longest + past), _NEG_MASK, q.dtype), k=past + 1)
    s = q.dtype.type(1.0 / np.sqrt(d // n_heads))
    qh, kh, vh = _heads(q, n_heads), _heads(k, n_heads), _heads(v, n_heads)
    ctx = np.empty((tq, d), q.dtype)  # each block's head outputs land in its rows
    ctx_h = _heads(ctx, n_heads)
    probs = []
    for rq, rk in _spans(lengths, past):
        n = rq.stop - rq.start
        p = _attention_probs(qh[:, rq], kh[:, rk], mask[:n, :n + past] if n > 1 else 0.0, s)
        np.matmul(p, vh[:, rk], out=ctx_h[:, rq])
        probs.append(p)
    return ctx, probs


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              lengths=None) -> tuple[Tensor, list[np.ndarray]]:
    """Causal multi-head scaled dot-product attention over sequences laid
    end to end.

    q [Tq, d] holds sequences of the given lengths laid end to end
    (default one sequence, (Tq,)); k, v [Tk, d] hold the same rows, and a
    single sequence's keys may start past = Tk - Tq rows before its
    queries (the rows a key/value cache already holds). Each of q, k, v
    holds n_heads column blocks of width d // n_heads. Attention is causal
    by construction: a sequence of n rows attends only within itself, and
    its query i sees keys 0 .. past + i, so only the per-sequence blocks
    are computed. Returns the head outputs side by side, [Tq, d], and the
    attention probabilities as one [n_heads, n, n + past] array per
    sequence.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention needs 2-D q [Tq, d] and k, v [Tk, d], "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    (tq, d), tk = q.shape, k.shape[0]
    if d % n_heads:
        raise ShapeError(f"width {d} does not split into {n_heads} heads")
    if lengths is None:
        lengths = (tq,)
    past = tk - tq
    if sum(lengths) != tq or min(lengths) < 1 or past < 0 or (past and len(lengths) > 1):
        raise ShapeError(f"lengths {list(lengths)} do not lay out {tq} queries and {tk} keys")
    ctx, probs = _attention(q.data, k.data, v.data, n_heads, lengths)
    out = Tensor(ctx)

    def grad_fn(g):
        s = q.dtype.type(1.0 / np.sqrt(d // n_heads))
        qh, kh, vh, gh = (_heads(x, n_heads) for x in (q.data, k.data, v.data, g))
        gq, gk, gv = (np.empty((n, d), g.dtype) for n in (tq, tk, tk))
        gqh, gkh, gvh = _heads(gq, n_heads), _heads(gk, n_heads), _heads(gv, n_heads)
        for p, (rq, rk) in zip(probs, _spans(lengths, past)):
            gqh[:, rq], gkh[:, rk], gvh[:, rk] = _attention_grads(
                gh[:, rq], qh[:, rq], kh[:, rk], vh[:, rk], p, s)
        return gq, gk, gv

    return _maybe_record(out, (q, k, v), grad_fn), probs


def _token_rows(ids, n_rows: int) -> np.ndarray:
    """ids as a flat int64 index into a table of n_rows rows."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"token id out of range 0..{n_rows - 1}")
    return idx


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of table [V,d] at integer ids -> [len(ids), d]."""
    idx = _token_rows(ids, table.shape[0])
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


def dropout_keep(kept: np.ndarray, p: float, dtype) -> np.ndarray:
    """Inverted-dropout multiplier of a mask drawn as `rng.random(shape) >= p`:
    0 where dropped, else 1 / (1 - p)."""
    return kept.astype(dtype) / np.dtype(dtype).type(1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller supplies the generator so runs are replayable."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0,1), got {p}")
    if p == 0.0:
        return x
    keep = dropout_keep(rng.random(x.shape) >= p, p, x.dtype)
    out = Tensor(x.data * keep)

    def grad_fn(g):
        return (g * keep,)

    return _maybe_record(out, (x,), grad_fn)


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted sum of the rows' negative log-probabilities of targets.

    logits [T,V]; targets length T; weights length T (None weights every
    row 1 / T, the mean). Rows of weight 0 do not count. Raises
    EmptyLossError when no row has a non-zero weight.
    """
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy expects logits [T,V]")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != (logits.shape[0],):
        raise ShapeError(f"targets length {tgt.shape} does not match logits rows {logits.shape[0]}")
    if weights is None:
        w = np.full(tgt.shape, 1.0 / max(1, tgt.size))
    else:
        w = np.asarray(weights, dtype=np.float64)
    if w.shape != tgt.shape:
        raise ShapeError("weights length must match targets length")
    if not w.any():
        raise EmptyLossError("cross_entropy weights select no rows")
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
