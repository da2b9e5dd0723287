import gc
import resource
import sys
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlift import numcore as nc
from gradcheck import assert_grads_close


def t64(arr, requires_grad=False):
    return nc.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    ident = nc.Tensor(np.eye(2))
    m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nc.matmul(ident, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_zero_row_selection():
    a = nc.Tensor([[1.0, 0.0]])
    b = nc.Tensor([[0.0], [5.0]])
    assert nc.matmul(a, b).data.tolist() == [[0.0]]


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    expected = np.zeros((3, 2), dtype=np.float64)
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += float(a[i, k]) * float(b[k, j])
    out = nc.matmul(nc.Tensor(a), nc.Tensor(b))
    assert np.abs(out.data - expected).max() < 1e-6


def test_matmul_shape_error():
    with pytest.raises(nc.ShapeError):
        nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# fused primitives against their compositions
# ---------------------------------------------------------------------------

def test_low_rank_matmul_matches_composition():
    rng = np.random.default_rng(4)
    x, w = t64(rng.normal(size=(5, 6))), t64(rng.normal(size=(6, 3)))
    down, up = t64(rng.normal(size=(6, 2))), t64(rng.normal(size=(2, 3)))
    keep = (rng.random((5, 6)) >= 0.3) / 0.7
    branch = nc.mul(x, nc.Tensor(keep))
    expected = nc.add(nc.matmul(x, w),
                      nc.scale(nc.matmul(nc.matmul(branch, down), up), 1.7)).data
    out = nc.low_rank_matmul(x, w, down, up, 1.7, keep).data
    assert np.abs(out - expected).max() < 1e-12


def test_attention_matches_per_head_composition():
    rng = np.random.default_rng(5)
    t, d, n_heads = 5, 8, 2
    q, k, v = (t64(rng.normal(size=(t, d))) for _ in range(3))
    mask = np.triu(np.full((t, t), -1e9), k=1)
    dh = d // n_heads
    heads, probs = [], []
    for lo in range(0, d, dh):
        qh, kh, vh = (nc.slice_cols(m, lo, lo + dh) for m in (q, k, v))
        scores = nc.add(nc.scale(nc.matmul(qh, nc.transpose(kh)), 1 / np.sqrt(dh)),
                        nc.Tensor(mask))
        p = nc.softmax_rows(scores)
        probs.append(p.data)
        heads.append(nc.matmul(p, vh))
    out, got = nc.attention(q, k, v, n_heads, mask)
    assert np.abs(out.data - nc.concat_cols(heads).data).max() < 1e-12
    assert np.abs(got - np.stack(probs)).max() < 1e-12
    assert np.all(np.triu(got, k=1) == 0.0)


def test_attention_rectangular_rows_match_square():
    rng = np.random.default_rng(7)
    t, d, n_heads = 6, 8, 2
    q, k, v = (t64(rng.normal(size=(t, d))) for _ in range(3))
    mask = np.triu(np.full((t, t), -1e9), k=1)
    square, square_probs = nc.attention(q, k, v, n_heads, mask)
    for start in range(t):
        out, probs = nc.attention(t64(q.data[start:]), k, v, n_heads, mask[start:])
        assert out.shape == (t - start, d) and probs.shape == (n_heads, t - start, t)
        assert np.abs(out.data - square.data[start:]).max() < 1e-12
        assert np.abs(probs - square_probs[:, start:]).max() < 1e-12


def test_attention_rejects_mismatched_shapes():
    rng = np.random.default_rng(8)
    q = t64(rng.normal(size=(2, 4)))
    k, v = (t64(rng.normal(size=(5, 4))) for _ in range(2))
    for mask in (np.zeros((5, 5)), np.zeros((2, 4)), np.zeros((5, 2))):
        with pytest.raises(nc.ShapeError):
            nc.attention(q, k, v, 2, mask)
    with pytest.raises(nc.ShapeError):
        nc.attention(q, k, t64(rng.normal(size=(4, 4))), 2, np.zeros((2, 5)))
    with pytest.raises(nc.ShapeError):
        nc.attention(q, t64(rng.normal(size=(5, 6))), v, 2, np.zeros((2, 5)))


def test_frozen_inputs_get_no_gradient_from_fused_primitives():
    rng = np.random.default_rng(6)
    x = t64(rng.normal(size=(4, 6)), requires_grad=True)
    w = t64(rng.normal(size=(6, 6)))
    down = t64(rng.normal(size=(6, 2)))
    up = t64(rng.normal(size=(2, 6)), requires_grad=True)
    with nc.tape():
        y = nc.low_rank_matmul(x, w, down, up, 2.0)
        out, _ = nc.attention(y, y, y, 2, np.triu(np.full((4, 4), -1e9), k=1))
        nc.backward(nc.sum_all(out))
    assert x.grad is not None and up.grad is not None
    assert w.grad is None and down.grad is None


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform_row():
    out = nc.softmax_rows(nc.Tensor([[2.0, 2.0, 2.0, 2.0]]))
    assert np.abs(out.data - 0.25).max() < 1e-6


def test_softmax_closed_form():
    out = nc.softmax_rows(nc.Tensor([[0.0, np.log(3.0)]]))
    assert np.abs(out.data - np.array([[0.25, 0.75]])).max() < 1e-6


@settings(max_examples=50, deadline=None)
@given(
    row=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    shift=st.floats(-50, 50),
)
def test_softmax_shift_invariance_and_row_sum(row, shift):
    x32 = np.array([row], dtype=np.float32)
    base32 = nc.softmax_rows(nc.Tensor(x32)).data
    assert abs(base32.sum() - 1.0) < 1e-6
    assert (base32 >= 0).all()
    # the shift comparison runs at f64: adding the constant in f32 already
    # perturbs the inputs by more than the assertion budget
    x64 = np.array([row], dtype=np.float64)
    base = nc.softmax_rows(nc.Tensor(x64)).data
    shifted = nc.softmax_rows(nc.Tensor(x64 + shift)).data
    assert np.abs(base - shifted).max() < 1e-6


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_certain_prediction():
    logits = np.full((3, 4), -100.0, dtype=np.float32)
    targets = [1, 2, 0]
    for i, t in enumerate(targets):
        logits[i, t] = 100.0
    loss = nc.cross_entropy(nc.Tensor(logits), targets)
    assert loss.item() < 1e-6


def test_cross_entropy_uniform_logits():
    loss = nc.cross_entropy(nc.Tensor(np.zeros((5, 4), dtype=np.float32)), [0, 1, 2, 3, 0])
    assert abs(loss.item() - np.log(4.0)) < 1e-6


def test_cross_entropy_mask_matches_per_position_oracle():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 5)).astype(np.float32)
    targets = rng.integers(0, 5, size=6).tolist()
    mask = [True, False, True, False, True, False]

    # independent oracle: per-position NLL via plain numpy, then mean over kept
    per_pos = []
    for i in range(6):
        row = logits[i].astype(np.float64)
        p = np.exp(row - row.max())
        p /= p.sum()
        per_pos.append(-np.log(p[targets[i]]))
    expected = np.mean([v for v, m in zip(per_pos, mask) if m])

    loss = nc.cross_entropy(nc.Tensor(logits), targets, mask)
    assert abs(loss.item() - expected) < 1e-6


def test_cross_entropy_all_false_mask():
    with pytest.raises(nc.EmptyLossError):
        nc.cross_entropy(nc.Tensor(np.zeros((2, 3))), [0, 1], [False, False])


# ---------------------------------------------------------------------------
# backward / tape
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = nc.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with nc.tape():
        loss = nc.sum_all(x)
        nc.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_skips_frozen_tensors():
    x = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    w = nc.Tensor(np.ones((2, 2)), requires_grad=False)
    with nc.tape():
        loss = nc.sum_all(nc.matmul(x, w))
        nc.backward(loss)
    assert x.grad is not None
    assert w.grad is None


def test_backward_rejects_nonscalar_root():
    x = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    with nc.tape():
        y = nc.scale(x, 2.0)
        with pytest.raises(nc.TapeError):
            nc.backward(y)


def test_backward_requires_tape():
    x = nc.Tensor(np.ones(()), requires_grad=True)
    with pytest.raises(nc.TapeError):
        nc.backward(x)


def test_no_recording_outside_tape():
    x = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    y = nc.matmul(x, x)
    assert not y.requires_grad


def test_closed_tape_freed_without_cycle_collection():
    x = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    gc.disable()
    try:
        with nc.tape() as t:
            loss = nc.sum_all(nc.matmul(x, x))
            nc.backward(loss)
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_backward_after_tape_closed_rejected():
    x = nc.Tensor(np.ones((2, 2)), requires_grad=True)
    with nc.tape():
        loss = nc.sum_all(nc.matmul(x, x))
    with pytest.raises(nc.TapeError):
        nc.backward(loss)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    leaves = {
        "w1": t64(rng.normal(0, 0.5, (4, 5))),
        "b1": t64(rng.normal(0, 0.5, 5)),
        "w2": t64(rng.normal(0, 0.5, (5, 3))),
        "x": t64(rng.normal(0, 1.0, (2, 4))),
    }
    targets = [0, 2]

    def loss():
        h = nc.relu(nc.add(nc.matmul(leaves["x"], leaves["w1"]), leaves["b1"]))
        logits = nc.matmul(h, leaves["w2"])
        return nc.cross_entropy(logits, targets)

    assert_grads_close(loss, leaves)


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)).astype(np.float32)
    b = rng.normal(size=(8, 8)).astype(np.float32)
    r1 = nc.softmax_rows(nc.matmul(nc.Tensor(a), nc.Tensor(b))).data
    r2 = nc.softmax_rows(nc.matmul(nc.Tensor(a), nc.Tensor(b))).data
    assert np.array_equal(r1, r2)


# ---------------------------------------------------------------------------
# per-primitive finite-difference checks
# ---------------------------------------------------------------------------

def _weighted(out, coeffs):
    return nc.sum_all(nc.mul(out, nc.Tensor(coeffs)))


PRIMS = {}


def prim(name):
    def deco(fn):
        PRIMS[name] = fn
        return fn
    return deco


@prim("matmul")
def _fd_matmul(rng):
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=(4, 2)))
    c = rng.normal(size=(3, 2))
    return lambda: _weighted(nc.matmul(a, b), c), {"a": a, "b": b}


@prim("low_rank_matmul")
def _fd_low_rank_matmul(rng):
    x = t64(rng.normal(size=(3, 4)))
    w = t64(rng.normal(size=(4, 5)))
    down = t64(rng.normal(size=(4, 2)))
    up = t64(rng.normal(size=(2, 5)))
    keep = (rng.random((3, 4)) >= 0.3) / 0.7
    c = rng.normal(size=(3, 5))
    return (lambda: _weighted(nc.low_rank_matmul(x, w, down, up, 1.7, keep), c),
            {"x": x, "w": w, "down": down, "up": up})


@prim("transpose")
def _fd_transpose(rng):
    x = t64(rng.normal(size=(3, 4)))
    c = rng.normal(size=(4, 3))
    return lambda: _weighted(nc.transpose(x), c), {"x": x}


@prim("add")
def _fd_add(rng):
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=(3, 4)))
    c = rng.normal(size=(3, 4))
    return lambda: _weighted(nc.add(a, b), c), {"a": a, "b": b}


@prim("bias_add")
def _fd_bias_add(rng):
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=4))
    c = rng.normal(size=(3, 4))
    return lambda: _weighted(nc.add(a, b), c), {"a": a, "b": b}


@prim("mul")
def _fd_mul(rng):
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=(3, 4)))
    c = rng.normal(size=(3, 4))
    return lambda: _weighted(nc.mul(a, b), c), {"a": a, "b": b}


@prim("scale")
def _fd_scale(rng):
    x = t64(rng.normal(size=(3, 4)))
    c = rng.normal(size=(3, 4))
    return lambda: _weighted(nc.scale(x, 0.37), c), {"x": x}


@prim("relu")
def _fd_relu(rng):
    # keep entries at least 0.5 away from the kink: push each draw
    # outwards along its own sign
    draw = rng.normal(size=(3, 4))
    x = t64(draw + np.sign(draw) * 0.5)
    c = rng.normal(size=(3, 4))
    return lambda: _weighted(nc.relu(x), c), {"x": x}


@prim("silu")
def _fd_silu(rng):
    x = t64(rng.normal(size=(3, 4)))
    c = rng.normal(size=(3, 4))
    return lambda: _weighted(nc.silu(x), c), {"x": x}


@prim("softmax_rows")
def _fd_softmax(rng):
    x = t64(rng.normal(size=(3, 5)))
    c = rng.normal(size=(3, 5))
    return lambda: _weighted(nc.softmax_rows(x), c), {"x": x}


@prim("attention")
def _fd_attention(rng):
    q, k, v = (t64(rng.normal(size=(4, 6))) for _ in range(3))
    mask = np.triu(np.full((4, 4), -1e9), k=1)
    c = rng.normal(size=(4, 6))
    return (lambda: _weighted(nc.attention(q, k, v, 2, mask)[0], c),
            {"q": q, "k": k, "v": v})


@prim("attention_rectangular")
def _fd_attention_rectangular(rng):
    # the last two rows of a five-token sequence, against all five keys
    q = t64(rng.normal(size=(2, 6)))
    k, v = (t64(rng.normal(size=(5, 6))) for _ in range(2))
    mask = np.triu(np.full((5, 5), -1e9), k=1)[3:]
    c = rng.normal(size=(2, 6))
    return (lambda: _weighted(nc.attention(q, k, v, 2, mask)[0], c),
            {"q": q, "k": k, "v": v})


@prim("attention_stacked")
def _fd_attention_stacked(rng):
    # three sequences laid end to end, each attending only within itself
    q, k, v = (t64(rng.normal(size=(9, 6))) for _ in range(3))
    mask = np.triu(np.full((4, 4), -1e9), k=1)
    c = rng.normal(size=(9, 6))
    return (lambda: _weighted(nc.attention(q, k, v, 2, mask, lengths=(4, 2, 3))[0], c),
            {"q": q, "k": k, "v": v})


@prim("layer_norm")
def _fd_layer_norm(rng):
    x = t64(rng.normal(size=(3, 6)))
    g = t64(rng.normal(1.0, 0.2, 6))
    b = t64(rng.normal(0.0, 0.2, 6))
    c = rng.normal(size=(3, 6))
    return lambda: _weighted(nc.layer_norm(x, g, b), c), {"x": x, "g": g, "b": b}


@prim("embedding")
def _fd_embedding(rng):
    table = t64(rng.normal(size=(7, 4)))
    ids = [0, 3, 3, 6]
    c = rng.normal(size=(4, 4))
    return lambda: _weighted(nc.embedding(table, ids), c), {"table": table}


@prim("slice_cols")
def _fd_slice(rng):
    x = t64(rng.normal(size=(3, 6)))
    c = rng.normal(size=(3, 3))
    return lambda: _weighted(nc.slice_cols(x, 1, 4), c), {"x": x}


@prim("concat_cols")
def _fd_concat(rng):
    a = t64(rng.normal(size=(3, 2)))
    b = t64(rng.normal(size=(3, 4)))
    c = rng.normal(size=(3, 6))
    return lambda: _weighted(nc.concat_cols([a, b]), c), {"a": a, "b": b}


@prim("dropout")
def _fd_dropout(rng):
    x = t64(rng.normal(size=(4, 5)))
    c = rng.normal(size=(4, 5))
    # fixed generator seed -> fixed mask for every re-evaluation
    return lambda: _weighted(nc.dropout(x, 0.3, np.random.default_rng(11)), c), {"x": x}


@prim("cross_entropy")
def _fd_cross_entropy(rng):
    x = t64(rng.normal(size=(4, 6)))
    targets = [1, 5, 0, 2]
    mask = [True, True, False, True]
    return lambda: nc.cross_entropy(x, targets, mask), {"x": x}


@prim("cross_entropy_weighted")
def _fd_cross_entropy_weighted(rng):
    x = t64(rng.normal(size=(5, 6)))
    targets = [1, 5, 0, 2, 4]
    weights = [0.25, 0.0, 0.5, 0.125, 0.0]
    return lambda: nc.cross_entropy(x, targets, weights=weights), {"x": x}


@prim("sum_all")
def _fd_sum(rng):
    x = t64(rng.normal(size=(3, 4)))
    return lambda: nc.sum_all(x), {"x": x}


@pytest.mark.parametrize("name", sorted(PRIMS))
def test_primitive_gradients(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    build_loss, leaves = PRIMS[name](rng)
    assert_grads_close(build_loss, leaves)


# ---------------------------------------------------------------------------
# sequences laid end to end, weighted losses, a consumed tape
# ---------------------------------------------------------------------------

def test_attention_stacked_rows_match_separate_sequences():
    rng = np.random.default_rng(21)
    lengths, d, n_heads = (5, 1, 3, 4), 8, 2
    q, k, v = (t64(rng.normal(size=(sum(lengths), d))) for _ in range(3))
    mask = np.triu(np.full((5, 5), -1e9), k=1)
    out, probs = nc.attention(q, k, v, n_heads, mask, lengths=lengths)
    assert [p.shape for p in probs] == [(n_heads, n, n) for n in lengths]
    start = 0
    for n, p in zip(lengths, probs):
        rows = slice(start, start + n)
        alone, alone_probs = nc.attention(t64(q.data[rows]), t64(k.data[rows]),
                                          t64(v.data[rows]), n_heads, mask[:n, :n])
        assert np.abs(out.data[rows] - alone.data).max() < 1e-12
        assert np.abs(p - alone_probs).max() < 1e-12
        start += n


def test_attention_stacked_rejects_bad_lengths():
    q = t64(np.ones((5, 4)))
    with pytest.raises(nc.ShapeError):  # lengths do not add up to the rows
        nc.attention(q, q, q, 2, np.zeros((3, 3)), lengths=(2, 2))
    with pytest.raises(nc.ShapeError):  # the mask is smaller than a sequence
        nc.attention(q, q, q, 2, np.zeros((2, 2)), lengths=(2, 3))
    k = t64(np.ones((4, 4)))
    with pytest.raises(nc.ShapeError):  # queries and keys differ in rows
        nc.attention(q, k, k, 2, np.zeros((3, 3)), lengths=(2, 3))


def test_cross_entropy_weights_are_a_weighted_sum():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 4))
    targets = [0, 3, 1, 1, 2]
    weights = [0.5, 0.0, 0.25, 0.25, 0.0]
    nll = [np.log(np.exp(row).sum()) - row[t] for row, t in zip(logits, targets)]
    loss = nc.cross_entropy(t64(logits), targets, weights=weights)
    assert abs(loss.item() - float(np.dot(weights, nll))) < 1e-12
    mask = [True, False, True, True, False]
    uniform = [1 / 3 if m else 0.0 for m in mask]
    assert abs(nc.cross_entropy(t64(logits), targets, mask).item()
               - nc.cross_entropy(t64(logits), targets, weights=uniform).item()) < 1e-12
    with pytest.raises(nc.EmptyLossError):
        nc.cross_entropy(t64(logits), targets, weights=[0.0] * 5)
    with pytest.raises(ValueError):
        nc.cross_entropy(t64(logits), targets, mask, weights=uniform)


def test_backward_consumes_the_tape():
    rng = np.random.default_rng(4)
    x = t64(rng.normal(size=(3, 4)), requires_grad=True)
    w = t64(rng.normal(size=(4, 2)), requires_grad=True)
    with nc.tape() as t:
        h = nc.matmul(x, w)
        y = nc.silu(h)
        loss = nc.sum_all(y)
        nc.backward(loss)
        assert len(t) == 0
        with pytest.raises(nc.TapeError):
            nc.backward(loss)
    # leaves hold the same gradients the chain rule gives
    sig = 1.0 / (1.0 + np.exp(-h.data))
    gh = sig * (1.0 + h.data * (1.0 - sig))
    assert np.abs(x.grad - gh @ w.data.T).max() < 1e-12
    assert np.abs(w.grad - x.data.T @ gh).max() < 1e-12
    assert h.grad is None and y.grad is None and loss.grad is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_kept_freed_memory_is_reused_without_page_faults():
    # each step's tape and gradients take about 20 MB, freed during backward
    nc.keep_freed_memory()
    rng = np.random.default_rng(5)
    ws = [nc.Tensor(rng.normal(size=(256, 256)).astype(np.float32) * 0.05, requires_grad=True)
          for _ in range(8)]
    x = nc.Tensor(rng.normal(size=(1024, 256)).astype(np.float32))

    def step_faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with nc.tape():
            h = x
            for w in ws:
                h = nc.silu(nc.matmul(h, w))
            nc.backward(nc.sum_all(h))
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults = [step_faults() for _ in range(6)]
    # a 4 KB page each: once warm, a step reuses what the last one freed
    assert sum(faults[-2:]) < 1024, faults
