"""Checks the benchmark holds the program's outputs to, written without
the program's own code paths.

The reference forward pass, cross entropy and teacher rules below are
re-implemented from the method's description in plain numpy and Python
(float64), so a fault in `numcore`, `model`, `world` or `evallab` cannot
hide by agreeing with itself. Every `check_*` function returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# float32 forward passes are compared with this share of the logit scale
LOGIT_RTOL = 2e-4
# a top-two gap this small (relative to the logit scale) is float32 rounding
ARGMAX_TIE_RTOL = 1e-5
FD_STEP = 1e-5
FD_RTOL = 1e-5
FD_ATOL = 1e-8

PIPELINE_STEPS = ("gen-world", "learn-vocab", "merge-vocab", "build-data",
                  "train-original", "extend", "train-transfer", "evaluate")


# ---------------------------------------------------------------------------
# reference transformer
# ---------------------------------------------------------------------------


def params_of(bundle) -> dict[str, np.ndarray]:
    """Float64 copies of every named parameter of a model bundle."""
    return {name: t.data.astype(np.float64) for name, t in bundle.named_parameters()}


def _layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def reference_logits(params: dict, ids, n_heads: int, adapter_scale: float = 0.0) -> np.ndarray:
    """Decoder forward in float64: learned positions, pre-norm causal
    attention, gated (SiLU) MLP, and for every projection that has
    adapter matrices in `params` the low-rank branch scale*(x@down)@up."""
    ids = np.asarray(ids, dtype=np.int64)
    t = ids.size
    h = params["embed"][ids] + params["pos"][:t]
    n_layers = 1 + max(int(k.split(".")[1]) for k in params if k.startswith("layers."))
    d = h.shape[1]
    dh = d // n_heads
    future = np.triu(np.ones((t, t), dtype=bool), k=1)

    for i in range(n_layers):
        p = lambda name: params[f"layers.{i}.{name}"]

        def proj(x, target):
            y = x @ p(target)
            down = params.get(f"layers.{i}.lora.{target}.down")
            if down is not None:
                y = y + adapter_scale * ((x @ down) @ p(f"lora.{target}.up"))
            return y

        x = _layer_norm(h, p("ln1_g"), p("ln1_b"))
        q, k, v = (proj(x, w).reshape(t, n_heads, dh).transpose(1, 0, 2)
                   for w in ("wq", "wk", "wv"))
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        scores[:, future] = -np.inf
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = (probs @ v).transpose(1, 0, 2).reshape(t, d)
        h = h + proj(ctx, "wo")

        x = _layer_norm(h, p("ln2_g"), p("ln2_b"))
        gate = proj(x, "w_gate")
        h = h + proj(gate / (1.0 + np.exp(-gate)) * proj(x, "w_up"), "w_down")

    return _layer_norm(h, params["lnf_g"], params["lnf_b"]) @ params["head"]


def live_length(loss_mask) -> int:
    """Sequence length up to the last target position; trailing padding
    carries no target, so training never needs it."""
    live = np.flatnonzero(np.asarray(loss_mask))
    return int(live[-1]) + 1


def reference_loss(params: dict, ids, loss_mask, n_heads: int,
                   adapter_scale: float = 0.0) -> float:
    """Mean next-token negative log-likelihood over the masked targets."""
    n = live_length(loss_mask)
    ids = np.asarray(ids[:n], dtype=np.int64)
    logits = reference_logits(params, ids[:-1], n_heads, adapter_scale)
    targets = ids[1:]
    live = np.asarray(loss_mask[1:n], dtype=bool)
    top = logits.max(axis=1)
    log_z = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    nll = log_z - logits[np.arange(targets.size), targets]
    return float(nll[live].mean())


# ---------------------------------------------------------------------------
# train checks
# ---------------------------------------------------------------------------


def check_logits(reference: np.ndarray, model: np.ndarray, what: str) -> list[str]:
    if reference.shape != model.shape:
        return [f"{what}: logits shape {model.shape} != reference {reference.shape}"]
    scale = max(1.0, float(np.abs(reference).max()))
    err = float(np.abs(reference - model).max())
    if not err <= LOGIT_RTOL * scale:
        return [f"{what}: logits differ from the reference by {err:.3g} (scale {scale:.3g})"]
    return []


def check_loss(reference: float, model: float, what: str) -> list[str]:
    if not abs(reference - model) <= LOGIT_RTOL * max(1.0, abs(reference)):
        return [f"{what}: loss {model!r} != reference {reference!r}"]
    return []


def check_gradient(params: dict, loss_fn, name: str, index: tuple, analytic: float) -> list[str]:
    """Central finite difference of `loss_fn(params)` at one coordinate."""
    p = params[name]
    keep = p[index]
    p[index] = keep + FD_STEP
    up = loss_fn(params)
    p[index] = keep - FD_STEP
    down = loss_fn(params)
    p[index] = keep
    fd = (up - down) / (2 * FD_STEP)
    if not abs(fd - analytic) <= FD_ATOL + FD_RTOL * max(abs(fd), abs(analytic)):
        return [f"gradient of {name}{list(index)}: backward {analytic!r} vs finite difference {fd!r}"]
    return []


def check_first_loss(loss: float, vocab_size: int, rel: float = 0.05) -> list[str]:
    """Fresh small-scale weights predict nearly uniformly: loss ~ ln(V)."""
    expect = math.log(vocab_size)
    if not abs(loss - expect) <= rel * expect:
        return [f"first step loss {loss:.4f} is not within {rel:.0%} of ln({vocab_size}) = {expect:.4f}"]
    return []


def check_loss_falls(phase: str, losses: list[float]) -> list[str]:
    if not all(math.isfinite(x) for x in losses):
        return [f"{phase}: non-finite training loss"]
    k = max(1, len(losses) // 4)
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    if not last < first:
        return [f"{phase}: mean loss of the last {k} steps {last:.4f} is not below "
                f"that of the first {k} steps {first:.4f}"]
    return []


def check_frozen(before: dict, after: dict) -> list[str]:
    return [f"{name} changed during adapter training"
            for name in before if not np.array_equal(before[name], after[name])]


# ---------------------------------------------------------------------------
# decode checks
# ---------------------------------------------------------------------------


def check_greedy(reference: np.ndarray, prompt_len: int, output: list[int],
                 eos_id: int, max_new: int, max_seq_len: int) -> list[str]:
    """`reference` holds teacher-forced logits over prompt + output. Each
    emitted token must be the reference argmax; at the first position
    whose top two logits are within float32 rounding the comparison
    stops, since either choice is a correct greedy step."""
    problems = []
    if not output:
        return ["empty output"]
    if eos_id in output[:-1]:
        problems.append("decoding continued past ⟨EOS⟩")
    if not (output[-1] == eos_id or len(output) == max_new
            or prompt_len + len(output) == max_seq_len):
        problems.append(f"output of {len(output)} tokens stopped before ⟨EOS⟩, "
                        f"max_new or max_seq_len")
    for j, tok in enumerate(output):
        row = reference[prompt_len - 1 + j]
        top2 = np.partition(row, -2)[-2:]
        if top2[1] - top2[0] <= ARGMAX_TIE_RTOL * max(1.0, float(np.abs(row).max())):
            break
        if tok != int(np.argmax(row)):
            problems.append(f"token {j} is {tok}, reference argmax is {int(np.argmax(row))}")
            break
    return problems


# ---------------------------------------------------------------------------
# world, data and report checks (run-all)
# ---------------------------------------------------------------------------


def translate(cipher: dict, sentence: str) -> str:
    return " ".join(cipher[w] for w in sentence.split(" ")) if sentence else ""


def teacher(spec: dict, query: str) -> str:
    """The four query families and the refusal, from the world spec."""
    words = query.split(" ")
    if any(w in spec["harmful_markers"] for w in words):
        return spec["refusal"]
    head, rest = words[0], words[1:]
    if head == "say" and rest:
        return " ".join(rest)
    if head == "flip" and rest:
        return " ".join(rest[::-1])
    if head == "add" and len(rest) == 2 and all(r.isdigit() for r in rest):
        return str(int(rest[0]) + int(rest[1]))
    if head == "what" and len(rest) == 1 and rest[0] in spec["kv_table"]:
        return spec["kv_table"][rest[0]]
    raise ValueError(f"no query family matches {query!r}")


def check_cipher(spec: dict, pairs: list[dict], en_lines: list[str],
                 x_lines: list[str]) -> list[str]:
    cipher = spec["cipher"]
    inverse = {x: en for en, x in cipher.items()}
    problems = []
    if len(inverse) != len(cipher):
        problems.append("cipher is not a bijection")
    for p in pairs:
        try:
            if translate(cipher, p["en"]) != p["x"] or translate(inverse, p["x"]) != p["en"]:
                problems.append(f"pair does not round-trip: {p}")
        except KeyError as e:
            problems.append(f"pair word {e} is outside the lexicon: {p}")
    for table, back, lines in ((cipher, inverse, en_lines), (inverse, cipher, x_lines)):
        for line in lines:
            try:
                if translate(back, translate(table, line)) != line:
                    problems.append(f"line does not round-trip: {line!r}")
            except KeyError as e:
                problems.append(f"word {e} is outside the lexicon: {line!r}")
    return problems[:20]


def check_teacher_rows(spec: dict, rows: list[dict]) -> list[str]:
    """Stored records against the re-implemented teacher and cipher."""
    cipher = spec["cipher"]
    problems = []
    for r in rows:
        kind = r["kind"]
        if kind in ("rkd", "tcot"):
            if r["a_en"] != teacher(spec, r["q_en"]):
                problems.append(f"{kind} answer {r['a_en']!r} for {r['q_en']!r} is wrong")
            if kind == "tcot" and (r["q_x"] != translate(cipher, r["q_en"])
                                   or r["a_x"] != translate(cipher, r["a_en"])):
                problems.append(f"tcot record for {r['q_en']!r} is not the cipher of its source")
        elif kind == "direct-sft":
            if r["meta"]["a_en"] != teacher(spec, r["meta"]["q_en"]):
                problems.append(f"direct-sft answer for {r['meta']['q_en']!r} is wrong")
        elif kind == "translation-sft":
            m = r["meta"]
            table = cipher if m["direction"] == "en->x" else {v: k for k, v in cipher.items()}
            if translate(table, m["src"]) != m["dst"]:
                problems.append(f"translation record {m} is not the cipher of its source")
    return problems[:20]


def check_tokenizer(base, full, source_lines: list[str], all_lines: list[str]) -> list[str]:
    problems = []
    for line in all_lines:
        if full.decode(full.encode(line)) != line:
            problems.append(f"decode(encode(line)) != line for {line!r}")
    for line in source_lines:
        if base.encode(line) != full.encode(line):
            problems.append(f"base and full vocabularies encode {line!r} differently")
    return problems[:20]


def binomial_p(n_win: int, n_loss: int) -> float:
    from scipy import stats
    if n_win + n_loss == 0:
        return 1.0
    return float(stats.binomtest(n_win, n_win + n_loss, 0.5).pvalue)


def check_report(report: dict, n_harmful: dict[str, int]) -> list[str]:
    problems = []
    for lang, res in report["per_language"].items():
        d = res["delta_final_vs_direct"]
        if abs(d["win"] + d["tie"] + d["loss"] - 100.0) > 1e-9:
            problems.append(f"{lang}: win+tie+loss = {d['win'] + d['tie'] + d['loss']}")
        if abs(d["delta"] - (d["win"] - d["loss"])) > 1e-9:
            problems.append(f"{lang}: delta {d['delta']} != win - loss")
        b = res["binomial"]
        n = res["accuracy"]["final"]["n_queries"]
        if (100.0 * b["n_win"] / n, 100.0 * b["n_loss"] / n) != (d["win"], d["loss"]):
            problems.append(f"{lang}: counts {b['n_win']}/{b['n_loss']} of {n} do not give "
                            f"win {d['win']} / loss {d['loss']}")
        p = binomial_p(b["n_win"], b["n_loss"])
        if not math.isclose(b["p_value"], p, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{lang}: binomial p {b['p_value']!r} != scipy binomtest {p!r}")
        p_orig = {name: f["p_original"] for name, f in res["forgetting"].items()}
        if len(set(p_orig.values())) != 1:
            problems.append(f"{lang}: p_original differs across forgetting entries {p_orig}")
        for model, acc in res["accuracy"].items():
            if sum(acc["bypass_reject_unclear"]) != n_harmful[lang]:
                problems.append(f"{lang}/{model}: bypass+reject+unclear "
                                f"{acc['bypass_reject_unclear']} != {n_harmful[lang]} harmful queries")
    return problems


def config_hash(config: dict) -> str:
    text = json.dumps(config, indent=1, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_manifest(entries: list[dict], config: dict) -> list[str]:
    want = config_hash(config)
    steps = [e["step"] for e in entries]
    problems = []
    if steps != list(PIPELINE_STEPS):
        problems.append(f"manifest steps {steps} != {list(PIPELINE_STEPS)}")
    problems += [f"step {e['step']} has config hash {e['config_hash']} != {want}"
                 for e in entries if e["config_hash"] != want]
    return problems
