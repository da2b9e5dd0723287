"""`decode` workload: `inference.render_template` + `greedy_decode` at the
shipped shapes, merged vocabulary and `eval_max_new`.

The model carries non-zero adapters on every target, like the
`final_premerge` model the pipeline evaluates. Its weights are drawn
here from the benchmark's own seeded generator, at a scale that keeps
logits well separated, so a change to `init_weights` does not change the
workload. The head column of ⟨EOS⟩ is zero, so its logit is exactly 0
while the largest of the others is far above it: every output runs to
`max_new`, and the tokens a round generates follow from the query count
alone, not from which seed happened to draw a model that likes ⟨EOS⟩.

Half of the queries are single-turn target-language prompts; the other
half carry three source-language history turns, so the prefix each
generated token recomputes is about twice as long.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import oracles
from common import (RunResult, World, build_world, fresh_dir, percentile, repeat_rounds,
                    timed)
from langlift import inference as inf
from langlift import model as md
from langlift import numcore as nc
from langlift import pipeline as pl

SIZES = {
    # queries per round (half single-turn, half multi-turn), multi-turn prompt range
    "shipped": dict(queries=104, multi_len=(72, 90)),
    "tiny": dict(queries=6, multi_len=(40, 150)),
}


@dataclass
class Query:
    history: inf.ConversationHistory
    multiturn: bool


@dataclass
class Inputs:
    world: World
    bundle: md.ModelBundle
    queries: list[Query]
    max_new: int


def draw_bundle(cfg: pl.RunConfig, vocab_size: int, eos_id: int, seed: int) -> md.ModelBundle:
    mc = md.ModelConfig(vocab_size=vocab_size, **cfg.model)
    rng = np.random.default_rng([seed, 7201])
    d, ff = mc.d_model, mc.d_ff
    t = lambda *shape, std: nc.Tensor(rng.normal(0.0, std, size=shape).astype(np.float32))
    gain = lambda: nc.Tensor((1.0 + rng.normal(0.0, 0.1, size=d)).astype(np.float32))
    bias = lambda: t(d, std=0.1)
    layers = [md.LayerWeights(
        ln1_g=gain(), ln1_b=bias(),
        wq=t(d, d, std=d ** -0.5), wk=t(d, d, std=d ** -0.5),
        wv=t(d, d, std=d ** -0.5), wo=t(d, d, std=d ** -0.5),
        ln2_g=gain(), ln2_b=bias(),
        w_gate=t(d, ff, std=d ** -0.5), w_up=t(d, ff, std=d ** -0.5),
        w_down=t(ff, d, std=ff ** -0.5)) for _ in range(mc.n_layers)]
    head = t(d, vocab_size, std=0.4)
    head.data[:, eos_id] = 0.0
    weights = md.TransformerWeights(
        config=mc, embed=t(vocab_size, d, std=1.0), pos=t(mc.max_seq_len, d, std=0.3),
        layers=layers, lnf_g=gain(), lnf_b=bias(), head=head)
    adapters = []
    for _ in range(mc.n_layers):
        per_layer = {}
        for target in mc.lora_targets:
            d_in = ff if target == "w_down" else d
            d_out = ff if target in ("w_gate", "w_up") else d
            per_layer[target] = md.LoraAdapter(
                down=t(d_in, mc.lora_rank, std=d_in ** -0.5),
                up=t(mc.lora_rank, d_out, std=0.1),
                scale=mc.lora_alpha / mc.lora_rank)
        adapters.append(per_layer)
    return md.ModelBundle(mc, weights, adapters)


def setup(seed: int, size: str, workdir) -> Inputs:
    sz = SIZES[size]
    cfg = pl.RunConfig(seed=seed) if size == "shipped" else pl.tiny_config(seed)
    w = build_world(cfg, workdir)
    rng = np.random.default_rng([seed, 7202])
    cipher = w.spec_doc["cipher"]
    pending = [oracles.translate(cipher, r["query"]) for r in w.files["queries_valid"]]
    turns = [(r["query"], oracles.teacher(w.spec_doc, r["query"]))
             for r in w.files["queries_chat"]]
    lo, hi = sz["multi_len"]
    queries = []
    while len(queries) < sz["queries"]:
        q = pending[int(rng.integers(len(pending)))]
        if len(queries) % 2 == 0:
            queries.append(Query(inf.ConversationHistory(pending=q), False))
            continue
        # three history turns, redrawn until the prompt is in the wanted range
        history = inf.ConversationHistory(
            turns=[turns[int(i)] for i in rng.integers(len(turns), size=3)], pending=q)
        if lo <= len(inf.render_template(history, w.full)) <= hi:
            queries.append(Query(history, True))
    return Inputs(world=w, bundle=draw_bundle(cfg, len(w.full), w.full.eos_id, seed),
                  queries=queries, max_new=cfg.eval_max_new)


def run_round(inp: Inputs, on_query=None):
    """Render and decode every query; returns (prompt, output, seconds) each."""
    out = []
    vocab = inp.world.full
    for q in inp.queries:
        if on_query is not None:
            on_query()
        t0 = time.perf_counter()
        prompt = inf.render_template(q.history, vocab)
        ids = inf.greedy_decode(inp.bundle, prompt, max_new=inp.max_new, eos_id=vocab.eos_id)
        out.append((prompt, ids, time.perf_counter() - t0))
    return out


def check_round(inp: Inputs, outputs) -> list[str]:
    b = inp.bundle
    params = oracles.params_of(b)
    scale = b.config.lora_alpha / b.config.lora_rank
    problems = []
    for i, (prompt, ids, _) in enumerate(outputs):
        ref = oracles.reference_logits(params, prompt + ids, b.config.n_heads, scale)
        problems += [f"query {i}: {p}" for p in oracles.check_greedy(
            ref, len(prompt), ids, inp.world.full.eos_id, inp.max_new, b.config.max_seq_len)]
    return problems


def _round_facts(inp: Inputs, rounds) -> dict:
    multi = [q.multiturn for q in inp.queries]
    flat = [(m, o) for outs in rounds for m, o in zip(multi, outs)]
    rate = lambda sel: (sum(len(o[1]) for m, o in flat if sel(m))
                        / sum(o[2] for m, o in flat if sel(m)))
    ms = [1000 * o[2] for _, o in flat]
    prompt_lens = [len(o[0]) for _, o in flat]
    return {
        "decode_tokens_per_s": rate(lambda m: True),
        "decode_multiturn_tokens_per_s": rate(lambda m: m),
        "decode_singleturn_tokens_per_s": rate(lambda m: not m),
        "decode_query_ms_p50": percentile(ms, 50),
        "decode_query_ms_p90": percentile(ms, 90),
        "queries": len(flat),
        "prompt_tokens_min_max": [min(prompt_lens), max(prompt_lens)],
        "outputs_at_max_new": sum(len(o[1]) == inp.max_new for _, o in flat),
    }


def run(seed: int, seconds: float, size: str, repeats: int, tracer=None) -> RunResult:
    res = RunResult()
    setups = []
    for k in range(repeats):
        inp, dt = timed(setup, seed, size, fresh_dir(f"decode-s{seed}-{k}"))
        setups.append(dt)
    rounds, round_s = repeat_rounds(res, seconds, len(inp.queries), lambda: run_round(inp))
    if rounds:
        res.problems += check_round(inp, rounds[-1])
        facts = _round_facts(inp, rounds)
        res.extra.update(facts)
        res.metrics.update(round_s=float(np.median(round_s)),
                           tokens_per_s=facts["decode_tokens_per_s"])
    res.metrics["setup_s"] = float(np.median(setups))
    res.extra.update(setup_runs_s=setups, round_runs_s=round_s)

    if tracer is not None and rounds:
        with tracer:
            inp, _ = timed(setup, seed, size, fresh_dir(f"decode-s{seed}-traced"))

            def next_op():
                tracer.op += 1

            t0 = time.perf_counter()
            run_round(inp, on_query=next_op)
            res.extra["traced_round_s"] = time.perf_counter() - t0
    return res
