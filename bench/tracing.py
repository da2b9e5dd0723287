"""Span and count tracing around the package's public functions.

The tracer replaces a function in every `langlift` module namespace
that holds it (so `from .inference import greedy_decode` call sites are
covered too) with a wrapper that records a span: name, start, end,
parent span and the benchmark operation id current at the call. Spans
of the numerical primitives and other very frequent calls are only
aggregated (calls, total time), never stored, which keeps the traced
decode workload under ten thousand stored spans. `restore()` puts every
original back.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import oracles
from oracles import live_length

LAYERS = ("numcore", "tokenizer", "model", "world", "datapipe", "trainer",
          "inference", "evallab", "pipeline")

NUMCORE_PRIMITIVES = ("matmul", "transpose", "add", "mul", "scale", "relu", "silu",
                      "softmax_rows", "layer_norm", "embedding", "slice_cols",
                      "concat_cols", "dropout", "cross_entropy", "sum_all")

PIPELINE_STEPS = tuple(step.replace("-", "_") for step in oracles.PIPELINE_STEPS)

# (module, attribute or Class.method, stored as spans?); functions no
# metric names are wrapped too, so their time counts to their own layer
TARGETS = (
    [("numcore", p, False) for p in NUMCORE_PRIMITIVES]
    + [("numcore", "backward", True)]
    + [("model", f, True) for f in ("forward", "init_weights", "init_adapters",
                                   "extend_embeddings", "merge_adapters",
                                   "save_bundle", "load_bundle", "clone_bundle")]
    + [("trainer", f, True) for f in ("train_stage", "example_loss",
                                     "evaluate_validation", "approx_full_ft")]
    + [("trainer", "AdamW.step", True)]
    + [("tokenizer", f, True) for f in ("learn_vocab", "merge_vocab")]
    + [("tokenizer", "Vocabulary.encode", False), ("tokenizer", "Vocabulary.decode", False)]
    + [("world", f, True) for f in ("build_language_spec", "gen_corpus", "gen_query_set",
                                   "split_queries", "save_jsonl", "load_jsonl")]
    + [("world", "oracle_translate", False)]
    + [("datapipe", f, True) for f in ("build_cpt", "build_translation_cpt", "build_rkd",
                                      "build_tcot", "build_translation_sft",
                                      "build_direct_sft", "mix_finetune", "pack_and_mix",
                                      "save_records", "load_records")]
    + [("inference", f, True) for f in ("render_template", "greedy_decode",
                                       "build_multiturn_input")]
    + [("inference", f, False) for f in ("render_template_text", "parse_tcot")]
    + [("evallab", f, True) for f in ("exact_match_eval", "forgetting_probability",
                                     "hidden_similarity", "attention_dump",
                                     "compute_delta", "binomial_test", "chi2_test",
                                     "agreement_rate")]
    + [("pipeline", f"step_{s}", True) for s in PIPELINE_STEPS]
    + [("pipeline", "run_all", True)]
)


def span_name(module: str, attr: str) -> str:
    if attr == "AdamW.step":
        return "trainer.optimizer"
    attr = attr.split(".")[-1]
    if module == "pipeline" and attr.startswith("step_"):
        attr = attr[len("step_"):]
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.op = -1                         # benchmark operation id; -1 is set-up
        self.op_starts: set[str] = set()     # span names that open a new operation
        self._stack: list[list] = []         # [child_time, kept span index]
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, layer, keep, fn, args, kwargs):
        if name in self.op_starts:
            self.op += 1
        parent = self._stack[-1][1] if self._stack else None
        idx = None
        if keep:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        frame = [0.0, idx if keep else parent]
        self._stack.append(frame)
        self.active[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.active[name] -= 1
            self._stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[layer] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur
            if keep:
                self.spans[idx][1:3] = [t0, t1]
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "langlift" or name.startswith("langlift.")}
        for module, attr, keep in TARGETS:
            mod = mods[f"langlift.{module}"]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(name, module, keep, original))
                self._patches.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrapper(name, module, keep, original)
            for holder in mods.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def _wrapper(self, name, layer, keep, fn):
        call = self._call

        def traced(*args, **kwargs):
            return call(name, layer, keep, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def restore(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def seconds(self, *names) -> float:
        return sum(self.total[n] for n in names)


def _count_positions(tr, args, kwargs, result):
    n = len(args[0])
    tr.counts["model.forward.positions"] += n
    if tr.active["pipeline.evaluate"]:
        tr.counts["pipeline.evaluate.forward_calls"] += 1


def _count_chars(tr, args, kwargs, result):
    tr.counts["tokenizer.encode.chars"] += len(args[1])


def _count_generated(tr, args, kwargs, result):
    tr.counts["inference.generated_tokens"] += len(result)
    if tr.active["pipeline.evaluate"]:
        tr.counts["pipeline.evaluate.decodes"] += 1


def _count_padding(tr, args, kwargs, result):
    for ex in result.examples:
        tr.counts["datapipe.pad_positions"] += len(ex.ids) - live_length(ex.loss_mask)
        tr.counts["datapipe.positions"] += len(ex.ids)


def _count_record(tr, args, kwargs, result):
    tr.counts["trainer.tokens"] += live_length(args[1].loss_mask)
    if kwargs.get("training", False):
        tr.counts["trainer.records"] += 1


def _count_steps(tr, args, kwargs, result):
    metrics, _ = result
    tr.counts["trainer.steps"] += len(metrics)


HOOKS = {
    "model.forward": _count_positions,
    "tokenizer.encode": _count_chars,
    "inference.greedy_decode": _count_generated,
    "datapipe.pack_and_mix": _count_padding,
    "trainer.example_loss": _count_record,
    "trainer.train_stage": _count_steps,
}


def per_layer_metrics(tr: Tracer, n_eval_queries: int) -> dict[str, float]:
    """Per-layer values from one traced run (set-up plus one round)."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr.self_time[layer]
    m["numcore.backward.calls"] = tr.calls["numcore.backward"]
    m["numcore.backward.s"] = tr.total["numcore.backward"]
    for p in NUMCORE_PRIMITIVES:
        if p in ("relu", "sum_all"):
            continue  # the model never calls them
        m[f"numcore.{p}.calls"] = tr.calls[f"numcore.{p}"]
        m[f"numcore.{p}.s"] = tr.total[f"numcore.{p}"]
    m["model.forward.calls"] = tr.calls["model.forward"]
    m["model.forward.s"] = tr.total["model.forward"]
    m["model.forward.positions"] = tr.counts["model.forward.positions"]
    m["model.save_bundle.s"] = tr.total["model.save_bundle"]
    m["model.load_bundle.s"] = tr.total["model.load_bundle"]
    m["trainer.example_loss.s"] = tr.total["trainer.example_loss"]
    m["trainer.optimizer.s"] = tr.total["trainer.optimizer"]
    m["trainer.evaluate_validation.s"] = tr.total["trainer.evaluate_validation"]
    m["trainer.evaluate_validation.calls"] = tr.calls["trainer.evaluate_validation"]
    for c in ("trainer.steps", "trainer.records", "trainer.tokens"):
        m[c] = tr.counts[c]
    m["tokenizer.learn_vocab.s"] = tr.total["tokenizer.learn_vocab"]
    m["tokenizer.encode.calls"] = tr.calls["tokenizer.encode"]
    m["tokenizer.encode.s"] = tr.total["tokenizer.encode"]
    m["tokenizer.encode.chars"] = tr.counts["tokenizer.encode.chars"]
    m["world.gen.s"] = tr.seconds("world.build_language_spec", "world.gen_corpus",
                                  "world.gen_query_set", "world.split_queries")
    m["world.oracle_translate.calls"] = tr.calls["world.oracle_translate"]
    m["datapipe.build.s"] = tr.seconds(*[f"datapipe.{f}" for f in (
        "build_cpt", "build_translation_cpt", "build_rkd", "build_tcot",
        "build_translation_sft", "build_direct_sft")])
    m["datapipe.pack_and_mix.s"] = tr.total["datapipe.pack_and_mix"]
    m["datapipe.save_records.s"] = tr.total["datapipe.save_records"]
    m["datapipe.load_records.s"] = tr.total["datapipe.load_records"]
    positions = tr.counts["datapipe.positions"]
    m["datapipe.pad_ratio"] = tr.counts["datapipe.pad_positions"] / positions if positions else 0.0
    m["inference.greedy_decode.calls"] = tr.calls["inference.greedy_decode"]
    m["inference.greedy_decode.s"] = tr.total["inference.greedy_decode"]
    m["inference.generated_tokens"] = tr.counts["inference.generated_tokens"]
    m["inference.render_template.s"] = tr.total["inference.render_template"]
    m["inference.parse_tcot.calls"] = tr.calls["inference.parse_tcot"]
    for f in ("exact_match_eval", "forgetting_probability", "hidden_similarity",
              "attention_dump"):
        m[f"evallab.{f}.s"] = tr.total[f"evallab.{f}"]
    m["evallab.forgetting_probability.calls"] = tr.calls["evallab.forgetting_probability"]
    for s in PIPELINE_STEPS:
        m[f"pipeline.{s}.s"] = tr.total[f"pipeline.{s}"]
    m["pipeline.evaluate.decodes_per_query"] = (
        tr.counts["pipeline.evaluate.decodes"] / n_eval_queries if n_eval_queries else 0.0)
    m["pipeline.evaluate.forward_calls"] = tr.counts["pipeline.evaluate.forward_calls"]
    return m
