"""Command-line entry points over the pipeline steps.

Every subcommand reads the run config (workdir/config.json unless
--config points elsewhere), applies flag overrides, executes one
pipeline step against the workdir under its lock when the step writes
there, and appends to the run manifest. run-all executes the whole
chain and prints the report location.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import datapipe as dp
from . import evallab as ev
from . import pipeline as pl
from . import tokenizer as tok
from . import world as wd
from .inference import (ConversationHistory, ParseError, build_multiturn_input,
                        greedy_decode, parse_tcot, render_template)
from .model import ModelError, load_bundle


class CliError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_config(args) -> pl.RunConfig:
    path = args.config or os.path.join(args.workdir, "config.json")
    if not os.path.exists(path):
        if args.config is None:
            return pl.default_config()
        raise CliError(f"config file {path} does not exist")
    with open(path, encoding="utf-8") as f:
        try:
            return pl.RunConfig.from_json(f.read())
        except (json.JSONDecodeError, pl.PipelineError) as e:
            raise CliError(f"bad config {path}: {e}")


def _apply_stage_overrides(cfg: pl.RunConfig, args) -> None:
    if args.cmd != "train" or args.stage not in cfg.stages:
        return
    for flag in ("peak_lr", "warmup_ratio", "weight_decay", "batch_size",
                 "grad_accum", "max_epochs", "valid_every", "seed", "max_steps"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.stages[args.stage][flag] = value


def _vocab(ws: pl.Workspace) -> tok.Vocabulary:
    path = os.path.join(ws.root, "vocab", "full.txt")
    if not os.path.exists(path):
        raise CliError("no merged vocabulary in workdir; run learn-vocab and merge-vocab first")
    return tok.Vocabulary.load(path)


def _bundle(ws: pl.Workspace, name: str, vocab):
    path = os.path.join(ws.root, "checkpoints", name)
    if not os.path.isdir(path):
        raise CliError(f"no checkpoint at {path}; train it first")
    try:
        bundle, _ = load_bundle(path, expect_vocab_hash=tok.vocab_hash(vocab))
    except ModelError as e:
        raise CliError(str(e))
    return bundle


def cmd_gen_world(cfg, ws, args):
    pl.step_gen_world(cfg, ws)


def cmd_learn_vocab(cfg, ws, args):
    pl.step_learn_vocab(cfg, ws)


def cmd_merge_vocab(cfg, ws, args):
    pl.step_merge_vocab(cfg, ws)


def cmd_build_data(cfg, ws, args):
    pl.step_build_data(cfg, ws)


def cmd_train(cfg, ws, args):
    if args.stage == "extend":
        pl.step_extend(cfg, ws)
    else:
        pl.train_phases(cfg, ws, args.stage, [args.stage])


def cmd_infer(cfg, ws, args):
    vocab = _vocab(ws)
    bundle = _bundle(ws, args.checkpoint, vocab)
    lang = cfg.languages[0]
    turns = []
    rows_out = []
    with open(args.input, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    for row in rows:
        query = row["query"]
        history = build_multiturn_input(turns, query, vocab,
                                        use_x_history=args.x_history)
        prompt = render_template(history, vocab)
        out = greedy_decode(bundle, prompt, max_new=args.max_new, eos_id=vocab.eos_id)
        record = {"query": query}
        if args.raw:
            record["prompt_ids"] = prompt
            record["output_ids"] = out
        try:
            parse = parse_tcot(out, vocab, language=lang)
            record["mode"] = parse.mode
            for name in ("q_en", "a_en", "a_x"):
                ids = getattr(parse, name)
                if ids is not None:
                    record[name] = vocab.decode(ids)
            if parse.mode == "tcot":
                turns.append((query, parse))
        except ParseError as e:
            record["mode"] = "unparseable"
            record["error"] = str(e)
        rows_out.append(record)
    with open(args.output, "w", encoding="utf-8") as f:
        for r in rows_out:
            f.write(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n")
    print(f"wrote {len(rows_out)} turns to {args.output}")


def _first_world(cfg, ws):
    lang = cfg.languages[0]
    spec_path = os.path.join(ws.root, "world", lang, "spec.json")
    if not os.path.exists(spec_path):
        raise CliError("no world in workdir; run gen-world first")
    with open(spec_path, encoding="utf-8") as f:
        spec = wd.ToyLanguageSpec.from_json(f.read())
    valid = wd.queries_from_rows(
        wd.load_jsonl(os.path.join(ws.root, "world", lang, "queries_valid.jsonl")))
    return lang, spec, valid


def cmd_eval_delta(cfg, ws, args):
    vocab = _vocab(ws)
    lang, spec, valid = _first_world(cfg, ws)
    a = ev.exact_match_eval(_bundle(ws, args.checkpoint_a, vocab), valid, spec, vocab,
                            mode="x", max_new=cfg.eval_max_new)
    b = ev.exact_match_eval(_bundle(ws, args.checkpoint_b, vocab), valid, spec, vocab,
                            mode="x", max_new=cfg.eval_max_new)
    delta = ev.compute_delta(a.judge_scores, b.judge_scores)
    doc = {"delta": delta.to_dict(), "binomial_p": delta.p_value,
           "accuracy_a": a.accuracy, "accuracy_b": b.accuracy}
    print(json.dumps(doc, indent=1, sort_keys=True))


def cmd_analyze_forgetting(cfg, ws, args):
    vocab = _vocab(ws)
    lang, spec, valid = _first_world(cfg, ws)
    rkd_valid = dp.load_records(os.path.join(ws.root, "data", f"valid_rkd_{lang}.jsonl"))
    reports = ev.forgetting_probability({args.checkpoint: _bundle(ws, args.checkpoint, vocab)},
                                        _bundle(ws, args.reference, vocab), rkd_valid, vocab)
    print(json.dumps(reports[args.checkpoint].to_dict(), indent=1, sort_keys=True))


def cmd_analyze_similarity(cfg, ws, args):
    vocab = _vocab(ws)
    lang, spec, valid = _first_world(cfg, ws)
    tcot_valid = dp.load_records(os.path.join(ws.root, "data", f"valid_tcot_{lang}.jsonl"))
    bundle = _bundle(ws, args.checkpoint, vocab)
    if bundle.adapters is None:
        raise CliError("checkpoint has no adapters; use the pre-merge checkpoint")
    report = ev.hidden_similarity(bundle, tcot_valid, vocab, language=lang)
    print(json.dumps(report.to_dict(), indent=1, sort_keys=True))


def cmd_attention_dump(cfg, ws, args):
    vocab = _vocab(ws)
    lang, spec, valid = _first_world(cfg, ws)
    bundle = _bundle(ws, args.checkpoint, vocab)
    query_x = args.query or wd.oracle_translate(spec, valid[0].text, "en->x")
    prompt = render_template(ConversationHistory(pending=query_x), vocab)
    out = greedy_decode(bundle, prompt, max_new=cfg.eval_max_new, eos_id=vocab.eos_id)
    try:
        dump = ev.attention_dump(bundle, prompt, out, vocab, language=lang)
    except ParseError as e:
        raise CliError(f"model output did not parse as a chain: {e}")
    np.save(args.output, dump.matrix)
    sidecar = args.output + ".json"
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump(dump.to_sidecar(), f, indent=1, sort_keys=True)
    print(f"wrote {args.output} and {sidecar}")


def cmd_run_all(cfg, ws, args):
    report = pl.run_all(cfg, ws.root)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"\nreport written to {os.path.join(ws.root, 'report', 'report.json')}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langlift",
        description="desk-scale language-transfer pipeline over a synthetic bilingual world",
    )
    parser.add_argument("--workdir", default=os.environ.get("LANGLIFT_WORKDIR", "runs/dev"),
                        help="artifact directory (env LANGLIFT_WORKDIR)")
    parser.add_argument("--config", default=None, help="run config JSON path")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sub.add_parser("gen-world", help="generate language specs, corpora, and query sets")
    sub.add_parser("learn-vocab", help="learn source and target subword vocabularies")
    sub.add_parser("merge-vocab", help="merge vocabularies and reserve special tokens")
    sub.add_parser("build-data", help="construct all training-data formats")

    p = sub.add_parser("train", help="run one training phase from its start checkpoint")
    p.add_argument("--stage", required=True, choices=["extend", *pl.PHASES])
    for flag, typ in [("peak-lr", float), ("warmup-ratio", float), ("weight-decay", float),
                      ("batch-size", int), ("grad-accum", int), ("max-epochs", int),
                      ("valid-every", int), ("seed", int), ("max-steps", int)]:
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=typ, default=None)

    p = sub.add_parser("infer", help="chat over JSONL turn records")
    p.add_argument("--checkpoint", default="final")
    p.add_argument("--input", required=True, help="JSONL with a 'query' field per line")
    p.add_argument("--output", required=True)
    p.add_argument("--max-new", type=int, default=64)
    p.add_argument("--raw", action="store_true", help="also dump full token streams")
    p.add_argument("--x-history", action="store_true",
                   help="carry target-language history instead of source-language")

    p = sub.add_parser("eval-delta", help="pairwise win/tie/loss of two checkpoints")
    p.add_argument("--checkpoint-a", default="final")
    p.add_argument("--checkpoint-b", default="direct_sft")

    p = sub.add_parser("analyze-forgetting", help="generation-probability gap vs a reference")
    p.add_argument("--checkpoint", default="final")
    p.add_argument("--reference", default="extended")

    p = sub.add_parser("analyze-similarity", help="hidden-state cosine by answer segment")
    p.add_argument("--checkpoint", default="final_premerge")

    p = sub.add_parser("attention-dump", help="final-layer attention over one chain output")
    p.add_argument("--checkpoint", default="final_premerge")
    p.add_argument("--query", default=None, help="target-language query (default: first validation query)")
    p.add_argument("--output", default="attention.npy")

    sub.add_parser("run-all", help="full pipeline: world, vocab, data, training, evaluation")
    return parser


COMMANDS = {
    "gen-world": cmd_gen_world,
    "learn-vocab": cmd_learn_vocab,
    "merge-vocab": cmd_merge_vocab,
    "build-data": cmd_build_data,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval-delta": cmd_eval_delta,
    "analyze-forgetting": cmd_analyze_forgetting,
    "analyze-similarity": cmd_analyze_similarity,
    "attention-dump": cmd_attention_dump,
    "run-all": cmd_run_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _load_config(args)
    _apply_stage_overrides(cfg, args)
    ws = pl.Workspace(args.workdir)
    # run-all takes the lock inside run_all
    locked = args.cmd in ("gen-world", "learn-vocab", "merge-vocab", "build-data", "train")
    try:
        with ws.lock() if locked else contextlib.nullcontext():
            COMMANDS[args.cmd](cfg, ws, args)
    except (pl.PipelineError, tok.TokenizerError, ModelError) as e:
        raise CliError(str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
