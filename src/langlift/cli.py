"""Command-line entry points over the pipeline steps.

Every subcommand reads the run config (workdir/config.json unless
--config points elsewhere), executes one pipeline step against the
workdir under its lock when the step writes there, and appends to the
run manifest. run-all executes the whole chain and prints the report
location.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict

from . import datapipe as dp
from . import evallab as ev
from . import pipeline as pl
from . import tokenizer as tok
from . import trainer as tr
from . import world as wd
from .inference import (ConversationHistory, InferenceError, ParseError,
                        build_multiturn_input, greedy_decode, parse_tcot,
                        render_template)
from .model import ModelError


class CliError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_config(args) -> pl.RunConfig:
    path = args.config or os.path.join(args.workdir, "config.json")
    if args.config is None and not os.path.exists(path):
        return pl.default_config()
    with open(path, encoding="utf-8") as f:
        try:
            return pl.RunConfig.from_json(f.read())
        except (json.JSONDecodeError, pl.PipelineError) as e:
            raise CliError(f"bad config {path}: {e}")


# pipeline steps a command runs unchanged: name -> (step, help)
STEPS = {
    "gen-world": (pl.step_gen_world, "generate the language spec, corpora, and query sets"),
    "learn-vocab": (pl.step_learn_vocab, "learn source and target subword vocabularies"),
    "merge-vocab": (pl.step_merge_vocab, "merge vocabularies and reserve special tokens"),
    "build-data": (pl.step_build_data, "construct all training-data formats"),
    "evaluate": (pl.step_evaluate, "score the trained checkpoints and write report/"),
}


def cmd_train(cfg, ws, args):
    if args.stage == "extend":
        pl.step_extend(cfg, ws)
    else:
        pl.train_phases(cfg, ws, args.stage, [args.stage])


def _read_queries(path: str) -> list[str]:
    """The query of each non-blank line of a JSONL file. Each line must
    be a JSON object with a non-empty string "query" free of the
    reserved bracket characters."""
    queries = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise CliError(f"{path} line {n}: not JSON ({e.msg} at column {e.colno})")
            query = row.get("query") if isinstance(row, dict) else None
            if not isinstance(query, str) or not query:
                raise CliError(f'{path} line {n}: need a JSON object with a non-empty '
                               f'string "query"')
            if any(ch in query for ch in tok._RESERVED_CHARS):
                raise CliError(f"{path} line {n}: the query contains a reserved bracket "
                               f"character ({' or '.join(tok._RESERVED_CHARS)})")
            queries.append(query)
    return queries


def cmd_infer(cfg, ws, args):
    queries = _read_queries(args.input)
    _, vocab = pl._vocabs(ws)
    bundle = pl._load_ckpt(ws, args.checkpoint, vocab)
    max_new = cfg.eval_max_new if args.max_new is None else args.max_new
    parses = []
    rows_out = []
    for query in queries:
        history = build_multiturn_input(parses, query, vocab)
        prompt = render_template(history, vocab)
        out = greedy_decode(bundle, prompt, max_new=max_new, eos_id=vocab.eos_id)
        record = {"query": query}
        if args.raw:
            record["prompt_ids"] = prompt
            record["output_ids"] = out
        try:
            parse = parse_tcot(out, vocab)
            record["mode"] = parse.mode
            for name in ("q_en", "a_en", "a_x"):
                ids = getattr(parse, name)
                if ids is not None:
                    record[name] = vocab.decode(ids)
            if parse.mode == "tcot":
                parses.append(parse)
        except ParseError as e:
            record["mode"] = "unparseable"
            record["error"] = str(e)
        rows_out.append(record)
    wd.save_jsonl(args.output, rows_out)
    print(f"wrote {len(rows_out)} turns to {args.output}")


def cmd_eval_delta(cfg, ws, args):
    _, vocab = pl._vocabs(ws)
    world = pl._load_world(ws)
    a, b = (ev.exact_match_eval(pl._load_ckpt(ws, name, vocab), world["valid_q"],
                                world["spec"], vocab, mode="x", max_new=cfg.eval_max_new)
            for name in (args.checkpoint_a, args.checkpoint_b))
    delta = ev.compute_delta(a.judge_scores, b.judge_scores)
    doc = {"delta": delta.to_dict(), "binomial_p": delta.p_value,
           "accuracy_a": a.accuracy, "accuracy_b": b.accuracy}
    print(json.dumps(doc, indent=1, sort_keys=True))


def cmd_analyze_forgetting(cfg, ws, args):
    _, vocab = pl._vocabs(ws)
    rkd_valid = dp.load_records(os.path.join(ws.root, "data", f"valid_rkd_{wd.LANGUAGE}.jsonl"))
    reports = ev.forgetting_probability(
        {args.checkpoint: pl._load_ckpt(ws, args.checkpoint, vocab)},
        pl._load_ckpt(ws, args.reference, vocab), rkd_valid)
    print(json.dumps(asdict(reports[args.checkpoint]), indent=1, sort_keys=True))


def cmd_analyze_similarity(cfg, ws, args):
    _, vocab = pl._vocabs(ws)
    tcot_valid = dp.load_records(os.path.join(ws.root, "data", f"valid_tcot_{wd.LANGUAGE}.jsonl"))
    report = ev.hidden_similarity(pl._load_ckpt(ws, args.checkpoint, vocab), tcot_valid, vocab)
    print(json.dumps(asdict(report), indent=1, sort_keys=True))


def cmd_attention_dump(cfg, ws, args):
    _, vocab = pl._vocabs(ws)
    world = pl._load_world(ws)
    bundle = pl._load_ckpt(ws, args.checkpoint, vocab)
    query_x = args.query or wd.oracle_translate(world["spec"], world["valid_q"][0].text,
                                                "en->x")
    prompt = render_template(ConversationHistory(pending=query_x), vocab)
    out = greedy_decode(bundle, prompt, max_new=cfg.eval_max_new, eos_id=vocab.eos_id)
    dump = ev.attention_dump(bundle, prompt, out, vocab)
    sidecar = args.output + ".json"
    dump.save(args.output, sidecar)
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

    for name, (_, help_text) in STEPS.items():
        sub.add_parser(name, help=help_text)

    p = sub.add_parser("train", help="run one training phase from its start checkpoint")
    p.add_argument("--stage", required=True, choices=["extend", *pl.PHASES])

    p = sub.add_parser("infer", help="chat over JSONL turn records")
    p.add_argument("--checkpoint", default="final")
    p.add_argument("--input", required=True, help="JSONL with a 'query' field per line")
    p.add_argument("--output", required=True)
    p.add_argument("--max-new", type=int, default=None,
                   help="decode budget per turn (default: the config's eval_max_new)")
    p.add_argument("--raw", action="store_true", help="also dump full token streams")

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
    "train": cmd_train,
    "infer": cmd_infer,
    "eval-delta": cmd_eval_delta,
    "analyze-forgetting": cmd_analyze_forgetting,
    "analyze-similarity": cmd_analyze_similarity,
    "attention-dump": cmd_attention_dump,
    "run-all": cmd_run_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # commands that write the workdir hold its lock; run-all takes it
    # inside run_all
    locked = args.cmd in STEPS or args.cmd == "train"
    try:
        cfg = _load_config(args)
        ws = pl.Workspace(args.workdir)
        with ws.lock() if locked else contextlib.nullcontext():
            # step-by-step runs keep the config their manifest hashes name,
            # as run_all does
            if locked and not os.path.exists(os.path.join(ws.root, "config.json")):
                ws.write_json("config.json", json.loads(cfg.to_json()))
            if args.cmd in STEPS:
                STEPS[args.cmd][0](cfg, ws)
            else:
                COMMANDS[args.cmd](cfg, ws, args)
    except FileNotFoundError as e:
        raise CliError(f"missing input {e.filename}")
    except (pl.PipelineError, tok.TokenizerError, ModelError, ev.EvalError,
            InferenceError, dp.DataError, tr.TrainerError, wd.WorldError) as e:
        raise CliError(str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
