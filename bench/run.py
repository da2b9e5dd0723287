"""langlift benchmark: one workload per process, or all of them.

    python3 bench/run.py --workload train --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0

Prints every metric by name with its unit, then the operations attempted
and failed, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Untraced runs
(`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
report the per-layer metrics. A results file with the machine facts and
the figures that do not go into the JSON line lands in `.bench_out/`.
The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness

harness.pin_threads()  # before anything imports numpy

WORKLOADS = ("train", "decode", "run-all")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median

# name -> unit; the same set for every workload (see README.md)
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "tokens_per_s": "tokens/s"}


# per-layer figures a traced run takes outside its traced round (from the
# untraced rounds it runs first, or one recorded tape): name -> (unit,
# key in RunResult.extra); a workload that does not produce one reports 0
ROUND_FIGURES = {
    "numcore.tape_entries_per_record": ("count", "tape_entries_per_record"),
    "trainer.step_ms_p50": ("ms", "step_ms_p50"),
    "trainer.full_tokens_per_s": ("tokens/s", "train_full_tokens_per_s"),
    "trainer.lora_tokens_per_s": ("tokens/s", "train_lora_tokens_per_s"),
    "inference.query_ms_p50": ("ms", "decode_query_ms_p50"),
    "inference.query_ms_p90": ("ms", "decode_query_ms_p90"),
    "inference.multiturn_tokens_per_s": ("tokens/s", "decode_multiturn_tokens_per_s"),
}


def per_layer_units() -> dict[str, str]:
    import tracing
    special = {"datapipe.pad_ratio": "ratio",
               "pipeline.evaluate.decodes_per_query": "decodes/query"}
    units = {name: special.get(name, "s" if name.endswith((".s", ".self_s")) else "count")
             for name in tracing.per_layer_metrics(tracing.Tracer(), 0)}
    units.update({name: unit for name, (unit, _) in ROUND_FIGURES.items()})
    units.update({"trace.overhead_s": "s", "trace.overhead_pct": "%"})
    return units


def run_one(args) -> int:
    try:
        harness.use_checkout_source()
    except harness.SourceMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import tracing
    import wl_decode
    import wl_runall
    import wl_train

    module = {"train": wl_train, "decode": wl_decode, "run-all": wl_runall}[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    repeats = 1 if args.trace else SETUP_REPEATS
    res = module.run(args.seed, args.seconds, "shipped", repeats, tracer=tracer)
    res.metrics["peak_rss_mb"] = harness.peak_rss_mb()

    if tracer is None:
        metrics = {name: (res.metrics.get(name), unit) for name, unit in END_TO_END.items()}
    else:
        values = tracing.per_layer_metrics(tracer, res.extra.get("n_eval_queries", 0))
        values.update({name: res.extra.get(key, 0) for name, (_, key) in ROUND_FIGURES.items()})
        if "traced_round_s" in res.extra:
            untraced = statistics.median(res.extra["round_runs_s"])
            values["trace.overhead_s"] = res.extra["traced_round_s"] - untraced
            values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / untraced
        metrics = {name: (values.get(name), unit) for name, unit in per_layer_units().items()}
        spans = harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        harness.OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(spans)
        res.extra["spans_file"] = str(spans.relative_to(harness.ROOT))

    missing = [name for name, (value, _) in metrics.items() if value is None]
    res.problems += [f"metric {name} was not measured" for name in missing]
    correct = not res.problems
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value if value is not None else 'n/a':>14} {unit}")
    for key, value in sorted(res.extra.items()):
        if not isinstance(value, (list, dict)):
            print(f"{args.workload:8s} {'(' + key + ')':40s} {value:>14} ")
    print(f"{args.workload:8s} attempted {res.attempted} failed {res.failed}")
    for p in res.problems:
        print(f"CHECK FAILED: {p}")
    harness.write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "args": vars(args), "correct": correct,
        "attempted": res.attempted, "failed": res.failed, "problems": res.problems,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "extra": res.extra, "machine": harness.machine_facts(args.seed)})
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {n: {"value": v if v is not None else 0.0, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all_workloads(args) -> int:
    """Each workload in its own process, so its memory peak is its own."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        print(f"{workload:8s} process {time.perf_counter() - t0:.1f} s, exit {proc.returncode}")
        code = code or proc.returncode
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            code = code or 1
    if len(results) != len(WORKLOADS):
        return code or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="langlift benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
