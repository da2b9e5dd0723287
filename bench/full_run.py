"""Reference figure: one `run-all` at the full shipped configuration.

Prints the duration of each pipeline step, the total and the peak
resident memory, and writes them to .bench_out/full_run-seed<n>.json.
It takes about three minutes on one core, so it is a reference figure
and not a benchmark workload.

    python3 bench/full_run.py --seed 0
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import harness

harness.pin_threads()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    harness.use_checkout_source()
    from langlift import pipeline as pl

    durations: dict[str, float] = {}
    for name in [n for n in dir(pl) if n.startswith("step_")]:
        original = getattr(pl, name)

        def timed(*a, _f=original, _n=name[len("step_"):], **kw):
            t0 = time.perf_counter()
            try:
                return _f(*a, **kw)
            finally:
                durations[_n] = time.perf_counter() - t0

        setattr(pl, name, timed)
    workdir = harness.WORK_DIR / f"full_run-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    pl.run_all(pl.RunConfig(seed=args.seed), str(workdir))
    total = time.perf_counter() - t0
    doc = {"run_all_s": total, "step_s": durations, "peak_rss_mb": harness.peak_rss_mb(),
           "machine": harness.machine_facts(args.seed)}
    harness.write_results(f"full_run-seed{args.seed}.json", doc)
    for step, s in durations.items():
        print(f"{step:16s} {s:9.2f} s")
    print(f"{'run_all':16s} {total:9.2f} s")
    print(f"{'peak_rss':16s} {doc['peak_rss_mb']:9.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
