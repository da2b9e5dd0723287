"""Process set-up shared by every workload: thread pinning, locating the
package source in the checkout, machine facts and peak memory.

`pin_threads()` must run before numpy is first imported, because BLAS
reads its thread count once, when it loads.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"


class SourceMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import langlift from this checkout's src/ and nowhere else, so the
    benchmark never measures an installed copy of some other version."""
    if not (SRC / "langlift" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC}/langlift")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import langlift
    if Path(langlift.__file__).resolve().parent != (SRC / "langlift").resolve():
        raise SourceMissing(f"langlift imported from {langlift.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "numpy_config": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
    }


def write_results(name: str, doc: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str), encoding="utf-8")
    os.replace(tmp, path)
    return path
