"""One round of one workload, in a fresh interpreter.

Run as ``python3 -m perfbench.round --workload <name> --seed <n>
--t0 <monotonic start>`` from the root of a checkout (``run.py`` does
this). The BLAS thread pools are pinned to one thread before numpy is
imported. The program is imported from ``src/`` of the same checkout and
nowhere else. The round's samples go to stdout as one JSON line.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children
    (pool workers), in MB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment(workload: str, shards: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    from repro.obs.manifest import git_describe

    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git_describe(str(ROOT)),
        "pool_shards": shards,
        "cache_state": "cold passes start from empty caches (a fresh "
                       "process, pool or grid, per workload); warm passes "
                       "repeat in place; spill off",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.round")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rated", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from perfbench.layers import Tracer
    from perfbench.workloads import Round, load

    rnd = Round(
        seed=args.seed,
        size=args.size,
        t0=args.t0,
        tracer=Tracer() if args.trace else None,
        rated=bool(args.rated),
    )
    result = load(args.workload).run(rnd)

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"imported {repro.__file__}, not the checkout's program",
              file=sys.stderr)
        return 2
    result.update(
        setup_s=rnd.setup_s,
        import_s=rnd.import_s,
        attempted=rnd.attempted,
        failed=len(rnd.failures),
        failures=rnd.failures[:20],
        peak_rss_mb=_peak_rss_mb(),
        calib_s=rnd.calib_s,
        env=environment(args.workload, result.get("shards", 0)),
    )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
