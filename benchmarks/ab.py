#!/usr/bin/env python3
"""Same-runner A/B regression gate: ``python3 benchmarks/ab.py --base <rev>``.

``<rev>`` is checked out into a temporary git worktree with this
checkout's ``perfbench/`` and ``BENCHMARK.json`` copied over it, so both
sides run identical benchmark code. Every workload runs ``PAIRS`` pairs,
seed ``i`` on both sides in pair ``i``, alternating which side runs
first; :func:`verdict` judges the results. Exits 1 when it fails them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 1


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(spec: dict, base: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines and pass/fail for two sides' results.

    *base* and *change* map each workload to its runs' parsed result
    lines (``None`` for a run that printed none). An end-to-end metric
    regresses when the change's median is worse than the base's by more
    than its ``bound`` x the base median. It is unresolved when the
    base's interquartile range is wider than that, unless every change
    run reads better than every base run; under such a spread only a
    change whose every run reads worse than every base run regresses.
    A regression, a wrong or missing result on either side, or a larger
    failed share on the change fails the comparison.
    """
    lines = [f"{'workload':<13} {'metric':<12} {'base':>10} {'change':>10}"
             f" {'delta':>8}  verdict"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"base": base[workload], "change": change[workload]}
        failed = {}
        for side, runs in sides.items():
            wrong = sum(r is None or not r["correct"] for r in runs)
            if wrong:
                lines.append(f"{workload}: {wrong} of {len(runs)} {side} "
                             "runs wrong or without a result")
                ok = False
            failed[side] = sum(r["failed"] for r in runs if r) / max(
                1, sum(r["attempted"] for r in runs if r))
        if failed["change"] > failed["base"]:
            lines.append(f"{workload}: failed share {failed['change']:.4g}"
                         f" > base {failed['base']:.4g}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            b, c = ([sign * r["metrics"][name]["value"] for r in runs if r]
                    for runs in sides.values())
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            limit = bound * abs(mb)
            wide = _iqr(b) > limit
            if mc - mb > limit and (not wide or min(c) > max(b)):
                word, ok = "REGRESSION", False
            elif wide and not max(c) < min(b):
                word = "unresolved"
            else:
                word = "ok"
            delta = (mc - mb) / abs(mb) * 100.0 if mb else 0.0
            lines.append(f"{workload:<13} {name:<12} {sign * mb:>10.4g} "
                         f"{sign * mc:>10.4g} {sign * delta:>+7.1f}%  {word}")
    return lines, ok


def run_once(root: Path, command: list[str], workload: str,
             seed: int) -> dict | None:
    """One benchmark run in *root*; its last stdout line, parsed."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS)],
        cwd=root, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 benchmarks/ab.py")
    parser.add_argument("--base", required=True, metavar="REV",
                        help="the git revision to compare against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    tree = tmp / "base"
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(tree),
                        args.base], cwd=ROOT, check=True)
        shutil.rmtree(tree / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        roots = {"base": tree, "change": ROOT}
        results = {"base": {}, "change": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(PAIRS):
                order = ("base", "change") if seed % 2 == 0 else (
                    "change", "base")
                for side in order:
                    results[side].setdefault(workload, []).append(run_once(
                        roots[side], spec["command"], workload, seed))
                print(f"{workload}: pair {seed + 1}/{PAIRS} done",
                      flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)

    lines, ok = verdict(spec, results["base"], results["change"])
    print("\n".join(lines))
    print(f"ab: {'no regression' if ok else 'FAILED'} against {args.base} "
          f"({PAIRS} pairs, {SECONDS} s per run)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
