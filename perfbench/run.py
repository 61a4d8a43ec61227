#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The workloads and metrics are declared in ``BENCHMARK.json``. The run is
a sequence of rounds; each round is a fresh interpreter
(``python3 -m perfbench.round``) that sets up, runs a cold pass and warm
passes, and checks its outputs. Rounds repeat until ``--seconds`` is
spent. Every end-to-end metric is the median over rounds of the round's
median, with times scaled to a reference host speed: each round times a
fixed calibration loop between its passes, and its times are multiplied
by ``CALIB_REF_S / median(calibration)``, so a stretch of slow host
does not read as a slow program. The samples are:

``setup_s``      interpreter start to ready (imports, pool spawn, model
                 and grid build), one sample per round;
``cold_s``       every cold pass: the first pass of a fresh process, or
                 on a fresh pool or grid where the workload says so;
``warm_s``       every repeat pass;
``peak_rss_mb``  the largest process of the round (its pool workers
                 included), one per round; not scaled.

For the length of the run one idle-priority busy loop per CPU keeps the
CPUs from halting (see ``keep_cpus_awake``).

With ``--trace 1`` rounds alternate between untraced and traced. Traced
rounds wrap each layer's entry points and report the per-layer metrics
and a self-time table; ``trace_overhead_pct`` compares the measured
passes of the two kinds. The last stdout line is the JSON result; the
run exits non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARD_LIMIT_S = 120.0
# The calibration loop's time on the reference host. A round's times are
# scaled by CALIB_REF_S / (the round's median calibration time), so a
# host that runs slower for a while does not read as a slower program.
CALIB_REF_S = 0.002
TIMES = ("setup_s", "cold_s", "warm_s")
ROUND_TIMEOUT_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(values) -> tuple[str, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples above
    it, or ``None`` when there are too few samples."""
    backed = [
        pct for pct in (50.0, 90.0, 99.0, 99.9)
        if len(values) * (1.0 - pct / 100.0) >= 10.0
    ]
    if not backed:
        return None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return f"p{backed[-1]:g}", cuts[int(round(backed[-1] * 10)) - 1]


# Spins until its parent goes away, so a killed run leaves nothing behind.
SPIN = """
import os
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


def _idle_priority() -> None:
    """Run only when nothing else wants the CPU (SCHED_IDLE: any other
    task that wakes up preempts it at once)."""
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


def keep_cpus_awake() -> list[subprocess.Popen]:
    """One idle-priority busy loop per CPU for the length of the run.

    On a virtual machine an idle CPU halts, and waking it for the next
    pipe message or thread hand-off can take far longer than the message
    itself, by an amount that depends on the rest of the host. The
    pooled workloads make thousands of such hand-offs, so their times
    swung by 2x between rounds. A CPU that always has something to run
    never halts, and at idle priority the loops give way to the
    benchmark whenever it is runnable.
    """
    return [
        subprocess.Popen([sys.executable, "-c", SPIN], preexec_fn=_idle_priority)
        for _ in range(os.cpu_count() or 1)
    ]


def run_round(args, traced: bool) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    cmd = [
        sys.executable, "-m", "perfbench.round",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--rated", "1" if args.trace and not traced else "0",
        "--size", args.size,
        "--t0", repr(time.monotonic()),
    ]
    # Own process group, so a timeout takes the round's pool workers down
    # with it. Not its own session: a session is a scheduler autogroup,
    # and one per round would let the keep_cpus_awake loops compete with
    # it as an equal.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, preexec_fn=os.setpgrp,
    )
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(
            f"round of {args.workload} exited {proc.returncode}"
        )
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def collect(args) -> list[dict]:
    min_rounds = 2 if args.trace else (1 if args.size == "tiny" else 3)
    rounds: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        rounds.append(run_round(args, traced))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - started
        if len(rounds) >= min_rounds and (
            elapsed + longest > args.seconds or elapsed > HARD_LIMIT_S
        ):
            return rounds


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, float, list]]:
    """Per metric: the median over rounds of each round's median, the
    same without scaling (host seconds), and every scaled sample."""
    per_round: dict[str, list[float]] = {}
    per_round_host: dict[str, list[float]] = {}
    samples: dict[str, list[float]] = {}
    for r in rounds:
        speed = CALIB_REF_S / statistics.median(r["calib_s"])
        for name, values in (
            ("setup_s", [r["setup_s"]]),
            ("cold_s", r["cold_s"]),
            ("warm_s", r["warm_s"]),
            ("peak_rss_mb", [r["peak_rss_mb"]]),
        ):
            scale = speed if name in TIMES else 1.0
            per_round_host.setdefault(name, []).append(statistics.median(values))
            values = [v * scale for v in values]
            per_round.setdefault(name, []).append(statistics.median(values))
            samples.setdefault(name, []).extend(values)
    return {
        name: (
            statistics.median(medians),
            statistics.median(per_round_host[name]),
            samples[name],
        )
        for name, medians in per_round.items()
    }


def per_layer(rounds: list[dict], spec: dict) -> dict[str, float]:
    """Median over the rounds that report each metric; a layer a
    workload never enters reads 0."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values: dict[str, list[float]] = {}
    for r in rounds:
        for name, value in r.get("layers", {}).items():
            values.setdefault(name, []).append(value)
    out = {
        m["name"]: statistics.median(values.get(m["name"], [0.0]))
        for m in spec["per_layer"]
    }
    out["process.import_s"] = statistics.median(r["import_s"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    out["failed_frac"] = sum(r["failed"] for r in rounds) / max(1, attempted)
    body_traced = statistics.median(r["body_wall_s"] for r in traced)
    body_plain = statistics.median(r["body_wall_s"] for r in plain)
    out["trace_overhead_pct"] = (body_traced / body_plain - 1.0) * 100.0
    return out


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: minimal inputs, for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Bytecode is a one-time cost of a fresh checkout, not of a run.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    spinners = keep_cpus_awake()
    try:
        rounds = collect(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in spinners:
            proc.kill()
            proc.wait()

    print(f"env: {json.dumps(rounds[0]['env'], sort_keys=True)}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for failure in r["failures"]:
            print(f"FAILED: {failure}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    if args.trace:
        metrics = per_layer(rounds, spec)
        for r in rounds:
            if r["traced"]:
                print(f"self time, {args.workload}, seed {args.seed}:")
                print(r["table"])
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            print(f"{name:<40} {metrics[name]:.6g} {units[name]}")
    else:
        calib = statistics.median(c for r in rounds for c in r["calib_s"])
        print(f"host speed: calibration loop {calib * 1e3:.3f} ms "
              f"(reference {CALIB_REF_S * 1e3:.3f} ms)")
        aggregated = end_to_end(rounds)
        metrics = {}
        for m in spec["end_to_end"]:
            value, host, samples = aggregated[m["name"]]
            metrics[m["name"]] = value
            tail = tail_percentile(samples)
            tail_text = (
                f"{tail[0]} {tail[1]:.6g}" if tail
                else "no tail percentile (<20 samples)"
            )
            print(
                f"{m['name']:<14} median {value:.6g} {m['unit']}  "
                f"{tail_text}  n={len(samples)} over {len(rounds)} rounds"
                f"  (unscaled {host:.6g})"
            )
        names = [m["name"] for m in spec["end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in names
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
