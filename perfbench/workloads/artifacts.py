"""``artifacts``: the registered experiments, serial, as ``python -m repro
all`` runs them.

The cold pass is the first ``repro all`` of a fresh process: empty
in-process caches, no spill. The warm passes repeat it in the same
process. Every pass goes through the CLI's own ``main(["all"])`` with its
output sent to an in-memory sink; the registry entries are wrapped only
to capture each result for the check and to time each experiment
(``experiments.<id>.s`` is its cold-pass wall time, child layers
included).

The inputs are the paper's fixed artifacts, so the seed changes nothing
here. Every experiment's result data must match the reference digest in
``perfbench/reference/artifacts.json``; regenerate it with
``python3 -m perfbench.workloads.artifacts --write-reference`` (run from
the root of a checkout, ``src`` on ``PYTHONPATH``) only when a change of
the simulated outputs is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).resolve().parent.parent / "reference" / "artifacts.json"
WARM_PASSES = 1


def _canonical(value, out: list) -> None:
    """Append a deterministic text form of *value* (floats bit-exact)."""
    import numpy as np

    if isinstance(value, np.integer):
        out.append(repr(int(value)))
    elif value is None or isinstance(value, (bool, np.bool_, int, str)):
        out.append(repr(value))
    elif isinstance(value, (float, np.floating)):
        out.append(float(value).hex())
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        out.append(f"nd{arr.dtype.str}{arr.shape}")
        if arr.dtype == object:
            _canonical(arr.tolist(), out)
        else:
            out.append(hashlib.sha256(arr.tobytes()).hexdigest())
    elif isinstance(value, dict):
        items = []
        for key, item in value.items():
            key_parts: list = []
            _canonical(key, key_parts)
            items.append(("".join(key_parts), item))
        out.append("{")
        for key_text, item in sorted(items, key=lambda kv: kv[0]):
            out.append(key_text)
            out.append(":")
            _canonical(item, out)
            out.append(",")
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[" if isinstance(value, list) else "(")
        for item in value:
            _canonical(item, out)
            out.append(",")
        out.append("]")
    else:
        text = repr(value)
        if " at 0x" in text:
            raise TypeError(f"no deterministic form for {type(value)!r}")
        out.append(text)


def digest(result) -> str:
    """SHA-256 of an experiment's result data, bit-exact in its floats."""
    parts: list = []
    _canonical(dict(result.data), parts)
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def table2_heldout_err_pp(result) -> float:
    """Mean |model - paper| of Table II's "w/ opt" benefit, in percentage
    points. Calibration fits only the "w/o" column, so this one is held
    out."""
    rows = list(result.data.values())
    return sum(
        abs(r["benefit_opt_pct"] - r["paper_benefit_opt_pct"]) for r in rows
    ) / len(rows)


def _capture(name, fn, passes, tracer):
    timed = tracer.wrap(fn, "experiments") if tracer is not None else fn

    def run_one():
        started = perf_counter()
        result = timed()
        passes[-1][name] = (result, perf_counter() - started)
        return result

    return run_one


def run(rnd) -> dict:
    started = perf_counter()
    import repro.__main__ as cli
    from repro.experiments.registry import EXPERIMENTS

    rnd.imported(started)
    names = list(EXPERIMENTS)
    if rnd.tiny:
        names = names[:3]
    passes: list[dict] = []
    for name in names:
        EXPERIMENTS[name] = _capture(name, EXPERIMENTS[name], passes, rnd.tracer)
    argv = names if rnd.tiny else ["all"]
    rnd.ready()

    rnd.begin_body()
    walls = []
    for _ in range(1 + (1 if rnd.tiny else WARM_PASSES)):
        passes.append({})
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(list(argv))
        walls.append(perf_counter() - t0)
        rnd.calibrate()
        rnd.check(code == 0, f"repro all exited {code}")
    extra = {
        f"experiments.{name}.s": passes[0][name][1] for name in names
    }
    if "table2" in passes[0]:
        extra["model.table2_heldout_err_pp"] = table2_heldout_err_pp(
            passes[0]["table2"][0]
        )
    out = rnd.end_body(extra=extra)

    reference = json.loads(REFERENCE.read_text())["digests"]
    for index, done in enumerate(passes):
        for name in names:
            result = done[name][0] if name in done else None
            rnd.check(
                result is not None and digest(result) == reference.get(name),
                f"pass {index}: {name} result differs from the reference",
            )
    if "table2" in passes[0]:
        err = table2_heldout_err_pp(passes[0]["table2"][0])
        rnd.check(math.isfinite(err), "table2 held-out error is not finite")
    out.update(cold_s=walls[:1], warm_s=walls[1:])
    return out


def write_reference() -> None:
    from repro.experiments.registry import EXPERIMENTS

    digests = {name: digest(fn()) for name, fn in EXPERIMENTS.items()}
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps({"digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit("usage: python3 -m perfbench.workloads.artifacts "
                         "--write-reference")
    write_reference()
