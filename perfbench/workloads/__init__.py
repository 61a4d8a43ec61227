"""The four workloads and the round context they share.

Each workload module exposes ``run(rnd) -> dict``. A round imports the
program, sets up (``rnd.ready()`` marks the end of set-up), runs a cold
pass and warm passes, takes the per-layer snapshot when the measured
body ends, and only then checks its outputs.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.layers import Tracer, install, self_time_table, worker_totals

WORKLOADS = {
    "artifacts": "perfbench.workloads.artifacts",
    "serve-mixed": "perfbench.workloads.serve_mixed",
    "thermal-loop": "perfbench.workloads.thermal_loop",
    "fleet": "perfbench.workloads.fleet",
}

# Per-layer span -> reported "<metric>" seconds (self time, summed over
# the main thread, other threads and pool workers).
LAYER_SECONDS = {
    "memsys.dramcache": "memsys.dramcache.s",
    "memsys.manager": "memsys.manager.s",
    "memsys.rowbuffer": "memsys.rowbuffer.s",
    "workloads.traces": "workloads.traces.s",
    "thermal.steady": "thermal.steady.s",
    "thermal.transient": "thermal.transient.s",
    "thermal.factor": "thermal.factor_s",
    "thermal_governor": "thermal_governor.s",
    "perfmodel": "perfmodel.s",
    "power": "power.s",
    "dse": "dse.s",
    "sim": "sim.s",
    "noc": "noc.s",
    "pool.spawn": "pool.spawn_s",
    "pool.run": "pool.run.s",
    "fleet.sweep": "fleet.sweep.s",
    "fleet.link": "fleet.link.s",
}

# Program counter (parent registry + pool workers) -> reported metric.
PROGRAM_COUNTS = {
    "memsys.manager.accesses": "memsys.manager.accesses",
    "memsys.rowbuffer.accesses": "memsys.rowbuffer.accesses",
    "thermal.solved_maps": "thermal.steady.maps",
    "thermal.throttle_events": "thermal_governor.throttle_events",
    "dse.grid_points": "dse.grid_points",
    "sim.apu.trace_rows": "sim.trace_rows",
    "noc.messages": "noc.messages",
    "pool.tasks": "pool.tasks",
    "pool.batches": "pool.batches",
    "pool.steals": "pool.steals",
    "pool.worker_restarts": "pool.worker_restarts",
    "cache.eval.hits": "evalcache.hits",
    "cache.eval.misses": "evalcache.misses",
    "cache.eval.spill_hits": "evalcache.spill_hits",
}

# Benchmark-side work counts -> reported metric.
SPAN_COUNTS = {
    "memsys.dramcache.accesses": "memsys.dramcache.accesses",
    "workloads.traces.rows": "workloads.traces.rows",
    "thermal.transient.steps": "thermal.transient.steps",
    "thermal.factorizations": "thermal.factorizations",
}


def load(name: str):
    """The workload module registered under *name*."""
    return importlib.import_module(WORKLOADS[name])


def calibration_loop() -> float:
    """Seconds for a fixed, interpreter-bound loop (a few ms)."""
    started = perf_counter()
    acc, table = 0, {}
    for i in range(20_000):
        acc += i * i
        table[i & 255] = acc
    return perf_counter() - started


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Round:
    """What one round knows about itself."""

    seed: int
    size: str
    t0: float
    tracer: Tracer | None = None
    rated: bool = False
    setup_s: float | None = None
    import_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    calib_s: list[float] = field(default_factory=list)
    _counters0: object = None
    _body_t0: float = 0.0
    _setup_spawn_s: float = 0.0

    @property
    def tiny(self) -> bool:
        return self.size == "tiny"

    def imported(self, started: float) -> None:
        """Close the program-import interval; wrap the layers if traced."""
        self.import_s = perf_counter() - started
        if self.tracer is not None:
            install(self.tracer)

    def ready(self) -> None:
        """End of set-up: interpreter start to ready, in host time."""
        self.setup_s = time.monotonic() - self.t0
        self.calibrate()

    def calibrate(self, samples: int = 5) -> None:
        """Time the fixed calibration loop between passes, so the run can
        tell how fast the host was while it measured."""
        for _ in range(samples):
            self.calib_s.append(calibration_loop())

    def begin_body(self) -> None:
        from repro.obs import metrics

        if self.tracer is not None:
            # Pool spawn happens in set-up; keep it before the reset.
            setup = self.tracer.snapshot()["self_s"]
            self._setup_spawn_s = sum(
                v for k, v in setup.items() if k.endswith("|pool.spawn")
            )
            self.tracer.reset()
        self._counters0 = metrics.snapshot()
        self._body_t0 = perf_counter()

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output; remember it when wrong."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def end_body(self, worker_snapshot=None, extra: dict | None = None) -> dict:
        """Wall time of the measured body, and in traced rounds its
        per-layer metrics and self-time table."""
        from repro.obs import metrics

        wall = perf_counter() - self._body_t0
        if self.tracer is None:
            return {"body_wall_s": wall}
        snap = self.tracer.snapshot()
        program = metrics.snapshot().diff(self._counters0)
        worker_self, worker_counts = ({}, {})
        if worker_snapshot is not None:
            worker_self, worker_counts = worker_totals(worker_snapshot)
            program = program.merge(worker_snapshot)

        main_self: dict[str, float] = {}
        thread_self: dict[str, float] = {}
        for key, secs in snap["self_s"].items():
            role, name = key.split("|", 1)
            target = main_self if role == "main" else thread_self
            target[name] = target.get(name, 0.0) + secs
        total_self: dict[str, float] = {}
        for part in (main_self, thread_self, worker_self):
            for name, secs in part.items():
                total_self[name] = total_self.get(name, 0.0) + secs
        counts = dict(snap["counts"])
        for name, value in worker_counts.items():
            counts[name] = counts.get(name, 0) + value

        out = {name: 0.0 for name in LAYER_SECONDS.values()}
        for span, metric in LAYER_SECONDS.items():
            out[metric] = total_self.get(span, 0.0)
        for counter, metric in PROGRAM_COUNTS.items():
            out[metric] = float(program.counter(counter))
        for counter, metric in SPAN_COUNTS.items():
            out[metric] = float(counts.get(counter, 0))
        out["pool.spawn_s"] += self._setup_spawn_s
        hits = counts.get("memsys.dramcache.hits", 0)
        accesses = out["memsys.dramcache.accesses"]
        out["memsys.dramcache.ns_per_access"] = (
            _ratio(out["memsys.dramcache.s"], accesses) * 1e9
        )
        out["memsys.dramcache.hit_rate"] = _ratio(hits, accesses)
        out["thermal.transient.steps_per_s"] = _ratio(
            out["thermal.transient.steps"], out["thermal.transient.s"]
        )
        out["perfmodel.ns_per_point"] = (
            _ratio(out["perfmodel.s"], counts.get("perfmodel.points", 0))
            * 1e9
        )
        looked = (
            out["evalcache.hits"] + out["evalcache.spill_hits"]
            + out["evalcache.misses"]
        )
        out["evalcache.hit_rate"] = _ratio(
            out["evalcache.hits"] + out["evalcache.spill_hits"], looked
        )
        out["unattributed_s"] = wall - sum(main_self.values())
        out.update(extra or {})
        return {
            "body_wall_s": wall,
            "layers": out,
            "table": self_time_table(
                main_self, wall, workers=worker_self, threads=thread_self
            ),
            "main_self": main_self,
        }
