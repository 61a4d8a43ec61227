"""Per-layer spans recorded from outside the program.

The benchmark never edits the program. In a traced round it wraps the
public entry points of each layer -- class methods on their class, free
functions at every module that binds them -- and records a span around
each call. Spans live in memory, one stack per thread. A layer's *self
time* is its span's duration minus the part its child spans cover, so
nesting never counts a second twice and the main thread's self times
plus an explicit ``unattributed`` remainder sum to its wall time.

Pool workers are forked after the wrappers are installed, so they run
the same wrappers. A worker cannot reach the parent's tracer: it books
its self times and counts into the program's own metrics registry as
``perfbench.*`` entries, which the pool already ships back with every
batch (:meth:`repro.perf.pool.ShardedPool.merged_snapshot`).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

__all__ = ["Tracer", "install", "worker_totals", "self_time_table"]

WORKER_PREFIX = "perfbench."


class Tracer:
    """Span stacks per thread, folded into per-layer totals on exit."""

    def __init__(self):
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.keep_durations: set[str] = set()

    # -- spans ---------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.role = (
                "main"
                if threading.current_thread() is threading.main_thread()
                else "thread"
            )
        return local

    def enter(self, name: str) -> None:
        self._state().stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        local = self._local
        name, start, child = local.stack.pop()
        duration = end - start
        if local.stack:
            local.stack[-1][2] += duration
        own = duration - child
        if os.getpid() != self.pid:
            _worker_registry().observe(f"{WORKER_PREFIX}{name}.self_s", own)
            return
        with self._lock:
            self.self_s[(local.role, name)] += own
            if name in self.keep_durations:
                self.durations[name].append(duration)

    def count(self, name: str, value: int = 1) -> None:
        """Add to a named work count (booked in the registry in workers)."""
        if os.getpid() != self.pid:
            _worker_registry().inc(f"{WORKER_PREFIX}count.{name}", value)
            return
        with self._lock:
            self.counts[name] += value

    def reset(self) -> None:
        """Drop every total (spans in flight keep their stacks)."""
        with self._lock:
            self.self_s.clear()
            self.counts.clear()
            self.durations.clear()

    def snapshot(self) -> dict:
        """Plain-data copy of the totals so far."""
        with self._lock:
            return {
                "self_s": {f"{r}|{n}": v for (r, n), v in self.self_s.items()},
                "counts": dict(self.counts),
                "durations": {k: list(v) for k, v in self.durations.items()},
            }

    # -- wrappers ------------------------------------------------------
    def wrap(self, fn, name: str, after=None):
        """*fn* inside a span; ``after(args, kwargs, result)`` runs once
        the span has closed (work counts read from the result)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_coroutine(self, fn, name: str):
        """A coroutine function whose every synchronous step (each slice
        between two suspensions) runs inside a span, so interleaved
        requests on one event loop never nest in each other."""
        tracer = self

        @types.coroutine
        def stepped(coro):
            value, error = None, None
            while True:
                tracer.enter(name)
                try:
                    if error is not None:
                        signal = coro.throw(error)
                    else:
                        signal = coro.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.exit()
                try:
                    value, error = (yield signal), None
                except BaseException as exc:  # forwarded into the coroutine
                    value, error = None, exc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return stepped(fn(*args, **kwargs))

        return wrapper

    def patch_method(self, cls, attr: str, name: str, after=None,
                     coroutine: bool = False) -> None:
        original = cls.__dict__.get(attr, getattr(cls, attr))
        if coroutine:
            wrapped = self.wrap_coroutine(original, name)
        else:
            wrapped = self.wrap(original, name, after)
        setattr(cls, attr, wrapped)

    def patch_function(self, module: str, attr: str, name: str,
                       after=None) -> None:
        """Wrap a free function at every loaded ``repro`` module that
        binds it (``from x import f`` copies the reference)."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _worker_registry():
    from repro.obs import metrics

    return metrics.default_registry()


def _points(result) -> int:
    import numpy as np

    perf = getattr(result, "flops_rate", None)
    if perf is None:
        perf = getattr(result, "perf", None)
    return int(np.size(perf)) if perf is not None else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to.

    Import-time side effects are the program's own; call this after the
    workload's imports so every binding module is already loaded.
    """
    from repro.core.thermal_governor import ThermalGovernor
    from repro.memsys.dramcache import DramCache
    from repro.memsys.manager import MemoryManager
    from repro.memsys.rowbuffer import RowBufferSim
    from repro.noc.simulator import NocSimulator
    from repro.perf.evalcache import EvalCache, MemsysCache, SimCache
    from repro.perf.pool import ShardedPool
    from repro.serve.service import EvalService
    from repro.sim.apu_sim import ApuSimulator
    from repro.thermal.analysis import ThermalModel
    from repro.thermal.grid import ThermalGrid
    from repro.workloads.traces import TraceGenerator

    import numpy as np

    # Import the remaining binding modules so patch_function sees them.
    for module in (
        "repro.experiments.registry",
        "repro.fleet.sweep",
        "repro.fleet.bench",
        "repro.perf.parallel",
    ):
        importlib.import_module(module)

    count = tracer.count

    def dramcache_counts(args, kwargs, flags):
        count("memsys.dramcache.accesses", int(flags.size))
        count("memsys.dramcache.hits", int(np.count_nonzero(flags)))

    def step_counts(args, kwargs, temps):
        count("thermal.transient.steps", 1 if temps.ndim == 3 else len(temps))

    def factor_counts(args, kwargs, result):
        count("thermal.factorizations")

    def trace_rows(args, kwargs, trace):
        count("workloads.traces.rows", len(trace))

    def kernel_points(args, kwargs, metrics):
        count("perfmodel.points", _points(metrics))

    methods = [
        (DramCache, "access_many", "memsys.dramcache", dramcache_counts),
        (MemoryManager, "run", "memsys.manager", None),
        (MemoryManager, "run_batch", "memsys.manager", None),
        (MemoryManager, "epoch", "memsys.manager", None),
        (MemoryManager, "epoch_array", "memsys.manager", None),
        (RowBufferSim, "run", "memsys.rowbuffer", None),
        (TraceGenerator, "generate", "workloads.traces", trace_rows),
        (ThermalGrid, "solve", "thermal.steady", None),
        (ThermalGrid, "solve_batch", "thermal.steady", None),
        (ThermalGrid, "step_transient", "thermal.transient", step_counts),
        (ThermalGrid, "step_transient_many", "thermal.transient",
         step_counts),
        (ThermalModel, "build_power_maps", "thermal.maps", None),
        (ThermalGovernor, "run", "thermal_governor", None),
        (ApuSimulator, "run", "sim", None),
        (ApuSimulator, "run_batch", "sim", None),
        (NocSimulator, "run", "noc", None),
        (NocSimulator, "run_batch", "noc", None),
        (ShardedPool, "__init__", "pool.spawn", None),
        (ShardedPool, "run", "pool.run", None),
        (EvalCache, "evaluate_grid", "evalcache", None),
        (EvalCache, "evaluate_arrays", "evalcache", None),
        (EvalCache, "get_or_compute", "evalcache", None),
        (EvalCache, "grid_key", "evalcache", None),
        (EvalCache, "peek_grid_key", "evalcache", None),
        (EvalCache, "seed_grid", "evalcache", None),
        (SimCache, "run", "evalcache", None),
        (SimCache, "peek_run", "evalcache", None),
        (SimCache, "seed_run", "evalcache", None),
        (MemsysCache, "dram_stats", "evalcache", None),
        (MemsysCache, "rowbuffer_stats", "evalcache", None),
        (MemsysCache, "manager_fractions", "evalcache", None),
        (EvalService, "_execute_batch", "serve.batch", None),
    ]
    for cls, attr, name, after in methods:
        tracer.patch_method(cls, attr, name, after)
    tracer.patch_method(EvalService, "submit", "serve.submit", coroutine=True)
    tracer.keep_durations.add("serve.batch")

    functions = [
        ("repro.perfmodel.roofline", "evaluate_kernel", "perfmodel",
         kernel_points),
        ("repro.perfmodel.roofline", "evaluate_kernel_grid", "perfmodel",
         kernel_points),
        ("repro.power.breakdown", "node_power", "power", None),
        ("repro.power.breakdown", "node_power_grid", "power", None),
        ("repro.core.dse", "explore", "dse", None),
        ("repro.fleet.sweep", "fleet_sweep", "fleet.sweep", None),
        ("repro.fleet.link", "derate_model", "fleet.link", None),
        ("repro.perf.parallel", "grid_chunks", "perf.grid_chunks", None),
        ("repro.thermal.grid", "splu", "thermal.factor", factor_counts),
    ]
    for module, attr, name, after in functions:
        tracer.patch_function(module, attr, name, after)


def worker_totals(snapshot) -> tuple[dict, dict]:
    """``(layer -> self seconds, count name -> value)`` booked by pool
    workers, read from a merged worker metrics snapshot."""
    layers: dict[str, float] = {}
    for name, hist in snapshot.histograms.items():
        if name.startswith(WORKER_PREFIX) and name.endswith(".self_s"):
            layers[name[len(WORKER_PREFIX):-len(".self_s")]] = hist.total
    counts = {
        name[len(WORKER_PREFIX) + len("count."):]: value
        for name, value in snapshot.counters.items()
        if name.startswith(WORKER_PREFIX + "count.")
    }
    return layers, counts


def self_time_table(main_self: dict, wall_s: float,
                    workers: dict | None = None,
                    threads: dict | None = None) -> str:
    """Render the main thread's self times against its wall time, plus
    the other threads' and pool workers' busy time for reference."""
    lines = [f"  {'layer':<22}{'self s':>10}{'share':>9}"]
    for name, secs in sorted(main_self.items(), key=lambda kv: -kv[1]):
        share = secs / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {name:<22}{secs:>10.4f}{share:>8.1%}")
    unattributed = wall_s - sum(main_self.values())
    share = unattributed / wall_s if wall_s > 0 else 0.0
    lines.append(f"  {'unattributed':<22}{unattributed:>10.4f}{share:>8.1%}")
    lines.append(f"  {'wall (main thread)':<22}{wall_s:>10.4f}{1:>8.0%}")
    for title, extra in (
        ("other threads (concurrent)", threads),
        ("pool workers (other processes)", workers),
    ):
        if extra:
            lines.append(f"  -- {title}")
            for name, secs in sorted(extra.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {name:<22}{secs:>10.4f}")
    return "\n".join(lines)
