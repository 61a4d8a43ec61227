"""Experiment and design-space fan-outs on one executor.

Two fan-outs live here, and both run on one executor: a
:class:`~repro.perf.pool.ShardedPool` passed as ``pool=``, or the
in-process ``ShardedPool(0)`` when none is given. Every path therefore
shares one task shape, one ordering rule and one metrics contract.

* :func:`run_experiments` — run any subset of the registered
  figure/table drivers, one pool task each. The drivers are independent
  of each other, so on a process pool the suite's wall-clock collapses
  to roughly its slowest member. Results come back keyed and ordered by
  the registry's canonical order regardless of completion order, and
  each task reports its own wall time.
* :func:`parallel_explore` — the design-space exploration as *tensor
  slabs*: the profiles are stacked into
  :class:`~repro.workloads.kernels.ProfileBatch` blocks and the grid is
  cut along its outermost (CU) axis, so one task is one fused
  ``(profile block) x (CU slab)`` evaluation via
  :meth:`~repro.core.node.NodeModel.evaluate_grid`. Because the fused
  kernel's coefficients all live on axes a CU slab slices through, slab
  results are bit-identical to the corresponding columns of a
  whole-grid pass, and concatenating slabs in order reproduces
  :func:`repro.core.dse.explore` exactly. The per-profile point engine
  stays serial, as the oracle, in ``explore(engine="point")``.

Slab tasks carry a ``shard_key`` of ``(profile-block fingerprint, slab
index)``, so the pool's affinity policy sends the same slab to the same
worker every sweep and that worker's warm :mod:`repro.perf.evalcache`
entries are never recomputed elsewhere; experiment tasks are routed by
``("experiment", name)``. A slab is described by ``(model, block,
space, cu_lo, cu_hi)`` — the block is a few KB of stacked scalar
columns — and each worker rebuilds the grid from the
:class:`~repro.core.config.DesignSpace` locally.

Worker processes each hold their own :mod:`repro.perf.evalcache`; the
in-process pool shares the parent's default cache, which is what makes
running every experiment evaluate each (profile, grid, model) triple at
most once.

Observability crosses the process boundary by value:
``parallel_explore(..., metrics=True)`` returns the merge of every
worker's per-batch registry delta (the parent's own delta in-process),
so per-worker cache hits and misses sum instead of vanishing with the
pool. :func:`run_experiments` likewise accepts ``metrics_out``/
``trace_out`` paths and writes a run manifest / Chrome trace for the
whole fan-out; each task runs under a span named after its experiment,
merged back into the parent's trace from pooled workers.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro.core.config import DesignSpace
from repro.core.dse import DseResult, select_optima
from repro.core.node import NodeModel
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import ExperimentResult
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsSnapshot
from repro.perf.evalcache import (
    evaluate_grid_cached,
    fingerprint_batch,
    fingerprint_model,
)
from repro.perf.pool import PoolTask, ShardedPool
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = [
    "grid_chunks",
    "parallel_explore",
    "run_experiments",
]


def _run_one(name: str) -> tuple[ExperimentResult, float]:
    """Execute one registered driver and time it (module-level:
    picklable)."""
    t0 = time.perf_counter()
    result = get_experiment(name)()
    return result, time.perf_counter() - t0


def run_experiments(
    names: Sequence[str] | None = None,
    *,
    pool: ShardedPool | None = None,
    metrics_out: str | None = None,
    trace_out: str | None = None,
) -> dict[str, ExperimentResult]:
    """Run the named experiments as tasks on *pool*.

    Parameters
    ----------
    names:
        Artifact names from the registry; ``None`` means all of them.
    pool:
        The :class:`~repro.perf.pool.ShardedPool` to run on; ``None``
        means the in-process ``ShardedPool(0)``. Each experiment is
        routed by ``shard_key=("experiment", name)``, so repeated runs
        on a persistent pool keep hitting the same warmed worker.
    metrics_out:
        Optional path; writes a run manifest (git revision, engine
        choices, cache counters, per-experiment wall times, metrics
        snapshot) after the run.
    trace_out:
        Optional path; installs a tracer for the run and writes Chrome
        trace-event JSON (open in Perfetto), one span per experiment.

    Returns a dict ordered by the registry's canonical order — never by
    completion order — so output is deterministic.
    """
    if names is None:
        ordered = list(EXPERIMENTS)
    else:
        ordered = [n for n in EXPERIMENTS if n in set(names)]
        unknown = set(names) - set(EXPERIMENTS)
        if unknown:
            raise KeyError(
                f"unknown experiment(s): {', '.join(sorted(unknown))}"
            )
    if not ordered:
        return {}
    if pool is None:
        pool = ShardedPool(0)

    t_start = time.perf_counter()
    tracer_cm = obs_trace.trace() if trace_out else nullcontext(None)
    with tracer_cm as tracer:
        with obs_trace.span(
            "experiments.pool", experiments=len(ordered),
            workers=pool.n_shards,
        ):
            values = pool.run([
                PoolTask(
                    fn=_run_one,
                    args=(name,),
                    shard_key=("experiment", name),
                    label=f"experiment.{name}",
                )
                for name in ordered
            ])
    wall_times = {name: secs for name, (_, secs) in zip(ordered, values)}
    wall_times["total"] = time.perf_counter() - t_start
    if trace_out and tracer is not None:
        tracer.write(trace_out)
    if metrics_out:
        from repro.obs import manifest as obs_manifest

        obs_manifest.write_manifest(
            metrics_out,
            command=f"run_experiments({', '.join(ordered)})",
            experiments=ordered,
            wall_times=wall_times,
        )
    return {name: result for name, (result, _) in zip(ordered, values)}


# ----------------------------------------------------------------------
# Sliced design-space exploration
# ----------------------------------------------------------------------
def grid_chunks(size: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` bounds splitting *size* points into at
    most *n_chunks* near-equal chunks.

    The single source of the split used by the tensor engine's CU slabs
    and profile blocks and by the fleet sweep — deterministic, so every
    process derives identical chunk bounds from ``(size, n_chunks)``
    alone.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    bounds = np.linspace(
        0, size, max(1, min(n_chunks, size)) + 1, dtype=int
    )
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


def _eval_slab(
    model: NodeModel,
    block: ProfileBatch,
    space: DesignSpace,
    cu_lo: int,
    cu_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One fused tensor slab: a profile block over a CU-axis slab.

    Returns ``(performance, power)`` of shape ``(len(block),
    slab_points)`` — the exact columns ``[cu_lo*F*B : cu_hi*F*B)`` of a
    whole-grid pass, bit for bit (the fused kernel's coefficients live
    on axes the CU slab slices through). Routes through the executing
    process's grid memo so repeated sweeps in a long-lived pool reuse
    whole-slab results.
    """
    grid = evaluate_grid_cached(model, block, space, cu_lo, cu_hi)
    return grid.performance, grid.power


def _slab_dedup_key(
    model_fp: str, batch_fp: str, space: DesignSpace, cu_lo: int, cu_hi: int
) -> str:
    """Content digest of one slab task's (pure) result, so the pool's
    payload dedup can answer a warm repeat sweep with parent-held
    arrays instead of re-pickling them across the pipe."""
    text = repr(("dse-slab", model_fp, batch_fp, repr(space), cu_lo, cu_hi))
    return hashlib.sha1(text.encode()).hexdigest()


def parallel_explore(
    profiles: Sequence[KernelProfile],
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
    *,
    pool: ShardedPool | None = None,
    n_chunks: int | None = None,
    metrics: bool = False,
) -> DseResult | tuple[DseResult, MetricsSnapshot]:
    """The full DSE as tensor-slab tasks on *pool*.

    Produces a :class:`~repro.core.dse.DseResult` identical to the
    serial :func:`repro.core.dse.explore` (slabs are concatenated in
    grid order before the optima are selected). The grid is cut along
    its outermost axis into at most ``n_chunks`` slabs and the profiles
    into at most ``n_chunks`` :class:`~repro.workloads.kernels.
    ProfileBatch` blocks; ``n_chunks`` defaults to
    ``max(1, pool.n_shards)``.

    *pool* is a :class:`~repro.perf.pool.ShardedPool` (``None`` means
    the in-process ``ShardedPool(0)``). Slab tasks are routed by
    ``(profile-block fingerprint, slab index)``, so across repeated
    sweeps each worker keeps seeing the slabs whose cache entries it
    already holds, and identical repeat results come back via the
    pool's payload dedup without re-shipping the arrays.

    With ``metrics=True`` the return value is ``(result, snapshot)``:
    the merge of every worker's registry delta for the run (the
    parent's own delta in-process), so the snapshot's cache hit/miss
    totals are the sums over all workers (one ``cache.eval`` lookup per
    task).
    """
    if not profiles:
        raise ValueError("parallel_explore needs at least one profile")
    batch = (
        profiles
        if isinstance(profiles, ProfileBatch)
        else ProfileBatch.from_profiles(profiles)
    )
    if len(set(batch.names)) != len(batch.names):
        raise ValueError("profile names must be unique")
    space = space or DesignSpace()
    model = model or NodeModel()
    if pool is None:
        pool = ShardedPool(0)
    if n_chunks is None:
        n_chunks = max(1, pool.n_shards)
    n_chunks = max(1, min(n_chunks, space.size))

    slabs = grid_chunks(len(space.cu_counts), n_chunks)
    block_ranges = grid_chunks(len(batch), n_chunks)
    model_fp = fingerprint_model(model)
    tasks = []
    for blo, bhi in block_ranges:
        block = batch[blo:bhi]
        block_fp = fingerprint_batch(block)
        for slab_idx, (cu_lo, cu_hi) in enumerate(slabs):
            tasks.append(PoolTask(
                fn=_eval_slab,
                args=(model, block, space, cu_lo, cu_hi),
                shard_key=(block_fp, slab_idx),
                dedup_key=_slab_dedup_key(
                    model_fp, block_fp, space, cu_lo, cu_hi
                ),
                label=(
                    f"dse.slab.{block.names[0]}+{len(block) - 1}"
                    f"[cu {cu_lo}:{cu_hi}]"
                ),
            ))
    if metrics:
        results, merged = pool.run(tasks, metrics=True)
    else:
        results = pool.run(tasks)

    performance: dict[str, np.ndarray] = {}
    node_power: dict[str, np.ndarray] = {}
    feasible: dict[str, np.ndarray] = {}
    per_block = len(slabs)
    for b_idx, (blo, bhi) in enumerate(block_ranges):
        rows = results[b_idx * per_block: (b_idx + 1) * per_block]
        perf = np.concatenate([r[0] for r in rows], axis=1)
        power = np.concatenate([r[1] for r in rows], axis=1)
        for j, name in enumerate(batch.names[blo:bhi]):
            performance[name] = perf[j]
            node_power[name] = power[j]
            feasible[name] = power[j] <= space.power_budget
    result = select_optima(space, performance, node_power, feasible)
    if metrics:
        return result, merged
    return result
