"""``fleet``: ``fleet_sweep`` over a heterogeneous ``synthetic_fleet`` on a
``ShardedPool``, as ``python -m repro fleet`` runs it.

Set-up builds the fleet and spawns the pool (at most ``nproc`` shards,
2 here). A cold pass is the first sweep on a fresh pool: empty worker
caches, no spill. Its warm passes repeat it on the same pool, so every
chunk lands on the worker that already holds it. A round makes several
cold passes, each on a pool spawned outside the timer.

The fleet comes from ``synthetic_fleet(seed)``; each group is then
trimmed or topped up to two distinct profiles, so every seed sweeps the
same number of series. Checks, outside the timed passes: every pass is
bit-identical (``identical_results``) to ``fleet_sweep_serial``.
"""

from __future__ import annotations

import dataclasses
import os
from time import perf_counter

GROUPS = 128
NODES = 20_000
PROFILES_PER_GROUP = 2
CU_COUNTS = tuple(range(192, 385, 16))
COLD_PASSES = 3
WARM_PASSES = 5


def build_spec(seed: int, groups: int, nodes: int):
    import numpy as np

    from repro.fleet.spec import FleetSpec, synthetic_fleet
    from repro.workloads.catalog import APPLICATIONS

    spec = synthetic_fleet(n_nodes=nodes, n_groups=groups, seed=seed)
    catalog = list(APPLICATIONS.values())
    rng = np.random.default_rng([seed, 20])
    out = []
    for group in spec.groups:
        profiles = list(group.profiles[:PROFILES_PER_GROUP])
        while len(profiles) < PROFILES_PER_GROUP:
            pick = catalog[int(rng.integers(len(catalog)))]
            if all(p.name != pick.name for p in profiles):
                profiles.append(pick)
        out.append(dataclasses.replace(group, profiles=tuple(profiles)))
    return FleetSpec(
        groups=tuple(out), link=spec.link,
        power_budget_mw=spec.power_budget_mw,
    )


def run(rnd) -> dict:
    started = perf_counter()
    from repro.core.node import NodeModel
    from repro.fleet import sweep
    from repro.fleet.bench import identical_results
    from repro.perf.pool import ShardedPool

    rnd.imported(started)
    groups = 8 if rnd.tiny else GROUPS
    spec = build_spec(rnd.seed, groups, NODES)
    model = NodeModel()
    shards = max(1, min(2, os.cpu_count() or 1))
    pool = ShardedPool(shards)
    rnd.ready()

    rnd.begin_body()
    cold, warm, results = [], [], []
    workers = None
    for index in range(1 if rnd.tiny else COLD_PASSES):
        if index:
            pool = ShardedPool(shards)
        try:
            for walls in [cold] + [warm] * (1 if rnd.tiny else WARM_PASSES):
                t0 = perf_counter()
                results.append(
                    sweep.fleet_sweep(spec, CU_COUNTS, model, pool=pool)
                )
                walls.append(perf_counter() - t0)
                rnd.calibrate()
            snap = pool.merged_snapshot()
            workers = snap if workers is None else workers.merge(snap)
            balance = pool.assignment_balance()
        finally:
            pool.shutdown()
    out = rnd.end_body(
        worker_snapshot=workers,
        extra={"fleet.series": float(spec.n_series), "pool.balance": balance},
    )

    oracle = sweep.fleet_sweep_serial(spec, CU_COUNTS, model)
    for index, result in enumerate(results):
        rnd.check(identical_results(oracle, result),
                  f"pass {index}: sharded sweep differs from the serial oracle")
    out.update(cold_s=cold, warm_s=warm, shards=shards)
    return out
