"""Cross-cutting performance layer.

* :mod:`repro.perf.evalcache` — shared, fingerprint-keyed memos in
  front of :meth:`repro.core.node.NodeModel.evaluate_arrays` and
  :meth:`repro.sim.apu_sim.ApuSimulator.run`, so every (profile, design
  grid, model) combination and every (sim config, trace, engine)
  simulation is computed once no matter how many drivers ask for it.
* :mod:`repro.perf.pool` — :class:`ShardedPool`, the one executor
  every fan-out runs on: worker processes with cache-affinity
  scheduling, spawned once and reused across sweeps, with stable shard
  routing keeping each worker's warm cache entries owned by that
  worker; ``ShardedPool(0)`` runs the same tasks in-process.
* :mod:`repro.perf.parallel` — the experiment runner and the
  tensor-slab design-space exploration, both running on a ``pool=``
  :class:`ShardedPool` (in-process when none is given).

``repro.perf.parallel`` is intentionally *not* imported here: it pulls
in the experiment drivers (and through them :mod:`repro.core.dse`,
which itself uses the cache), so importing it from the package root
would create an import cycle. Import it explicitly::

    from repro.perf.parallel import run_experiments

:mod:`repro.perf.pool` depends only on the observability layer, so its
names are re-exported here.
"""

from repro.perf.evalcache import (
    CacheStats,
    EvalCache,
    SimCache,
    cache_stats,
    clear_cache,
    default_cache,
    default_sim_cache,
    evaluate_arrays_cached,
    simulate_trace_cached,
)
from repro.perf.pool import (
    POLICIES,
    PoolStats,
    PoolTask,
    ShardedPool,
    stable_shard,
)

__all__ = [
    "CacheStats",
    "EvalCache",
    "POLICIES",
    "PoolStats",
    "PoolTask",
    "ShardedPool",
    "SimCache",
    "cache_stats",
    "clear_cache",
    "default_cache",
    "default_sim_cache",
    "evaluate_arrays_cached",
    "simulate_trace_cached",
    "stable_shard",
]
