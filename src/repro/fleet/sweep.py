"""Fleet-scale CU sweeps over heterogeneous node groups.

:func:`fleet_sweep_serial` is the oracle: for every ``(group,
profile)`` series it runs the same scalar per-point loop as
:meth:`repro.core.exascale.ExascaleSystem.estimate` — link-tier
derated, ``ext_fraction`` taken from the profile — and rolls the
series up into group and fleet curves.

:func:`fleet_sweep` is the production path. It partitions each
series' CU axis into chunks, ships every chunk to a
:class:`~repro.perf.pool.ShardedPool` worker as an independent task,
and reassembles. Three properties make it both fast and trustworthy:

* **Bit identity by construction.** Workers execute the *identical*
  scalar loop the oracle runs (numpy's scalar and vectorized paths can
  differ by 1 ULP, so the fleet path deliberately avoids switching to
  arrays). The parent's roll-up then applies the same left-to-right
  scaling arithmetic as :meth:`ExascaleSystem.estimate`, so
  ``fleet_sweep(...) == fleet_sweep_serial(...)`` exactly.
* **Cache affinity.** ``shard_key`` leads with the group fingerprint,
  so a group's chunks revisit the worker whose
  :class:`~repro.perf.evalcache.EvalCache` already holds them; a warm
  repeat is ~one memo lookup per chunk instead of thousands of model
  evaluations.
* **Cross-shard warm tier.** With *spill_dir* set, chunk results
  persist to a shared directory through the eval cache's spill layer.
  A brand-new pool (different process, different day, same directory)
  starts warm.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.config import EHPConfig
from repro.core.exascale import ExascaleSystem
from repro.core.node import NodeModel
from repro.fleet.link import derate_model
from repro.fleet.spec import FleetGroup, FleetSpec, fingerprint_group
from repro.perf.evalcache import (
    fingerprint_model,
    fingerprint_profile,
    shared_cache,
)
from repro.perf.parallel import grid_chunks
from repro.perf.pool import PoolTask, ShardedPool
from repro.util.units import MW
from repro.workloads.kernels import KernelProfile

__all__ = [
    "FleetSweepResult",
    "fleet_manifest",
    "fleet_sweep",
    "fleet_sweep_serial",
]

@dataclass(frozen=True)
class FleetSweepResult:
    """Every roll-up level of one fleet CU sweep.

    ``series_*`` maps ``(group_name, profile_name)`` to the per-CU
    curve for *one node group* running *one profile* scaled to the
    group's node count; ``group_*`` averages a group's profiles (its
    nodes split time evenly across the mix); ``fleet_*`` sums the
    groups. ``best_index`` picks the CU point with the highest fleet
    exaflops among points inside the power budget (falling back to the
    overall argmax when nothing fits).
    """

    spec: FleetSpec
    cu_counts: tuple[int, ...]
    series_exaflops: dict[tuple[str, str], np.ndarray]
    series_power_mw: dict[tuple[str, str], np.ndarray]
    group_exaflops: dict[str, np.ndarray]
    group_power_mw: dict[str, np.ndarray]
    fleet_exaflops: np.ndarray
    fleet_power_mw: np.ndarray
    best_index: int

    @property
    def best_cu(self) -> int:
        """CU count at the selected operating point."""
        return self.cu_counts[self.best_index]

    @property
    def best_exaflops(self) -> float:
        """Fleet exaflops at the selected operating point."""
        return float(self.fleet_exaflops[self.best_index])

    @property
    def best_power_mw(self) -> float:
        """Fleet power at the selected operating point."""
        return float(self.fleet_power_mw[self.best_index])

    @property
    def meets_budget(self) -> bool:
        """Is the selected point inside the fleet power budget?"""
        return self.best_power_mw <= self.spec.power_budget_mw

    def summary(self) -> str:
        """One human line for logs and the CLI."""
        verdict = "within" if self.meets_budget else "OVER"
        return (
            f"fleet of {self.spec.n_nodes} nodes / "
            f"{len(self.spec.groups)} groups: best {self.best_exaflops:.3f}"
            f" EF @ {self.best_cu} CUs, {self.best_power_mw:.2f} MW "
            f"({verdict} {self.spec.power_budget_mw:.0f} MW budget)"
        )


def _series_chunk(model, profile, config, cus, ext_fraction):
    """The oracle's inner loop for one chunk of CU counts.

    This is deliberately the scalar path — ``model.evaluate`` plus
    ``float()`` extraction, exactly what
    :meth:`ExascaleSystem.estimate` does — because numpy scalarmath
    and vectorized ufuncs may differ by 1 ULP and the fleet result is
    gated bit-identical to the serial loop.
    """
    perf = np.empty(len(cus), dtype=float)
    power = np.empty(len(cus), dtype=float)
    for i, n in enumerate(cus):
        ev = model.evaluate(
            profile,
            config.with_axes(n_cus=int(n)),
            ext_fraction=ext_fraction,
        )
        perf[i] = float(ev.performance)
        power[i] = float(ev.ehp_power)
    return perf, power


def _eval_fleet_chunk(model, profile, config, cus, ext_fraction, spill_dir,
                      memo_key):
    """Pool-worker entry point: one memoized series chunk.

    *memo_key* is the parent-computed content key (model + profile
    fingerprints, config repr, CU slice, ext fraction); equal keys are
    interchangeable results, so the chunk memoizes at whole-chunk
    granularity — a warm repeat costs one cache lookup, not one per
    point — and spills to *spill_dir* when set.
    """
    cache = shared_cache(spill_dir)

    def compute():
        return _series_chunk(model, profile, config, cus, ext_fraction)

    return cache.get_or_compute(memo_key, compute)


def _finalize(
    spec: FleetSpec,
    cu_counts: tuple[int, ...],
    per: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]],
) -> FleetSweepResult:
    """Group and fleet roll-ups from per-series curves.

    Deterministic reduction order (profiles then groups, both in spec
    order) so the serial and sharded sweeps sum identically.
    """
    n = len(cu_counts)
    series_exa: dict[tuple[str, str], np.ndarray] = {}
    series_mw: dict[tuple[str, str], np.ndarray] = {}
    group_exa: dict[str, np.ndarray] = {}
    group_mw: dict[str, np.ndarray] = {}
    fleet_exa = np.zeros(n, dtype=float)
    fleet_mw = np.zeros(n, dtype=float)
    for group in spec.groups:
        g_exa = np.zeros(n, dtype=float)
        g_mw = np.zeros(n, dtype=float)
        for profile in group.profiles:
            exa, mw = per[(group.name, profile.name)]
            series_exa[(group.name, profile.name)] = exa
            series_mw[(group.name, profile.name)] = mw
            g_exa = g_exa + exa
            g_mw = g_mw + mw
        # The group's nodes split time evenly across its profile mix.
        g_exa = g_exa / float(len(group.profiles))
        g_mw = g_mw / float(len(group.profiles))
        group_exa[group.name] = g_exa
        group_mw[group.name] = g_mw
        fleet_exa = fleet_exa + g_exa
        fleet_mw = fleet_mw + g_mw
    feasible = fleet_mw <= spec.power_budget_mw
    if bool(np.any(feasible)):
        best = int(np.argmax(np.where(feasible, fleet_exa, -np.inf)))
    else:
        best = int(np.argmax(fleet_exa))
    return FleetSweepResult(
        spec=spec,
        cu_counts=cu_counts,
        series_exaflops=series_exa,
        series_power_mw=series_mw,
        group_exaflops=group_exa,
        group_power_mw=group_mw,
        fleet_exaflops=fleet_exa,
        fleet_power_mw=fleet_mw,
        best_index=best,
    )


def _scale_series(
    group: FleetGroup, perf: np.ndarray, power: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node curves -> group-scaled (exaflops, MW) curves.

    Elementwise ``perf * n_nodes / 1e18`` is the same IEEE operation
    sequence as :meth:`ExascaleSystem.estimate`'s scalar
    ``node_flops * n_nodes / 1.0e18`` (integer node counts are exact
    in float64), keeping the two sweeps bit-identical.
    """
    return (
        perf * group.n_nodes / 1.0e18,
        power * group.n_nodes / MW,
    )


def _series_inputs(group: FleetGroup, spec: FleetSpec, model: NodeModel):
    """Per-profile (profile, derated model, ext_fraction) rows."""
    rows = []
    for profile in group.profiles:
        gmodel = derate_model(
            model, spec.link, profile, group.concurrent_kernels
        )
        rows.append((profile, gmodel, float(profile.ext_memory_fraction)))
    return rows


def fleet_sweep_serial(
    spec: FleetSpec,
    cu_counts,
    model: NodeModel | None = None,
) -> FleetSweepResult:
    """The oracle: every series swept by the plain scalar estimate loop."""
    model = model or NodeModel()
    cu_list = tuple(int(n) for n in cu_counts)
    per: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    for group in spec.groups:
        for profile, gmodel, ext in _series_inputs(group, spec, model):
            system = ExascaleSystem(group.n_nodes, gmodel)
            exa = np.empty(len(cu_list), dtype=float)
            mw = np.empty(len(cu_list), dtype=float)
            for i, n in enumerate(cu_list):
                est = system.estimate(
                    profile,
                    group.config.with_axes(n_cus=n),
                    ext_fraction=ext,
                )
                exa[i] = est.exaflops
                mw[i] = est.machine_power_mw
            per[(group.name, profile.name)] = (exa, mw)
    return _finalize(spec, cu_list, per)


def fleet_sweep(
    spec: FleetSpec,
    cu_counts,
    model: NodeModel | None = None,
    *,
    pool: ShardedPool | None = None,
    n_chunks: int | None = None,
    metrics: bool = False,
    spill_dir: str | None = None,
):
    """Sweep the fleet's CU axis; bit-identical to the serial oracle.

    Partitions every ``(group, profile)`` series into *n_chunks* CU
    chunks and runs them as independent memoized tasks on *pool* (shard
    keys lead with the group fingerprint for cache affinity; ``None``
    means the in-process ``ShardedPool(0)``). *spill_dir* adds the
    shared on-disk warm tier.

    With ``metrics=True`` returns ``(result, snapshot)``; the snapshot
    merges every worker's registry delta for the run (the parent's own
    delta in-process).
    """
    model = model or NodeModel()
    cu_list = tuple(int(n) for n in cu_counts)
    if not cu_list:
        raise ValueError("cu_counts must be non-empty")

    if pool is None:
        pool = ShardedPool(0)
    if n_chunks is None:
        n_chunks = 2 * pool.n_shards or 4
    chunks = grid_chunks(len(cu_list), n_chunks)

    tasks: list[PoolTask] = []
    owners: list[tuple[FleetGroup, str, int, int]] = []
    for group in spec.groups:
        # Validate every config eagerly — the sharded path must reject
        # exactly what the serial loop would, before any work ships.
        for n in cu_list:
            group.config.with_axes(n_cus=n)
        gfp = fingerprint_group(group, spec.link, model)
        for profile, gmodel, ext in _series_inputs(group, spec, model):
            mfp = fingerprint_model(gmodel)
            pfp = fingerprint_profile(profile)
            for ci, (lo, hi) in enumerate(chunks):
                memo_key = (
                    "fleet-chunk",
                    mfp,
                    pfp,
                    repr(group.config),
                    cu_list[lo:hi],
                    ext,
                )
                tasks.append(
                    PoolTask(
                        fn=_eval_fleet_chunk,
                        args=(
                            gmodel,
                            profile,
                            group.config,
                            cu_list[lo:hi],
                            ext,
                            spill_dir,
                            memo_key,
                        ),
                        shard_key=(gfp, pfp, ci),
                        dedup_key=hashlib.sha1(
                            repr(memo_key).encode()
                        ).hexdigest(),
                        label=(
                            f"fleet.{group.name}.{profile.name}"
                            f"[{lo}:{hi}]"
                        ),
                    )
                )
                owners.append((group, profile.name, lo, hi))

    raw, snap = pool.run(tasks, metrics=True)

    per: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    parts: dict[tuple[str, str], list[tuple[int, np.ndarray, np.ndarray]]]
    parts = {}
    for (group, pname, lo, hi), (perf, power) in zip(owners, raw):
        parts.setdefault((group.name, pname), []).append((lo, perf, power))
    for group in spec.groups:
        for profile in group.profiles:
            rows = sorted(parts[(group.name, profile.name)])
            perf = np.concatenate([r[1] for r in rows])
            power = np.concatenate([r[2] for r in rows])
            per[(group.name, profile.name)] = _scale_series(
                group, perf, power
            )
    result = _finalize(spec, cu_list, per)
    return (result, snap) if metrics else result


def fleet_manifest(
    result: FleetSweepResult,
    pool: ShardedPool | None = None,
    wall_time: float | None = None,
) -> dict:
    """JSON-ready manifest section for one fleet sweep.

    Merges the run's structure (groups, node counts, best point) with
    the pool's shard-level health: initial task spread, the balance
    efficiency ``check_fleet`` gates on, per-shard eval-cache hit
    rates, and the merged worker cache counters.
    """
    spec = result.spec
    section: dict = {
        "n_nodes": spec.n_nodes,
        "n_groups": len(spec.groups),
        "n_series": spec.n_series,
        "cu_counts": list(result.cu_counts),
        "power_budget_mw": spec.power_budget_mw,
        "link_tier": None if spec.link is None else repr(spec.link),
        "groups": [
            {
                "name": g.name,
                "n_nodes": g.n_nodes,
                "profiles": [p.name for p in g.profiles],
                "concurrent_kernels": g.concurrent_kernels,
                "n_cus": g.config.n_cus,
                "gpu_freq": g.config.gpu_freq,
                "bandwidth": g.config.bandwidth,
            }
            for g in spec.groups
        ],
        "best": {
            "cu": result.best_cu,
            "exaflops": result.best_exaflops,
            "power_mw": result.best_power_mw,
            "meets_budget": result.meets_budget,
        },
    }
    if wall_time is not None:
        section["wall_time_s"] = wall_time
    if pool is not None:
        merged = pool.merged_snapshot()
        section["pool"] = {
            "n_shards": pool.n_shards,
            "shard_task_counts": pool.last_shard_task_counts(),
            "assignment_balance": pool.assignment_balance(),
            "shard_cache_hit_rates": pool.shard_cache_hit_rates(),
            "eval_cache": {
                "hits": merged.counter("cache.eval.hits"),
                "misses": merged.counter("cache.eval.misses"),
                "spill_hits": merged.counter("cache.eval.spill_hits"),
            },
        }
    return section
