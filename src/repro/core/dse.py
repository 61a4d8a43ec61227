"""Design-space exploration (Section V preamble, Section VI, Table II).

The paper sweeps over a thousand (CU count, frequency, bandwidth)
configurations under a 160 W node power budget and an area budget of 384
CUs, reporting (a) the configuration with the best *average* performance
across all applications — the statically fixed design point — and (b) each
application's own best configuration, whose advantage over the static
point is the headroom for dynamic resource reconfiguration (Table II).

We use the geometric mean as the cross-application average: it is scale
invariant, so the per-application normalization the paper applies does not
change the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import DesignSpace, EHPConfig
from repro.core.node import NodeModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.engines import check_engine
from repro.util.stats import geometric_mean_across
from repro.workloads.kernels import KernelProfile

__all__ = [
    "DseResult",
    "ENGINES",
    "explore",
    "select_optima",
    "best_mean_config",
    "best_config_for",
]

ENGINES: tuple[str, ...] = ("tensor", "point")
"""Available exploration engines.

``tensor``
    One fused broadcast pass over the whole ``(profile x CU x freq x
    BW)`` tensor (:meth:`~repro.core.node.NodeModel.evaluate_grid`).
    The default: ~10x faster than the point engine at Table-II scale,
    selecting bit-identical optima.
``point``
    The original per-profile :meth:`~repro.core.node.NodeModel.
    evaluate_arrays` loop — the retained oracle the equivalence tests
    and the perf gate compare against.
"""


@dataclass(frozen=True)
class DseResult:
    """Outcome of one full design-space exploration.

    Attributes
    ----------
    space:
        The grid that was swept.
    performance:
        Per-application achieved FLOP/s at every grid point (flattened).
    node_power:
        Per-application total node power at every grid point, watts (the
        160 W budget's subject — the 200 W node envelope minus cooling
        and inter-node networking headroom, Section V footnote 4).
    feasible:
        Per-application budget feasibility mask.
    best_mean_index:
        Flat grid index of the best geometric-mean configuration among
        points feasible for *every* application.
    per_app_best_index:
        Flat grid index of each application's own best feasible point.
    """

    space: DesignSpace
    performance: Mapping[str, np.ndarray]
    node_power: Mapping[str, np.ndarray]
    feasible: Mapping[str, np.ndarray]
    best_mean_index: int
    per_app_best_index: Mapping[str, int]

    @property
    def best_mean_config(self) -> EHPConfig:
        """The statically fixed best-average configuration."""
        return self.space.config_at(self.best_mean_index)

    def best_config(self, app: str) -> EHPConfig:
        """An application's own best configuration."""
        return self.space.config_at(self.per_app_best_index[app])

    def benefit_over_mean(self, app: str) -> float:
        """Table II's metric: % performance gain of the app-specific
        configuration over the best-mean configuration."""
        perf = self.performance[app]
        at_best = perf[self.per_app_best_index[app]]
        at_mean = perf[self.best_mean_index]
        return float(at_best / at_mean - 1.0) * 100.0

    def mean_performance(self) -> np.ndarray:
        """Geometric-mean performance across applications at every point."""
        stacked = np.stack([self.performance[a] for a in self.performance])
        return geometric_mean_across(stacked, axis=0)

    def all_feasible_mask(self) -> np.ndarray:
        """Points feasible for every application simultaneously."""
        stacked = np.stack([self.feasible[a] for a in self.feasible])
        return stacked.all(axis=0)


def explore(
    profiles: Sequence[KernelProfile],
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
    cache=None,
    engine: str = "tensor",
) -> DseResult:
    """Sweep *space* for all *profiles* and locate the optima.

    Performance uses the paper's DSE convention (all traffic served
    in-package); the budget applies to total node power, which at the DSE
    operating point is EHP package power plus the external memory
    network's static floor.

    *engine* selects between the fused whole-grid tensor pass and the
    per-profile point loop (see :data:`ENGINES`). Both engines select
    bit-identical ``best_mean_index`` / ``per_app_best_index`` optima
    (gated by ``check_tensor_eval``); their performance/power arrays
    agree to a few ULPs.

    Grid evaluations go through the shared
    :mod:`repro.perf.evalcache` memo, so re-exploring the same
    (profiles, space, model) — as the experiment drivers routinely do —
    reuses the earlier evaluations. Pass ``cache=False`` to bypass the
    cache, or a specific :class:`~repro.perf.evalcache.EvalCache` to
    isolate one.
    """
    if not profiles:
        raise ValueError("explore needs at least one profile")
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise ValueError("profile names must be unique")
    check_engine(engine, ENGINES, "DSE")
    space = space or DesignSpace()
    model = model or NodeModel()
    if cache is None:
        from repro.perf.evalcache import default_cache

        cache = default_cache()

    cus, freqs, bws = space.grid_arrays()
    performance: dict[str, np.ndarray] = {}
    node_power: dict[str, np.ndarray] = {}
    feasible: dict[str, np.ndarray] = {}
    with obs_trace.span(
        "dse.explore",
        profiles=len(profiles),
        points=int(cus.size),
        engine=engine,
    ), obs_metrics.timed("dse.explore_seconds"):
        if engine == "tensor":
            if cache is False:
                grid = model.evaluate_grid(profiles, space)
            else:
                grid = cache.evaluate_grid(model, profiles, space)
            for i, name in enumerate(grid.names):
                performance[name] = grid.performance[i]
                node_power[name] = grid.power[i]
                feasible[name] = grid.feasible[i]
        else:
            for profile in profiles:
                if cache is False:
                    evaluation = model.evaluate_arrays(
                        profile, cus, freqs, bws
                    )
                else:
                    evaluation = cache.evaluate_arrays(
                        model, profile, cus, freqs, bws
                    )
                perf = np.asarray(evaluation.performance, dtype=float)
                power = np.asarray(evaluation.node_power, dtype=float)
                performance[profile.name] = perf
                node_power[profile.name] = power
                feasible[profile.name] = power <= space.power_budget

        result = select_optima(space, performance, node_power, feasible)
    obs_metrics.inc("dse.explores")
    obs_metrics.inc("dse.grid_points", int(cus.size) * len(profiles))
    return result


def select_optima(
    space: DesignSpace,
    performance: Mapping[str, np.ndarray],
    node_power: Mapping[str, np.ndarray],
    feasible: Mapping[str, np.ndarray],
) -> DseResult:
    """Locate the best-mean and per-application optima on evaluated
    grids (shared by :func:`explore`, the chunked parallel sweep, and
    the serving layer's sweep responses)."""
    names = list(performance)
    all_feasible = np.stack(list(feasible.values())).all(axis=0)
    if not all_feasible.any():
        raise RuntimeError(
            "no grid point satisfies the power budget for every application"
        )
    mean_perf = geometric_mean_across(
        np.stack([performance[n] for n in names]), axis=0
    )
    mean_perf_masked = np.where(all_feasible, mean_perf, -np.inf)
    best_mean_index = int(np.argmax(mean_perf_masked))

    per_app_best: dict[str, int] = {}
    for name in names:
        if not feasible[name].any():
            raise RuntimeError(f"no feasible point for {name}")
        masked = np.where(feasible[name], performance[name], -np.inf)
        per_app_best[name] = int(np.argmax(masked))

    return DseResult(
        space=space,
        performance=performance,
        node_power=node_power,
        feasible=feasible,
        best_mean_index=best_mean_index,
        per_app_best_index=per_app_best,
    )


def best_mean_config(
    profiles: Sequence[KernelProfile],
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
) -> EHPConfig:
    """Just the statically fixed best-average configuration."""
    return explore(profiles, space, model).best_mean_config


def best_config_for(
    profile: KernelProfile,
    space: DesignSpace | None = None,
    model: NodeModel | None = None,
) -> EHPConfig:
    """One application's own best feasible configuration."""
    result = explore([profile], space, model)
    return result.best_config(profile.name)
