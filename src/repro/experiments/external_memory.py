"""Fig. 9: ENA power under DRAM-only vs hybrid DRAM+NVM external memory.

For every application at the best-mean configuration, the total ENA
power broken into the paper's six categories, for the 1 TB DRAM-only
baseline and the half-DRAM/half-NVM hybrid of equal capacity.

Methodology note: each application runs with its measured off-package
traffic share (Section V-B's 46-89% range), so execution self-throttles
on the external links and the network is charged for the traffic it
actually carries. :func:`fig9_power` offers the alternative
nominal-rate charging convention for sensitivity studies.

:func:`run_fig9_managed` replaces the static per-profile off-package
share with one *measured* from the software page-migration machinery:
each application's synthetic trace is split into epochs and driven
through :class:`~repro.memsys.manager.MemoryManager`, and the converged
in-package fraction sets the external traffic share the power model is
charged for. Replays route through the shared
:class:`~repro.perf.evalcache.MemsysCache`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PAPER_BEST_MEAN, EHPConfig
from repro.core.node import NodeModel
from repro.experiments.runner import ExperimentResult, all_profiles
from repro.perf.evalcache import MemsysCache, default_memsys_cache
from repro.power.breakdown import (
    ExternalMemoryConfig,
    PowerBreakdown,
    external_memory_power,
    node_power,
)
from repro.util.tables import TextTable
from repro.workloads.kernels import KernelProfile
from repro.workloads.traces import TraceGenerator

__all__ = [
    "run_fig9",
    "fig9_power",
    "run_fig9_managed",
    "measured_inpackage_fraction",
]

_CATEGORIES = (
    "SerDes (S)",
    "External memory (S)",
    "SerDes (D)",
    "External memory (D)",
    "CUs (D)",
    "Other",
)


def fig9_power(
    profile: KernelProfile,
    config: EHPConfig,
    ext_config: ExternalMemoryConfig,
    model: NodeModel,
) -> PowerBreakdown:
    """Node power with external memory charged at *nominal* traffic rates
    (execution timed as if all traffic were served in-package, external
    demand capped at the network bandwidth). The headline Fig. 9 driver
    uses throttled execution instead; this variant isolates the power
    model from the performance feedback."""
    evaluation = model.evaluate(profile, config)
    metrics = evaluation.metrics
    # The application's off-package share of its miss traffic, at the
    # nominal execution rate, bounded by the network's bandwidth.
    ext_rate = np.minimum(
        profile.ext_memory_fraction * np.asarray(metrics.dram_rate),
        model.machine.ext_bandwidth,
    )
    base = node_power(
        profile,
        metrics,
        config.n_cus,
        config.gpu_freq,
        config.bandwidth,
        params=model.power_params,
        ext_config=ext_config,
    )
    mem_s, mem_d, ser_s, ser_d = external_memory_power(
        profile, ext_rate, ext_config, model.power_params
    )

    def _f(x) -> np.ndarray:
        return np.asarray(x, dtype=float)

    return PowerBreakdown(
        cu_dynamic=_f(base.cu_dynamic),
        cu_static=_f(base.cu_static),
        cpu=_f(base.cpu),
        noc_dynamic=_f(base.noc_dynamic),
        noc_static=_f(base.noc_static),
        dram3d_dynamic=_f(base.dram3d_dynamic),
        dram3d_static=_f(base.dram3d_static),
        ext_memory_dynamic=_f(mem_d),
        ext_memory_static=_f(mem_s),
        serdes_dynamic=_f(ser_d),
        serdes_static=_f(ser_s),
    )


def run_fig9(model: NodeModel | None = None) -> ExperimentResult:
    """Regenerate Fig. 9's stacked power bars (as table rows)."""
    base_model = model or NodeModel()
    configs = {
        "3D DRAM only": ExternalMemoryConfig.dram_only(),
        "3D DRAM + NVM": ExternalMemoryConfig.hybrid(),
    }
    cfg = PAPER_BEST_MEAN
    table = TextTable(
        ["Ext config", "Application"] + list(_CATEGORIES) + ["Total"]
    )
    data: dict[str, dict[str, dict[str, float]]] = {}
    for ext_name, ext_config in configs.items():
        data[ext_name] = {}
        m = base_model.with_ext_config(ext_config)
        for profile in all_profiles():
            power = m.evaluate(
                profile, cfg, ext_fraction=profile.ext_memory_fraction
            ).power
            cats = {k: float(v) for k, v in power.fig9_categories().items()}
            total = float(power.total)
            table.add_row(
                [ext_name, profile.name]
                + [cats[c] for c in _CATEGORIES]
                + [total]
            )
            cats["Total"] = total
            data[ext_name][profile.name] = cats
    return ExperimentResult(
        experiment_id="fig9",
        title="Impact of external-memory configurations on ENA power",
        rendered=table.render(),
        data=data,
        notes=(
            "watts; (S)=static, (D)=dynamic; external charged at each "
            "application's measured off-package traffic share"
        ),
    )


def measured_inpackage_fraction(
    profile: KernelProfile,
    *,
    capacity_fraction: float = 0.25,
    n_epochs: int = 4,
    n_accesses: int = 50_000,
    seed: int = 42,
    page_size: int = 4096,
    policy: str = "hotness",
    cache: MemsysCache | None = None,
) -> float:
    """In-package service fraction the page-migration manager converges
    to on the profile's synthetic trace (the last epoch's fraction),
    with in-package capacity set to *capacity_fraction* of the trace
    footprint."""
    if not 0.0 < capacity_fraction:
        raise ValueError("capacity_fraction must be positive")
    trace = TraceGenerator(profile, seed=seed).generate(n_accesses)
    cache = cache if cache is not None else default_memsys_cache()
    capacity = max(float(page_size), capacity_fraction * trace.footprint_bytes)
    fractions = cache.manager_fractions(
        trace.addresses,
        n_epochs=n_epochs,
        capacity_bytes=capacity,
        page_size=page_size,
        policy=policy,
    )
    return float(fractions[-1])


def run_fig9_managed(
    model: NodeModel | None = None,
    *,
    capacity_fraction: float = 0.25,
    cache: MemsysCache | None = None,
) -> ExperimentResult:
    """Fig. 9 with the off-package share measured by the page manager.

    Same stacked power categories as :func:`run_fig9`, but each
    application's external-traffic fraction is ``1 - f`` where ``f`` is
    the in-package fraction the hotness-migration manager achieves on
    the application's trace — grounding the power split in simulated
    placement behaviour instead of the static profile constant.
    """
    base_model = model or NodeModel()
    configs = {
        "3D DRAM only": ExternalMemoryConfig.dram_only(),
        "3D DRAM + NVM": ExternalMemoryConfig.hybrid(),
    }
    cfg = PAPER_BEST_MEAN
    table = TextTable(
        ["Ext config", "Application", "Ext frac"]
        + list(_CATEGORIES)
        + ["Total"]
    )
    data: dict[str, dict[str, dict[str, float]]] = {}
    for ext_name, ext_config in configs.items():
        data[ext_name] = {}
        m = base_model.with_ext_config(ext_config)
        for profile in all_profiles():
            in_pkg = measured_inpackage_fraction(
                profile,
                capacity_fraction=capacity_fraction,
                cache=cache,
            )
            ext_fraction = 1.0 - in_pkg
            power = m.evaluate(
                profile, cfg, ext_fraction=ext_fraction
            ).power
            cats = {k: float(v) for k, v in power.fig9_categories().items()}
            total = float(power.total)
            table.add_row(
                [ext_name, profile.name, ext_fraction]
                + [cats[c] for c in _CATEGORIES]
                + [total]
            )
            cats["Total"] = total
            cats["Ext frac"] = ext_fraction
            data[ext_name][profile.name] = cats
    return ExperimentResult(
        experiment_id="fig9-managed",
        title=(
            "ENA power with off-package share measured by the page "
            "manager"
        ),
        rendered=table.render(),
        data=data,
        notes=(
            "watts; external traffic share = 1 - converged in-package "
            "fraction from the hotness-migration replay"
        ),
    )
