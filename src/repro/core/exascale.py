"""System-level roll-up: from one ENA node to the exascale machine.

Section V-F scales the node analysis to the full 100,000-node system:
achieved exaflops, machine power in megawatts, and whether the 1 EF /
20 MW target is met. Fig. 14 sweeps CU count for MaxFlops at 1 GHz and
1 TB/s. The power accounted here is the peak-compute scenario the paper
describes — EHP package power, with external memory idle.

:meth:`ExascaleSystem.cu_sweep` runs the Fig. 14 sweep through the
fused tensor engine (:meth:`~repro.core.node.NodeModel.evaluate_grid`);
the per-point :meth:`ExascaleSystem.estimate` loop is its oracle. The
fleet layer (:mod:`repro.fleet`) scales the per-point loop itself to
multi-node sweeps over heterogeneous node groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DesignSpace, EHPConfig
from repro.core.node import NodeModel
from repro.util.units import MW
from repro.workloads.kernels import KernelProfile

__all__ = ["ExascaleSystem", "SystemEstimate"]


@dataclass(frozen=True)
class SystemEstimate:
    """Machine-level projection for one workload and design point."""

    exaflops: float
    machine_power_mw: float
    node_teraflops: float
    node_power_w: float

    @property
    def meets_exaflop(self) -> bool:
        """Does the machine reach 1 EF?"""
        return self.exaflops >= 1.0

    @property
    def meets_power_envelope(self) -> bool:
        """Does it stay within the 20 MW envelope?"""
        return self.machine_power_mw <= 20.0

    @property
    def gflops_per_watt(self) -> float:
        """Machine-level energy efficiency (1 EF / 20 MW = 50 GF/W)."""
        return (self.exaflops * 1.0e9) / (self.machine_power_mw * MW) \
            if self.machine_power_mw > 0 else float("inf")


class ExascaleSystem:
    """A machine of *n_nodes* identical ENA nodes."""

    def __init__(self, n_nodes: int = 100_000, model: NodeModel | None = None):
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = n_nodes
        self.model = model or NodeModel()

    def estimate(
        self,
        profile: KernelProfile,
        config: EHPConfig,
        *,
        ext_fraction: float | None = None,
    ) -> SystemEstimate:
        """Project *profile* on *config* across the whole machine.

        ``ext_fraction`` overrides the share of DRAM traffic served by
        external memory (``None`` keeps the paper's all-in-package
        peak-compute scenario). The fleet sweeps pass
        ``profile.ext_memory_fraction`` so inter-APU link derating has
        something to degrade.
        """
        evaluation = self.model.evaluate(
            profile, config, ext_fraction=ext_fraction
        )
        node_flops = float(evaluation.performance)
        node_power = float(evaluation.ehp_power)
        return SystemEstimate(
            exaflops=node_flops * self.n_nodes / 1.0e18,
            machine_power_mw=node_power * self.n_nodes / MW,
            node_teraflops=node_flops / 1.0e12,
            node_power_w=node_power,
        )

    def cu_sweep(
        self,
        profile: KernelProfile,
        cu_counts,
        config: EHPConfig | None = None,
    ) -> list[SystemEstimate]:
        """Fig. 14's sweep: vary CU count at fixed frequency/bandwidth.

        Evaluates every CU count in one fused
        :meth:`~repro.core.node.NodeModel.evaluate_grid` pass. Its
        oracle is ``[self.estimate(profile, c) for c in configs]``; the
        fused kernel reassociates arithmetic, so the two agree to
        ~1e-13 relative — identical 1 EF / 20 MW verdicts on the
        paper's sweep — rather than bit for bit;
        ``tests/test_core_exascale_reconfig.py`` pins the equivalence.
        """
        config = config or EHPConfig(
            n_cus=320, gpu_freq=1.0e9, bandwidth=1.0e12
        )
        # Validate every count through EHPConfig, so the grid rejects
        # exactly what the estimate loop would.
        configs = [config.with_axes(n_cus=int(n)) for n in cu_counts]

        from repro.power.breakdown import external_memory_power

        space = DesignSpace(
            cu_counts=tuple(c.n_cus for c in configs),
            frequencies=(config.gpu_freq,),
            bandwidths=(config.bandwidth,),
            base_config=config,
        )
        grid = self.model.evaluate_grid([profile], space)
        perf = np.asarray(grid.performance[0], dtype=float)
        # The grid power tensor is TOTAL node power; the machine budget
        # tracks EHP package power (external memory idle). At the grid's
        # operating point (ext_rate = 0) the external network draws only
        # its static floor, so subtracting it recovers the package term.
        mem_static, _, serdes_static, _ = external_memory_power(
            profile, 0.0, self.model.ext_config, self.model.power_params
        )
        ext_static = float(mem_static) + float(serdes_static)
        ehp = np.asarray(grid.power[0], dtype=float) - ext_static
        return [
            SystemEstimate(
                exaflops=float(p) * self.n_nodes / 1.0e18,
                machine_power_mw=float(w) * self.n_nodes / MW,
                node_teraflops=float(p) / 1.0e12,
                node_power_w=float(w),
            )
            for p, w in zip(perf, ehp)
        ]
