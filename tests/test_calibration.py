"""Calibration machinery (no full refits — those run offline)."""

import numpy as np
import pytest

from repro.core.config import DesignSpace, EHPConfig
from repro.core.node import NodeModel
from repro.util.units import MHZ, TB
from repro.workloads.calibration import (
    DEFAULT_TRACE_SEED,
    PAPER_TABLE2,
    CalibrationTarget,
    _Objective,
    default_calibration_trace,
    trace_crosscheck,
)
from repro.workloads.catalog import APPLICATIONS, get_application


@pytest.fixture(scope="module")
def objective():
    return _Objective(
        get_application("CoMD"),
        PAPER_TABLE2["CoMD"],
        DesignSpace(),
        NodeModel(),
    )


class TestPaperTable2:
    def test_eight_targets(self):
        assert len(PAPER_TABLE2) == 8

    def test_target_configs_valid(self):
        for name, target in PAPER_TABLE2.items():
            cfg = target.config
            assert isinstance(cfg, EHPConfig)
            assert cfg.n_cus <= 384

    def test_benefit_with_opt_exceeds_without(self):
        for target in PAPER_TABLE2.values():
            assert target.benefit_opt_pct > target.benefit_pct

    def test_known_values(self):
        t = PAPER_TABLE2["MaxFlops"]
        assert (t.n_cus, t.freq_mhz, t.bw_tbps) == (384, 925, 1)
        assert t.benefit_pct == 10.7
        assert t.benefit_opt_pct == 19.9


class TestObjective:
    def test_flat_index_roundtrip(self, objective):
        cfg = EHPConfig(n_cus=256, gpu_freq=1100 * MHZ, bandwidth=4 * TB)
        index = objective._flat_index(cfg)
        assert objective.space.config_at(index).label() == cfg.label()

    def test_profile_from_clips_to_bounds(self, objective):
        x = [99.0, 99.0, 99.0, 99.0, 99.0, 999.0, 99.0]
        profile = objective.profile_from(x)
        assert profile.parallel_fraction <= 1.0
        assert profile.cache_hit_rate <= 0.9

    def test_calibrated_profile_has_near_zero_loss(self, objective):
        # The shipped catalog parameters reproduce the fit: evaluating
        # the objective at the baked values scores (nearly) zero.
        p = get_application("CoMD")
        x = [
            p.bytes_per_flop, p.parallel_fraction, p.cache_hit_rate,
            p.thrash_pressure, p.latency_sensitivity, p.mlp_per_cu,
            p.cu_utilization,
        ]
        assert objective(x) < 0.1

    def test_argmax_distance_zero_at_target(self, objective):
        assert objective._argmax_distance(objective.target_index) == 0.0

    def test_argmax_distance_positive_elsewhere(self, objective):
        assert objective._argmax_distance(objective.mean_index) > 0.0

    def test_caps_drop_target_index(self):
        target = PAPER_TABLE2["CoMD"]
        space = DesignSpace()
        obj = _Objective(
            get_application("CoMD"), target, space, NodeModel(),
            caps={0: 0.1},
        )
        assert obj.target_index not in obj.caps
        assert 0 in obj.caps


class TestTraceCrosscheck:
    def test_default_trace_deterministic(self):
        a = default_calibration_trace(n_accesses=500)
        b = default_calibration_trace(n_accesses=500)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.flops_between, b.flops_between)
        assert len(a) == 500
        assert DEFAULT_TRACE_SEED == 42

    def test_rows_cover_requested_apps(self):
        from repro.perf.evalcache import SimCache

        rows = trace_crosscheck(names=["CoMD", "MaxFlops"], n_accesses=2000)
        assert [r.name for r in rows] == ["CoMD", "MaxFlops"]
        for r in rows:
            assert r.sim_flops_per_cu > 0
            assert r.analytic_flops_per_cu > 0
            assert 0.0 <= r.sim_dram_fraction <= 1.0
            assert r.ratio == (
                r.sim_flops_per_cu / r.analytic_flops_per_cu
            )

    def test_compute_kernel_agrees_best(self):
        # Per-CU normalization makes the two substrates comparable: the
        # compute-bound kernel (no memory abstraction in play) must land
        # far closer to the analytic prediction than the memory-bound
        # extreme trace does.
        rows = {
            r.name: r
            for r in trace_crosscheck(
                names=["MaxFlops", "SNAP"], n_accesses=4000
            )
        }
        assert abs(rows["MaxFlops"].ratio - 1.0) < 0.25
        assert rows["MaxFlops"].ratio > rows["SNAP"].ratio

    def test_engines_give_same_rows(self):
        from repro.sim.apu_sim import ApuSimConfig, ApuSimulator
        from repro.workloads.traces import TraceGenerator

        a = trace_crosscheck(names=["CoMD"], n_accesses=1500)
        # The row's trace, replayed through the discrete-event oracle.
        trace = TraceGenerator(
            get_application("CoMD"), seed=DEFAULT_TRACE_SEED
        ).generate(1500)
        config = ApuSimConfig()
        e = ApuSimulator(config).run(trace, engine="event")
        assert a[0].sim_flops_per_cu == pytest.approx(
            e.flops_rate / config.n_cus, rel=1e-9
        )
        assert a[0].sim_dram_fraction == e.dram_fraction

    def test_repeat_sweep_hits_sim_cache(self):
        from repro.perf.evalcache import default_sim_cache

        trace_crosscheck(names=["LULESH"], n_accesses=1000)
        before = default_sim_cache().stats()
        trace_crosscheck(names=["LULESH"], n_accesses=1000)
        after = default_sim_cache().stats()
        assert after.hits == before.hits + 1


class TestAllCalibratedProfiles:
    @pytest.mark.parametrize("name", list(PAPER_TABLE2))
    def test_baked_parameters_reproduce_fit(self, name):
        space = DesignSpace()
        model = NodeModel()
        profile = get_application(name)
        obj = _Objective(profile, PAPER_TABLE2[name], space, model)
        x = [
            profile.bytes_per_flop, profile.parallel_fraction,
            profile.cache_hit_rate, profile.thrash_pressure,
            profile.latency_sensitivity, profile.mlp_per_cu,
            profile.cu_utilization,
        ]
        # HPGMG retains a small shape-penalty residual; everything else
        # sits at (near) zero loss.
        assert obj(x) < 3.0


class TestChipletPenaltyTable:
    """The Fig. 7-style simulated-vs-analytic chiplet-penalty sweep."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.workloads.calibration import chiplet_penalty_table

        return chiplet_penalty_table(
            names=["CoMD", "MaxFlops", "LULESH"], n_accesses=12_000
        )

    def test_covers_full_grid(self, rows):
        from repro.workloads.calibration import DEFAULT_CHIPLET_PENALTIES_NS

        names = {r.name for r in rows}
        assert names == {"CoMD", "MaxFlops", "LULESH"}
        for name in names:
            penalties = [r.penalty_ns for r in rows if r.name == name]
            assert penalties == list(DEFAULT_CHIPLET_PENALTIES_NS)

    def test_zero_penalty_is_unity(self, rows):
        for r in rows:
            if r.penalty_ns == 0.0:
                assert r.sim_relative == pytest.approx(1.0, rel=1e-12)
                assert r.analytic_relative == pytest.approx(1.0, rel=1e-12)

    def test_monotone_degradation(self, rows):
        """Higher penalties never help: the analytic column is exactly
        non-increasing; the simulated column is allowed sub-percent
        scheduling noise (compute-bound kernels are penalty-blind)."""
        for name in {r.name for r in rows}:
            app = sorted(
                (r for r in rows if r.name == name),
                key=lambda r: r.penalty_ns,
            )
            for earlier, later in zip(app, app[1:]):
                assert later.analytic_relative <= (
                    earlier.analytic_relative + 1e-12
                )
                assert later.sim_relative <= earlier.sim_relative + 0.02

    def test_memory_bound_apps_degrade(self, rows):
        worst = {
            r.name: r.sim_relative
            for r in rows
            if r.penalty_ns == max(x.penalty_ns for x in rows)
        }
        assert worst["CoMD"] < 0.95
        assert worst["LULESH"] < 0.95
        # MaxFlops is compute-bound: penalties barely register.
        assert worst["MaxFlops"] > 0.98

    def test_substrates_agree_within_band(self, rows):
        for r in rows:
            assert 0.9 < r.agreement < 1.1

    def test_rejects_negative_penalties(self):
        from repro.workloads.calibration import chiplet_penalty_table

        with pytest.raises(ValueError):
            chiplet_penalty_table(penalties_ns=(-1.0,), names=["CoMD"])
