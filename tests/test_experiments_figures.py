"""Shape assertions for the figure reproductions (Figs. 4-14).

Each test checks the property the paper's figure demonstrates — who
wins, approximate factors, where knees fall — not absolute values.
"""

import numpy as np
import pytest

from repro.experiments.chiplet_traffic import run_fig7
from repro.experiments.exascale_target import run_fig14
from repro.experiments.external_memory import run_fig9
from repro.experiments.kernel_sweeps import run_fig4, run_fig5, run_fig6
from repro.experiments.miss_sensitivity import run_fig8
from repro.experiments.power_opts import run_fig12, run_fig13
from repro.experiments.thermal_eval import run_fig10, run_fig11


@pytest.fixture(scope="module")
def fig4():
    return run_fig4()


@pytest.fixture(scope="module")
def fig5():
    return run_fig5()


@pytest.fixture(scope="module")
def fig6():
    return run_fig6()


@pytest.fixture(scope="module")
def fig9():
    return run_fig9()


@pytest.fixture(scope="module")
def fig12():
    return run_fig12()


class TestFig4MaxFlops:
    def test_bandwidth_curves_coincide(self, fig4):
        # "corresponding CU-frequency points across different bandwidth
        # curves have roughly the same performance level"
        perf = fig4.data["a"]["perf"]
        lo = np.array(perf["1TBps"])
        hi = np.array(perf["7TBps"])
        np.testing.assert_allclose(lo, hi, rtol=0.03)

    def test_performance_linear_in_frequency(self, fig4):
        perf = np.array(fig4.data["a"]["perf"]["3TBps"])
        freqs = np.arange(700, 1501, 100)
        ratio = perf / freqs
        assert ratio.std() / ratio.mean() < 0.03

    def test_performance_increases_with_cus(self, fig4):
        perf = np.array(fig4.data["b"]["perf"]["3TBps"])
        assert np.all(np.diff(perf) > 0)

    def test_normalized_to_best_mean(self, fig4):
        # 320 CUs at 1000 MHz on the 3 TB/s curve is the reference = 1.0.
        perf = fig4.data["b"]["perf"]["3TBps"]
        cus = list(range(192, 385, 32))
        assert perf[cus.index(320)] == pytest.approx(1.0, rel=1e-6)


class TestFig5CoMD:
    def test_balanced_kernel_gains_from_bandwidth(self, fig5):
        perf = fig5.data["a"]["perf"]
        assert perf["6TBps"][-1] > perf["1TBps"][-1] * 1.1

    def test_plateau_beyond_knee(self, fig5):
        # At low bandwidth the frequency curve flattens: the last step
        # gains much less than the first.
        perf = np.array(fig5.data["a"]["perf"]["1TBps"])
        first_gain = perf[1] / perf[0]
        last_gain = perf[-1] / perf[-2]
        assert last_gain < first_gain

    def test_higher_bw_curves_dominate(self, fig5):
        perf = fig5.data["a"]["perf"]
        for i in range(len(perf["1TBps"])):
            assert perf["6TBps"][i] >= perf["1TBps"][i] - 1e-9


class TestFig6Lulesh:
    def test_memory_kernel_bandwidth_sensitivity(self, fig6):
        perf = fig6.data["b"]["perf"]
        assert perf["7TBps"][-1] > perf["1TBps"][-1] * 1.3

    def test_cu_overprovisioning_declines(self, fig6):
        # Fig. 6(b): past the knee, adding CUs hurts at fixed bandwidth.
        perf = np.array(fig6.data["b"]["perf"]["3TBps"])
        peak = perf.max()
        assert perf[-1] < peak * 0.999

    def test_rise_before_fall(self, fig6):
        perf = np.array(fig6.data["b"]["perf"]["4TBps"])
        assert perf.argmax() > 0


class TestFig7Chiplet:
    def test_remote_traffic_dominates(self):
        result = run_fig7()
        for app, row in result.data.items():
            assert 55.0 <= row["out_of_chiplet_pct"] <= 95.0, app

    def test_performance_impact_small(self):
        # Finding 2: largest degradation 13%.
        result = run_fig7()
        for app, row in result.data.items():
            assert row["perf_vs_monolithic_pct"] >= 87.0, app


class TestFig8MissRates:
    def test_maxflops_insensitive(self):
        result = run_fig8()
        assert min(result.data["MaxFlops"]) > 95.0

    def test_other_apps_degrade(self):
        result = run_fig8()
        for app, series in result.data.items():
            if app == "MaxFlops":
                continue
            assert series[-1] < 93.0, app  # paper: 7% to 75% degradation

    def test_monotone_nonincreasing(self):
        result = run_fig8()
        for app, series in result.data.items():
            assert all(
                a >= b - 1e-9 for a, b in zip(series, series[1:])
            ), app


class TestFig9ExternalMemory:
    def test_external_power_range(self, fig9):
        # Finding 1: external power (memory + SerDes) spans ~40-70 W for
        # the DRAM-only configuration.
        for app, cats in fig9.data["3D DRAM only"].items():
            ext = (
                cats["SerDes (S)"] + cats["External memory (S)"]
                + cats["SerDes (D)"] + cats["External memory (D)"]
            )
            if app == "MaxFlops":
                continue  # barely touches external memory
            assert 35.0 <= ext <= 80.0, app

    def test_dram_static_dominated(self, fig9):
        # 27 W DRAM static + 10 W SerDes background.
        cats = fig9.data["3D DRAM only"]["CoMD"]
        assert cats["External memory (S)"] == pytest.approx(27.0, abs=3.0)
        assert cats["SerDes (S)"] == pytest.approx(10.0, abs=1.5)

    def test_hybrid_halves_static(self, fig9):
        for app in fig9.data["3D DRAM only"]:
            d = fig9.data["3D DRAM only"][app]
            h = fig9.data["3D DRAM + NVM"][app]
            d_static = d["External memory (S)"] + d["SerDes (S)"]
            h_static = h["External memory (S)"] + h["SerDes (S)"]
            assert h_static < 0.65 * d_static, app

    def test_nvm_raises_total_for_memory_heavy_apps(self, fig9):
        # Finding 2: up to ~2x for applications with heavy external
        # traffic; reductions only for the compute-lean ones.
        heavy = ("XSBench", "SNAP", "HPGMG", "LULESH", "MiniAMR")
        for app in heavy:
            d = fig9.data["3D DRAM only"][app]["Total"]
            h = fig9.data["3D DRAM + NVM"][app]["Total"]
            assert h > d, app

    def test_nvm_saves_for_compute_lean_apps(self, fig9):
        # CoMD/CoMD-LJ/MaxFlops benefit from the static-power cut.
        for app in ("MaxFlops",):
            d = fig9.data["3D DRAM only"][app]["Total"]
            h = fig9.data["3D DRAM + NVM"][app]["Total"]
            assert h < d, app


class TestFig10Fig11Thermal:
    def test_all_below_dram_limit(self):
        result = run_fig10()
        for app, temps in result.data.items():
            assert temps["best_mean_c"] < 85.0, app
            assert temps["best_app_c"] < 85.0, app

    def test_temps_above_ambient(self):
        result = run_fig10()
        for temps in result.data.values():
            assert temps["best_mean_c"] > 50.0

    def test_fig11_heatmap_gpu_hotspots(self):
        result = run_fig11()
        heat = result.data["best-mean"]["heatmap"]
        nx = heat.shape[1]
        gpu_side = heat[:, : nx // 6].mean()
        cpu_centre = heat[:, 5 * nx // 12: 7 * nx // 12].mean()
        assert gpu_side > cpu_centre

    def test_fig11_reports_both_configs(self):
        result = run_fig11()
        assert set(result.data) == {"best-mean", "best-per-app"}

    def test_shared_model_matches_private_model(self):
        # The drivers default to the process-wide shared ThermalModel
        # (one factorization, batched back-substitution); a fresh
        # per-driver model must render the identical Fig. 10 table.
        from repro.experiments.thermal_eval import shared_thermal_model
        from repro.thermal.analysis import ThermalModel

        shared = run_fig10(thermal=shared_thermal_model())
        private = run_fig10(thermal=ThermalModel())
        assert shared.rendered == private.rendered
        assert shared.data == private.data

    def test_shared_model_is_singleton(self):
        from repro.experiments.thermal_eval import shared_thermal_model

        model = shared_thermal_model()
        assert shared_thermal_model() is model
        # After one driver run the factorization is warm for the next.
        run_fig10()
        assert model.grid.factorization_cached


class TestFig12Fig13Optimizations:
    def test_paper_average_savings(self, fig12):
        avgs = {
            key: np.mean([fig12.data[a][key] for a in fig12.data])
            for key in ("NTC", "Async. CUs", "Async. routers",
                        "Low-power links", "Compression", "All")
        }
        # Paper averages: 14 / 4.3 / 3.0 / 1.6 / 1.7.
        assert avgs["NTC"] == pytest.approx(14.0, abs=4.0)
        assert avgs["Async. CUs"] == pytest.approx(4.3, abs=1.5)
        assert avgs["Async. routers"] == pytest.approx(3.0, abs=1.2)
        assert avgs["Low-power links"] == pytest.approx(1.6, abs=0.8)
        assert avgs["Compression"] == pytest.approx(1.7, abs=0.8)

    def test_ntc_is_largest_lever(self, fig12):
        for app, row in fig12.data.items():
            singles = {k: v for k, v in row.items() if k != "All"}
            assert max(singles, key=singles.get) == "NTC", app

    def test_all_is_superadditive_floor(self, fig12):
        for app, row in fig12.data.items():
            assert row["All"] >= max(
                v for k, v in row.items() if k != "All"
            ), app

    def test_fig13_efficiency_improves_for_all_apps(self):
        result = run_fig13()
        for app, gain in result.data.items():
            assert gain > 0.0, app

    def test_fig13_trend_differs_from_fig12(self, fig12):
        # The paper notes the Fig. 13 ordering across kernels is not the
        # Fig. 12 ordering (the best-mean config itself moved).
        fig13 = run_fig13()
        order12 = sorted(fig12.data, key=lambda a: fig12.data[a]["All"])
        order13 = sorted(fig13.data, key=fig13.data.get)
        assert order12 != order13


class TestFig14Exascale:
    def test_endpoint_matches_paper(self):
        result = run_fig14()
        end = result.data[320]
        assert end["exaflops"] == pytest.approx(1.86, rel=0.05)
        assert end["power_mw"] == pytest.approx(11.1, rel=0.10)

    def test_linear_scaling(self):
        result = run_fig14()
        ef = [result.data[n]["exaflops"] for n in (192, 256, 320)]
        assert ef[2] / ef[0] == pytest.approx(320 / 192, rel=0.02)

    def test_stays_within_power_envelope(self):
        result = run_fig14()
        for row in result.data.values():
            assert row["power_mw"] < 20.0


class TestFig8Measured:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.miss_sensitivity import run_fig8_measured

        return run_fig8_measured()

    def test_covers_all_applications_and_capacities(self, result):
        from repro.experiments.miss_sensitivity import CAPACITY_FRACTIONS

        for app, payload in result.data.items():
            assert len(payload["miss_rates"]) == len(CAPACITY_FRACTIONS)
            assert len(payload["relative_pct"]) == len(CAPACITY_FRACTIONS)

    def test_miss_rates_valid_and_monotone_in_capacity(self, result):
        for app, payload in result.data.items():
            rates = payload["miss_rates"]
            assert all(0.0 <= r <= 1.0 for r in rates)
            # More capacity never increases the measured miss rate.
            for earlier, later in zip(rates, rates[1:]):
                assert later <= earlier + 1e-12

    def test_performance_bounded_by_no_miss_case(self, result):
        for app, payload in result.data.items():
            assert all(0.0 < p <= 100.0 + 1e-9
                       for p in payload["relative_pct"])

    def test_engines_agree(self):
        from repro.experiments.miss_sensitivity import (
            TRACE_ACCESSES,
            TRACE_SEED,
            measured_miss_rates,
        )
        from repro.memsys.dramcache import DramCache
        from repro.perf.evalcache import MemsysCache
        from repro.workloads.catalog import get_application
        from repro.workloads.traces import TraceGenerator

        profile = get_application("CoMD")
        array_rates = measured_miss_rates(
            profile, (0.05, 0.5), cache=MemsysCache()
        )
        # The same stream and geometries through the scalar oracle.
        trace = TraceGenerator(profile, seed=TRACE_SEED).generate(
            TRACE_ACCESSES
        )
        event_rates = []
        for fraction in (0.05, 0.5):
            capacity = max(4096.0 * 8, fraction * trace.footprint_bytes)
            stats = DramCache(capacity).run_trace(
                trace.addresses, trace.is_write, engine="event"
            )
            event_rates.append(1.0 - stats.hit_rate)
        assert array_rates == pytest.approx(event_rates, rel=1e-9)

    def test_repeat_run_hits_memsys_cache(self, result):
        from repro.experiments.miss_sensitivity import run_fig8_measured
        from repro.perf.evalcache import default_memsys_cache

        before = default_memsys_cache().stats()
        run_fig8_measured()
        after = default_memsys_cache().stats()
        assert after.misses == before.misses
        assert after.hits > before.hits


class TestFig9Managed:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.external_memory import run_fig9_managed

        return run_fig9_managed()

    def test_ext_fraction_measured_not_static(self, result):
        for ext_name, apps in result.data.items():
            for app, cats in apps.items():
                assert 0.0 <= cats["Ext frac"] <= 1.0

    def test_totals_positive_and_structured(self, result):
        for ext_name, apps in result.data.items():
            for app, cats in apps.items():
                assert cats["Total"] > 0
                parts = sum(
                    v for k, v in cats.items()
                    if k not in ("Total", "Ext frac")
                )
                assert parts == pytest.approx(cats["Total"], rel=1e-6)

    def test_engines_agree(self):
        from repro.experiments.external_memory import (
            measured_inpackage_fraction,
        )
        from repro.perf.evalcache import MemsysCache
        from repro.workloads.catalog import get_application

        from repro.memsys.manager import (
            HotnessMigrationPolicy,
            MemoryManager,
        )
        from repro.workloads.traces import TraceGenerator

        profile = get_application("CoMD")
        fa = measured_inpackage_fraction(profile, cache=MemsysCache())
        # The driver's defaults (seed 42, 50k accesses, a quarter of the
        # footprint in package, 4 epochs) through the scalar oracle.
        trace = TraceGenerator(profile, seed=42).generate(50_000)
        manager = MemoryManager(
            max(4096.0, 0.25 * trace.footprint_bytes),
            HotnessMigrationPolicy(),
            4096,
        )
        fe = manager.run_batch(
            np.array_split(trace.addresses, 4), engine="event"
        )[-1]
        assert fa == pytest.approx(fe, rel=1e-9)
