"""Thermal substrate: floorplan, stack, grid solver, analysis."""

import numpy as np
import pytest

from repro.core.config import PAPER_BEST_MEAN
from repro.core.node import NodeModel
from repro.thermal.analysis import DRAM_LIMIT_C, ThermalModel
from repro.thermal.floorplan import EHPFloorplan, Region
from repro.thermal.grid import ThermalGrid
from repro.thermal.stack import LayerStack, ThermalLayer
from repro.workloads.catalog import get_application


class TestFloorplan:
    def test_region_counts(self):
        fp = EHPFloorplan()
        assert len(fp.gpu_regions) == 8
        assert len(fp.cpu_regions) == 8

    def test_regions_disjoint(self):
        fp = EHPFloorplan()
        regions = list(fp.iter_regions())
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                overlap_x = min(a.x1, b.x1) - max(a.x0, b.x0)
                overlap_y = min(a.y1, b.y1) - max(a.y0, b.y0)
                assert overlap_x <= 0 or overlap_y <= 0, (a.name, b.name)

    def test_cpu_regions_central(self):
        fp = EHPFloorplan()
        mid = fp.width_mm / 2
        for r in fp.cpu_regions:
            assert abs((r.x0 + r.x1) / 2 - mid) < fp.width_mm / 4

    def test_region_at(self):
        fp = EHPFloorplan()
        r = fp.gpu_regions[0]
        found = fp.region_at((r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2)
        assert found is r

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            Region("bad", "gpu", 1.0, 1.0, 1.0, 2.0)

    def test_areas_positive(self):
        fp = EHPFloorplan()
        assert fp.gpu_area_mm2 > fp.cpu_area_mm2 > 0


class TestLayerStack:
    def test_default_layers(self):
        stack = LayerStack()
        assert [l.name for l in stack.layers] == [
            "interposer", "compute", "dram",
        ]

    def test_layer_index(self):
        stack = LayerStack()
        assert stack.layer_index("dram") == 2
        with pytest.raises(KeyError):
            stack.layer_index("nope")

    def test_resistances_positive(self):
        layer = ThermalLayer("t", 100e-6, 120.0)
        assert layer.vertical_resistance(1e-6) > 0
        assert layer.lateral_resistance(1e-3, 1e-7) > 0

    def test_nonphysical_layer_rejected(self):
        with pytest.raises(ValueError):
            ThermalLayer("t", 0.0, 120.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: ThermalLayer("t", v, 120.0),
            lambda v: ThermalLayer("t", 100e-6, v),
            lambda v: ThermalLayer("t", 100e-6, 120.0,
                                   volumetric_heat_capacity=v),
            lambda v: LayerStack(sink_resistance_km2w=v),
            lambda v: LayerStack(board_resistance_km2w=v),
            lambda v: LayerStack(ambient_c=v),
            lambda v: LayerStack(ambient_c=-v),
        ],
    )
    def test_non_finite_parameters_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)


class TestThermalGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return ThermalGrid(66.0, 22.0, nx=22, ny=8)

    def test_zero_power_gives_ambient(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        field = grid.solve(maps)
        assert field.peak() == pytest.approx(grid.stack.ambient_c, abs=1e-6)

    def test_power_raises_temperature(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 4, 10] = 5.0
        field = grid.solve(maps)
        assert field.peak("compute") > grid.stack.ambient_c + 1.0

    def test_superposition(self, grid):
        # The system is linear: doubling power doubles the rise.
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 4, 10] = 5.0
        rise1 = grid.solve(maps).peak() - grid.stack.ambient_c
        rise2 = grid.solve(maps * 2).peak() - grid.stack.ambient_c
        assert rise2 == pytest.approx(2 * rise1, rel=1e-9)

    def test_hotspot_local(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 4, 2] = 10.0
        field = grid.solve(maps)
        layer = field.layer("compute")
        assert layer[4, 2] > layer[4, grid.nx - 1]

    def test_heat_rises_into_dram_layer(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[1, 4, 10] = 10.0
        field = grid.solve(maps)
        # DRAM directly above the hot compute cell is warmer than distant
        # DRAM cells.
        dram = field.layer("dram")
        assert dram[4, 10] > dram[0, 0]

    def test_shape_validated(self, grid):
        with pytest.raises(ValueError):
            grid.solve(np.zeros((2, grid.ny, grid.nx)))

    def test_negative_power_rejected(self, grid):
        maps = np.zeros((3, grid.ny, grid.nx))
        maps[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            grid.solve(maps)


class TestRegionMaskVectorization:
    @pytest.fixture(scope="class")
    def thermal(self):
        return ThermalModel(nx=33, ny=11)

    def test_matches_reference_exactly(self, thermal):
        # The meshgrid rasterization must agree bit-for-bit with the
        # per-cell double loop it replaced.
        for regions in (
            thermal.floorplan.gpu_regions,
            thermal.floorplan.cpu_regions,
            list(thermal.floorplan.iter_regions()),
        ):
            fast = thermal._region_mask(regions)
            slow = thermal._region_mask_reference(regions)
            assert fast.dtype == slow.dtype == np.bool_
            assert np.array_equal(fast, slow)

    def test_matches_reference_on_odd_grids(self):
        # Resolutions that do not divide the package evenly put cell
        # centres near region edges; the half-open containment test must
        # still agree.
        for nx, ny in ((7, 5), (13, 9), (66, 22), (65, 21)):
            tm = ThermalModel(nx=nx, ny=ny)
            regions = list(tm.floorplan.iter_regions())
            assert np.array_equal(
                tm._region_mask(regions),
                tm._region_mask_reference(regions),
            )

    def test_empty_region_list(self, thermal):
        assert not thermal._region_mask([]).any()

    def test_masks_cached_per_instance(self, thermal):
        first = thermal._cached_mask("gpu")
        assert thermal._cached_mask("gpu") is first
        assert first.any()


class TestAnalyzeMany:
    def test_matches_sequential_analyze(self):
        thermal = ThermalModel(nx=33, ny=11)
        model = NodeModel()
        powers = []
        for name in ("MaxFlops", "SNAP", "CoMD"):
            p = get_application(name)
            ev = model.evaluate(
                p, PAPER_BEST_MEAN, ext_fraction=p.ext_memory_fraction
            )
            powers.append(ev.power)
        batched = thermal.analyze_many(powers)
        for report, power in zip(batched, powers):
            single = thermal.analyze(power)
            assert np.array_equal(
                report.field.celsius, single.field.celsius
            )
            assert report.peak_dram_c == single.peak_dram_c
            assert report.mean_dram_c == single.mean_dram_c

    def test_empty_batch(self):
        assert ThermalModel(nx=33, ny=11).analyze_many([]) == []


class TestThermalModelAnalysis:
    @pytest.fixture(scope="class")
    def thermal(self):
        return ThermalModel(nx=33, ny=11)

    def test_best_mean_within_dram_limit(self, thermal):
        # Fig. 10 Finding 1: all kernels below 85 C at the best-mean config.
        model = NodeModel()
        for name in ("MaxFlops", "CoMD-LJ", "SNAP"):
            p = get_application(name)
            ev = model.evaluate(
                p, PAPER_BEST_MEAN, ext_fraction=p.ext_memory_fraction
            )
            report = thermal.analyze(ev.power)
            assert report.peak_dram_c <= DRAM_LIMIT_C, name
            assert report.dram_within_limit

    def test_heatmap_shows_gpu_hotspots(self, thermal):
        model = NodeModel()
        p = get_application("MaxFlops")
        ev = model.evaluate(p, PAPER_BEST_MEAN)
        report = thermal.analyze(ev.power)
        heat = report.dram_heatmap()
        # Columns over the GPU clusters (outer thirds) are hotter than
        # the central CPU columns.
        nx = heat.shape[1]
        gpu_cols = heat[:, : nx // 6].mean()
        cpu_cols = heat[:, 5 * nx // 12: 7 * nx // 12].mean()
        assert gpu_cols > cpu_cols

    def test_headroom_sign(self, thermal):
        model = NodeModel()
        p = get_application("XSBench")
        ev = model.evaluate(p, PAPER_BEST_MEAN)
        report = thermal.analyze(ev.power)
        assert report.dram_headroom_c == pytest.approx(
            DRAM_LIMIT_C - report.peak_dram_c
        )

    def test_more_power_is_hotter(self, thermal):
        model = NodeModel()
        hot = get_application("MaxFlops")
        cool = hot.with_overrides(cu_utilization=0.3)
        ev_hot = model.evaluate(hot, PAPER_BEST_MEAN)
        ev_cool = model.evaluate(cool, PAPER_BEST_MEAN)
        assert float(ev_hot.ehp_power) > float(ev_cool.ehp_power)
        assert (
            thermal.analyze(ev_hot.power).peak_dram_c
            > thermal.analyze(ev_cool.power).peak_dram_c
        )
