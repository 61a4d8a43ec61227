"""Transient thermal stepping, the closed-loop governor, and the
serve-path thermal monitor (PR 10)."""

import asyncio

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.core.config import EHPConfig, PAPER_BEST_MEAN
from repro.core.node import NodeModel
from repro.core.thermal_governor import (
    ThermalGovernor,
    ThermalPhase,
)
from repro.thermal.analysis import DRAM_LIMIT_C, ThermalModel
from repro.thermal.grid import (
    STEP_ENGINES,
    TemperatureFieldBatch,
    ThermalGrid,
)
from repro.thermal.transient import (
    PowerPhase,
    ThermalMonitor,
    TransientSolver,
)
from repro.workloads.catalog import get_application

HOT = EHPConfig(n_cus=384, gpu_freq=1.5e9, bandwidth=3e12)


@pytest.fixture(scope="module")
def grid():
    return ThermalGrid(66.0, 22.0, nx=22, ny=8)


@pytest.fixture(scope="module")
def maps(grid):
    rng = np.random.default_rng(7)
    return 0.5 * rng.random((grid.stack.n_layers, grid.ny, grid.nx))


class TestStepTransient:
    def test_constant_power_converges_to_steady(self, grid, maps):
        steady = grid.solve(maps)
        solver = TransientSolver(grid, dt=0.05)
        field, steps = solver.converge(maps, tol_c=1e-10)
        assert steps < 20_000
        err = float(np.abs(field.celsius - steady.celsius).max())
        assert err < 1e-6

    def test_oracle_and_factored_agree_per_step(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        temps = solver.initial_temps()
        for _ in range(5):
            temps = grid.step_transient(temps, maps, 0.01)
        fact = grid.step_transient(temps, maps, 0.01)
        oracle = grid.step_transient(temps, maps, 0.01, engine="oracle")
        assert float(np.abs(fact - oracle).max()) < 1e-9

    def test_factorization_cached_per_dt(self, grid, maps):
        temps = np.full(maps.shape, grid.stack.ambient_c)
        grid.step_transient(temps, maps, 0.01)
        grid.step_transient(temps, maps, 0.02)
        grid.step_transient(temps, maps, 0.01)
        assert set(grid._transient) >= {0.01, 0.02}

    def test_step_preserves_shape_and_input(self, grid, maps):
        temps = np.full(maps.shape, grid.stack.ambient_c)
        before = temps.copy()
        out = grid.step_transient(temps, maps, 0.01)
        assert out.shape == maps.shape
        assert np.array_equal(temps, before)

    def test_validation(self, grid, maps):
        temps = np.full(maps.shape, grid.stack.ambient_c)
        with pytest.raises(ValueError):
            grid.step_transient(temps, maps, 0.0)
        with pytest.raises(ValueError):
            grid.step_transient(temps, maps, 0.01, engine="magic")
        with pytest.raises(ValueError):
            grid.step_transient(temps[0], maps, 0.01)
        with pytest.raises(ValueError):
            grid.step_transient(temps, maps[:, :4], 0.01)
        assert STEP_ENGINES == ("factored", "oracle")

    def test_lockstep_many_matches_per_scenario(self, grid, maps):
        batch = np.stack([maps * s for s in (0.3, 0.7, 1.0)])
        temps = np.full(batch.shape, grid.stack.ambient_c)
        stepped = temps
        for _ in range(4):
            stepped = grid.step_transient_many(stepped, batch, 0.01)
        for s in range(3):
            solo = temps[s]
            for _ in range(4):
                solo = grid.step_transient(solo, batch[s], 0.01)
            assert np.array_equal(stepped[s], solo)

    def test_lockstep_many_oracle_engine(self, grid, maps):
        batch = np.stack([maps, maps * 0.5])
        temps = np.full(batch.shape, grid.stack.ambient_c)
        fact = grid.step_transient_many(temps, batch, 0.01)
        oracle = grid.step_transient_many(
            temps, batch, 0.01, engine="oracle"
        )
        assert float(np.abs(fact - oracle).max()) < 1e-9

    def test_lockstep_many_empty(self, grid):
        empty = np.empty((0, grid.stack.n_layers, grid.ny, grid.nx))
        out = grid.step_transient_many(empty, empty, 0.01)
        assert out.shape == empty.shape


class TestFactorOrdering:
    def test_transient_factor_uses_symmetric_fill_reducing_ordering(self):
        # Fig. 10's 66x22 grid: the SPD step operator factored with a
        # minimum-degree ordering of A + A^T and no pivoting has about
        # half the L+U fill of splu's default COLAMD ordering (248,120
        # vs 457,800), and the per-step substitution cost scales with it.
        grid = ThermalModel().grid
        factor, _ = grid._ensure_transient_factor(0.01)
        operator, _ = grid._transient_system(0.01)
        default = splu(operator)
        fill = factor.L.nnz + factor.U.nnz
        assert fill <= 0.6 * (default.L.nnz + default.U.nnz)


class TestNonFiniteInputs:
    """A NaN compares False against every bound, so one bad cell used to
    pass validation and turn the whole solved field NaN. Every entry
    point rejects it before assembling or factorizing anything."""

    @staticmethod
    def poisoned(a: np.ndarray, bad: float) -> np.ndarray:
        a = np.array(a, dtype=float)
        a.flat[a.size // 2] = bad
        return a

    @staticmethod
    def assert_untouched(grid: ThermalGrid) -> None:
        assert grid._system is None
        assert not grid.factorization_cached
        assert not grid._transient

    @pytest.fixture
    def fresh(self):
        return ThermalGrid(66.0, 22.0, nx=22, ny=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_and_solve_batch(self, fresh, maps, bad):
        with pytest.raises(ValueError, match="finite"):
            fresh.solve(self.poisoned(maps, bad))
        batch = np.stack([maps, self.poisoned(maps, bad)])
        with pytest.raises(ValueError, match="finite"):
            fresh.solve_batch(batch)
        self.assert_untouched(fresh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_step_transient_power(self, fresh, maps, bad):
        temps = np.full(maps.shape, fresh.stack.ambient_c)
        for engine in STEP_ENGINES:
            with pytest.raises(ValueError, match="finite"):
                fresh.step_transient(
                    temps, self.poisoned(maps, bad), 0.01, engine=engine
                )
        self.assert_untouched(fresh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_step_transient_temps(self, fresh, maps, bad):
        temps = np.full(maps.shape, fresh.stack.ambient_c)
        for engine in STEP_ENGINES:
            with pytest.raises(ValueError, match="finite"):
                fresh.step_transient(
                    self.poisoned(temps, bad), maps, 0.01, engine=engine
                )
        self.assert_untouched(fresh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_step_transient_many(self, fresh, maps, bad):
        batch = np.stack([maps, maps * 0.5])
        temps = np.full(batch.shape, fresh.stack.ambient_c)
        with pytest.raises(ValueError, match="finite"):
            fresh.step_transient_many(
                temps, self.poisoned(batch, bad), 0.01
            )
        with pytest.raises(ValueError, match="finite"):
            fresh.step_transient_many(
                self.poisoned(temps, bad), batch, 0.01
            )
        self.assert_untouched(fresh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_hold(self, fresh, maps, bad):
        solver = TransientSolver(fresh, dt=0.01)
        temps = solver.initial_temps()
        with pytest.raises(ValueError, match="finite"):
            solver.hold(temps, self.poisoned(maps, bad), 5)
        with pytest.raises(ValueError, match="finite"):
            solver.hold(self.poisoned(temps, bad), maps, 5)
        self.assert_untouched(fresh)


class TestSolveBatch:
    def test_solve_many_matches_sequential_solves(self, grid, maps):
        batch = np.stack([maps * (1.0 + 0.1 * k) for k in range(4)])
        fields = grid.solve_many(batch)
        for k in range(4):
            solo = grid.solve(batch[k])
            assert np.array_equal(fields[k].celsius, solo.celsius)

    def test_solve_batch_peaks(self, grid, maps):
        batch = np.stack([maps, maps * 2.0])
        out = grid.solve_batch(batch)
        assert isinstance(out, TemperatureFieldBatch)
        assert len(out) == 2
        peaks = out.peaks("dram")
        assert peaks.shape == (2,)
        assert peaks[1] > peaks[0]
        assert np.array_equal(
            out.peaks(), out.celsius.max(axis=(1, 2, 3))
        )

    def test_solve_batch_empty(self, grid):
        empty = np.empty((0, grid.stack.n_layers, grid.ny, grid.nx))
        out = grid.solve_batch(empty)
        assert len(out) == 0
        assert out.fields() == []


class TestInvalidateGuard:
    def test_mutated_grid_never_serves_stale_factorization(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        grid.solve(maps)  # caches system + factorization
        grid.width_m = 0.033  # narrower package, hotter cells
        fresh = ThermalGrid(33.0, 22.0, nx=22, ny=8)
        assert np.array_equal(
            grid.solve(maps).celsius, fresh.solve(maps).celsius
        )

    def test_mutation_invalidates_transient_cache(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        temps = np.full(maps.shape, grid.stack.ambient_c)
        grid.step_transient(temps, maps, 0.01)
        assert grid._transient
        grid.stack = grid.stack.__class__(ambient_c=40.0)
        assert not grid._transient
        fresh = ThermalGrid(
            66.0, 22.0, nx=22, ny=8, stack=grid.stack
        )
        t_mut = np.full(maps.shape, 40.0)
        assert np.array_equal(
            grid.step_transient(t_mut, maps, 0.01),
            fresh.step_transient(t_mut, maps, 0.01),
        )

    def test_mutation_before_first_solve_is_free(self, maps):
        grid = ThermalGrid(66.0, 22.0, nx=22, ny=8)
        grid.nx = 22  # no cached state yet: plain attribute set
        assert grid._system is None
        grid.solve(maps)


class TestTransientSolver:
    def test_run_trace_shapes(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        trace = solver.run([
            PowerPhase(maps, 0.1), PowerPhase(maps * 0.2, 0.05),
        ])
        assert trace.steps == 15
        assert trace.times.shape == trace.peak_c.shape == (15,)
        assert np.all(np.diff(trace.times) > 0)
        assert trace.max_peak_c == trace.layer_peak_c.max()
        assert trace.final.celsius.shape == maps.shape
        # Warm-up under power: the watched peak must have risen.
        assert trace.peak_c[-1] > grid.stack.ambient_c

    def test_empty_schedule_rejected(self, grid):
        with pytest.raises(ValueError):
            TransientSolver(grid).run([])

    def test_phase_and_solver_validation(self, grid, maps):
        with pytest.raises(ValueError):
            PowerPhase(maps, 0.0)
        with pytest.raises(ValueError):
            TransientSolver(grid, dt=-1.0)
        with pytest.raises(ValueError):
            TransientSolver(grid, engine="nope")

    def test_watch_layer_fallback(self, grid):
        solver = TransientSolver(grid, watch_layer="no-such-layer")
        assert solver.watch_layer is None

    def test_run_many_constant_and_per_step_traces(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        batch = np.stack([maps, maps * 0.5])
        final, peaks = solver.run_many(batch, 6)
        assert final.shape == batch.shape
        assert peaks.shape == (2, 6)
        # A per-step trace holding the same map every step is the same
        # integration.
        per_step = np.repeat(batch[:, None], 6, axis=1)
        final2, peaks2 = solver.run_many(per_step, 6)
        assert np.array_equal(final, final2)
        assert np.array_equal(peaks, peaks2)

    def test_run_many_validation(self, grid, maps):
        solver = TransientSolver(grid)
        batch = np.stack([maps])
        with pytest.raises(ValueError):
            solver.run_many(batch, 0)
        with pytest.raises(ValueError):
            solver.run_many(maps, 4)  # 3-D: missing scenario axis
        with pytest.raises(ValueError):
            solver.run_many(np.repeat(batch[:, None], 3, axis=1), 4)


class TestHold:
    @pytest.mark.parametrize("watch", ["dram", None])
    @pytest.mark.parametrize("engine", STEP_ENGINES)
    def test_bit_identical_to_single_steps(self, grid, maps, watch, engine):
        solver = TransientSolver(
            grid, dt=0.01, engine=engine, watch_layer=watch
        )
        start = solver.initial_temps() + 3.0
        trace = solver.hold(start, maps, 7, t0=1.25)
        temps, t = start, 1.25
        for k in range(7):
            temps = solver.step(temps, maps)
            t += 0.01
            assert trace.times[k] == t
            assert trace.peak_c[k] == temps.max()
            watched = (
                temps if watch is None
                else temps[grid.stack.layer_index(watch)]
            )
            assert trace.layer_peak_c[k] == watched.max()
        assert np.array_equal(trace.final.celsius, temps)
        assert trace.final.layer_names == tuple(
            l.name for l in grid.stack.layers
        )

    def test_leaves_input_untouched(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        start = solver.initial_temps()
        before = start.copy()
        solver.hold(start, maps, 3)
        assert np.array_equal(start, before)

    def test_validation(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        temps = solver.initial_temps()
        for n in (0, -2):
            with pytest.raises(ValueError):
                solver.hold(temps, maps, n)
        with pytest.raises(ValueError):
            solver.hold(temps, maps[:, :4], 3)
        with pytest.raises(ValueError):
            solver.hold(temps, -maps, 3)

    def test_run_is_holds_end_to_end(self, grid, maps):
        solver = TransientSolver(grid, dt=0.01)
        trace = solver.run([
            PowerPhase(maps, 0.04), PowerPhase(maps * 0.2, 0.03),
        ])
        temps, t = solver.initial_temps(), 0.0
        peaks = []
        for phase_maps, steps in ((maps, 4), (maps * 0.2, 3)):
            for _ in range(steps):
                temps = solver.step(temps, phase_maps)
                t += 0.01
                peaks.append(temps[grid.stack.layer_index("dram")].max())
        assert trace.times[-1] == t
        assert np.array_equal(trace.layer_peak_c, peaks)
        assert np.array_equal(trace.final.celsius, temps)


class TestThermalMonitor:
    def test_fake_clock_stepping_is_deterministic(self, grid, maps):
        now = [100.0]
        solver = TransientSolver(grid, dt=0.01)
        monitor = ThermalMonitor(
            solver, maps, clock=lambda: now[0]
        )
        assert monitor.advance() == monitor.layer_peak_c  # no time passed
        now[0] += 0.055
        monitor.advance()
        expected = solver.initial_temps()
        for _ in range(5):
            expected = solver.step(expected, maps)
        assert np.array_equal(monitor.temps, expected)
        # The un-stepped 5 ms remainder carries into the next advance.
        now[0] += 0.005
        monitor.advance()
        expected = solver.step(expected, maps)
        assert np.array_equal(monitor.temps, expected)

    def test_catchup_is_bounded(self, grid, maps):
        now = [0.0]
        solver = TransientSolver(grid, dt=0.01)
        monitor = ThermalMonitor(
            solver, maps, clock=lambda: now[0], max_steps_per_advance=8
        )
        now[0] += 1e6  # an hour-scale gap must not integrate 1e8 steps
        monitor.advance()
        expected = solver.initial_temps()
        for _ in range(8):
            expected = solver.step(expected, maps)
        assert np.array_equal(monitor.temps, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_set_power_rejects_bad_maps(self, grid, maps, bad):
        solver = TransientSolver(grid, dt=0.01)
        monitor = ThermalMonitor(solver, maps, clock=lambda: 0.0)
        poisoned = np.array(maps)
        poisoned[0, 0, 0] = bad
        for wrong in (poisoned, -maps, np.stack([maps, maps])):
            with pytest.raises(ValueError):
                monitor.set_power(wrong)
            with pytest.raises(ValueError):
                ThermalMonitor(solver, wrong)
        assert np.array_equal(monitor.power_maps, maps)

    def test_set_power_changes_trajectory(self, grid, maps):
        now = [0.0]
        solver = TransientSolver(grid, dt=0.01)
        monitor = ThermalMonitor(solver, maps, clock=lambda: now[0])
        now[0] += 0.1
        hot_peak = monitor.advance()
        monitor.set_power(np.zeros_like(maps))
        now[0] += 5.0
        cooled = monitor.advance()
        assert cooled < hot_peak


class TestThermalGovernor:
    @pytest.fixture(scope="class")
    def governor(self):
        return ThermalGovernor()

    @pytest.fixture(scope="class")
    def phases(self):
        return [
            ThermalPhase(get_application("MaxFlops"), 0.6),
            ThermalPhase(get_application("CoMD"), 0.3),
        ]

    def test_replay_exceeds_limit_governed_does_not(
        self, governor, phases
    ):
        replay = governor.replay(phases, HOT)
        governed = governor.run(phases, HOT)
        assert not replay.within_limit
        assert replay.max_peak_dram_c > DRAM_LIMIT_C
        assert governed.within_limit
        assert governed.time_over_limit_s == 0.0
        assert governed.throttle_events
        assert governed.steps == replay.steps

    def test_replay_matches_single_step_integration(
        self, governor, phases
    ):
        # The governor steps one control tick at a time through
        # TransientSolver.hold; uncontrolled, that is plain stepping.
        replay = governor.replay(phases, HOT)
        solver, thermal = governor.solver, governor.thermal
        dram = thermal.stack.layer_index("dram")
        temps, t = solver.initial_temps(), 0.0
        times, peaks = [], []
        for phase in phases:
            maps = thermal.build_power_maps(
                governor.model.evaluate(phase.profile, HOT).power
            )
            for _ in range(solver.steps_for(phase.duration_s)):
                temps = solver.step(temps, maps)
                t += solver.dt
                times.append(t)
                peaks.append(temps[dram].max())
        assert np.array_equal(replay.times, times)
        assert np.array_equal(replay.peak_dram_c, peaks)

    def test_governor_only_backs_off(self, governor, phases):
        governed = governor.run(phases, HOT)
        for _, cfg in governed.phase_configs:
            assert cfg.gpu_freq <= HOT.gpu_freq
            assert cfg.n_cus <= HOT.n_cus
        for event in governed.throttle_events:
            assert event.gpu_freq <= HOT.gpu_freq
            assert event.n_cus <= HOT.n_cus

    def test_governed_work_costs_less_energy(self, governor, phases):
        replay = governor.replay(phases, HOT)
        governed = governor.run(phases, HOT)
        assert 0.0 < governed.work_flops < replay.work_flops
        assert 0.0 < governed.energy_j < replay.energy_j

    def test_cool_point_untouched(self, governor):
        phases = [ThermalPhase(get_application("CoMD"), 0.2)]
        governed = governor.run(phases, PAPER_BEST_MEAN)
        assert governed.phase_configs[0][1] == PAPER_BEST_MEAN
        assert not governed.throttle_events

    def test_empty_schedule_rejected(self, governor):
        with pytest.raises(ValueError):
            governor.run([], HOT)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ThermalPhase(get_application("CoMD"), 0.0)

    def test_cap_is_memoized(self, governor):
        p = get_application("MaxFlops")
        a = governor.thermal_cap(p, HOT)
        solves_before = len(governor._steady_peak_cache)
        b = governor.thermal_cap(p, HOT)
        assert a is b
        assert len(governor._steady_peak_cache) == solves_before

    def test_as_dict_round_trips_to_json(self, governor, phases):
        import json

        governed = governor.run(phases, HOT)
        blob = json.dumps(governed.as_dict())
        assert "throttle_events" in blob


class TestServeThermalMonitor:
    def test_drain_advances_monitor_and_stats_report_peak(self):
        from repro.serve.requests import OK, PointRequest
        from repro.serve.service import EvalService

        now = [0.0]

        def clock():
            return now[0]

        model = NodeModel()
        thermal = ThermalModel(nx=22, ny=8)
        maps = thermal.build_power_maps(
            model.evaluate(get_application("MaxFlops"), HOT).power
        )
        solver = TransientSolver(thermal.grid, dt=0.01)
        monitor = ThermalMonitor(solver, maps, clock=clock)

        async def scenario():
            service = EvalService(
                model=model, clock=clock, thermal_monitor=monitor,
                batch_window_s=0.0,
            )
            async with service:
                now[0] += 0.2  # simulated time passes before traffic
                request = PointRequest(
                    get_application("CoMD"), 320, 1.0e9, 3.0e12
                )
                response = await service.submit(request)
                assert response.status == OK
                return service.stats()

        stats = asyncio.run(scenario())
        # The drain's throttled publish advanced the simulated package.
        assert monitor.temps.max() > thermal.stack.ambient_c
        assert stats["thermal_dram_peak_c"] == monitor.layer_peak_c


def test_thermal_loop_cli_smoke(capsys):
    from repro.__main__ import main

    code = main([
        "thermal-loop", "--thermal-steps", "30", "--thermal-cycles", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "governed" in out and "EXCEEDS" in out
