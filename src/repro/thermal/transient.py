"""Transient thermal driver: phase schedules over the stepping grid.

The paper's thermal analysis (Figs. 10/11) is a steady-state snapshot,
but its central finding — the 3D DRAM stack's retention limit is what
bounds sustained APU power — is a *runtime* phenomenon: power maps
change as kernels phase, and the stack integrates them through its
thermal mass. This module drives
:meth:`~repro.thermal.grid.ThermalGrid.step_transient` through such
schedules:

* :class:`PowerPhase` — one power map held for a duration.
* :class:`TransientSolver` — backward-Euler integration: one map held
  for n steps (:meth:`TransientSolver.hold`, the single stepping loop
  every single-scenario driver shares), a phase schedule
  (:meth:`TransientSolver.run`), S scenarios in lockstep
  through one multi-RHS substitution per step
  (:meth:`TransientSolver.run_many`), and steady-state convergence
  (:meth:`TransientSolver.converge`) — the bridge the equivalence test
  walks between the transient and steady solvers.
* :class:`ThermalMonitor` — a wall-clock-driven wrapper a serving
  process can advance opportunistically, publishing ``thermal.*``
  gauges through obs.

The closed-loop policy that *reacts* to these temperatures lives in
:mod:`repro.core.thermal_governor`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.thermal.grid import STEP_ENGINES, TemperatureField, ThermalGrid
from repro.util.engines import check_engine

__all__ = [
    "PowerPhase",
    "TransientTrace",
    "TransientSolver",
    "ThermalMonitor",
]


@dataclass(frozen=True)
class PowerPhase:
    """One power map held constant for a stretch of simulated time."""

    power_maps: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        if not self.duration_s > 0.0:
            raise ValueError("phase duration must be positive")


@dataclass(frozen=True)
class TransientTrace:
    """Per-step history of one transient integration."""

    times: np.ndarray
    """End-of-step simulated times, seconds, shaped (steps,)."""

    peak_c: np.ndarray
    """Hottest cell anywhere in the stack after each step."""

    layer_peak_c: np.ndarray
    """Hottest cell of the watched layer after each step (equals
    ``peak_c`` when no layer is watched)."""

    final: TemperatureField
    """The full field after the last step."""

    @property
    def steps(self) -> int:
        """Number of integration steps taken."""
        return int(self.times.size)

    @property
    def max_peak_c(self) -> float:
        """Hottest watched-layer cell over the whole trace."""
        return float(self.layer_peak_c.max())


class TransientSolver:
    """Backward-Euler integrator over a :class:`ThermalGrid`.

    Parameters
    ----------
    grid:
        The grid whose cached ``C/dt + G`` factorization every step
        substitutes against.
    dt:
        Step size, seconds. One factorization per distinct dt — keep it
        fixed per solver.
    engine:
        ``"factored"`` (default, amortized factorization) or
        ``"oracle"`` (re-solve from the raw matrix every step; the
        correctness reference).
    watch_layer:
        Layer name whose per-step peak lands in
        :attr:`TransientTrace.layer_peak_c` (``None`` watches the whole
        stack).
    """

    def __init__(
        self,
        grid: ThermalGrid,
        dt: float = 0.01,
        engine: str = "factored",
        watch_layer: str | None = "dram",
    ):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        check_engine(engine, STEP_ENGINES, "step")
        self.grid = grid
        self.dt = float(dt)
        self.engine = engine
        names = tuple(l.name for l in grid.stack.layers)
        if watch_layer is not None and watch_layer not in names:
            watch_layer = None
        self.watch_layer = watch_layer
        self._watch_index = (
            names.index(watch_layer) if watch_layer is not None else None
        )

    # ------------------------------------------------------------------
    def initial_temps(self) -> np.ndarray:
        """A field at ambient — the cold-start initial condition."""
        shape = (self.grid.stack.n_layers, self.grid.ny, self.grid.nx)
        return np.full(shape, self.grid.stack.ambient_c)

    def steps_for(self, duration_s: float) -> int:
        """Whole steps covering *duration_s* (at least one)."""
        return max(1, round(float(duration_s) / self.dt))

    def step(self, temps: np.ndarray, power_maps: np.ndarray) -> np.ndarray:
        """One step (see :meth:`ThermalGrid.step_transient`)."""
        return self.grid.step_transient(
            temps, power_maps, self.dt, engine=self.engine
        )

    # ------------------------------------------------------------------
    def hold(
        self,
        temps: np.ndarray,
        power_maps: np.ndarray,
        n: int,
        t0: float = 0.0,
    ) -> TransientTrace:
        """Hold one power map for *n* steps from *temps*.

        The one per-step loop every single-scenario integration
        (:meth:`run`, :class:`ThermalMonitor`, the thermal governor)
        goes through. Inputs are validated and ``P + G_b T_amb`` is
        built once; each step is then one substitution plus the peak
        bookkeeping, bit-identical to *n* :meth:`step` calls. Step
        times continue from *t0* by repeated ``+= dt``.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("n must be positive")
        grid = self.grid
        temps, power_maps = grid._validate_step(
            temps, power_maps, self.dt, self.engine, ndim=3
        )
        rhs_const = grid._rhs(power_maps)
        solve, c_over_dt = grid._stepper(self.dt, self.engine)
        li = self._watch_index
        plane = grid.ny * grid.nx
        watched = (
            slice(None) if li is None else slice(li * plane, (li + 1) * plane)
        )
        times = np.empty(n)
        peaks = np.empty(n)
        layer_peaks = np.empty(n)
        x = temps.ravel()
        t = float(t0)
        for k in range(n):
            x = solve(c_over_dt * x + rhs_const)
            t += self.dt
            times[k] = t
            peaks[k] = x.max()
            layer_peaks[k] = x[watched].max()
        return TransientTrace(
            times=times,
            peak_c=peaks,
            layer_peak_c=layer_peaks,
            final=grid._field(x),
        )

    def run(
        self,
        phases: Sequence[PowerPhase],
        temps: np.ndarray | None = None,
    ) -> TransientTrace:
        """Integrate a phase schedule from *temps* (default: ambient)."""
        if not phases:
            raise ValueError("phase schedule must not be empty")
        if temps is None:
            temps = self.initial_temps()
        traces: list[TransientTrace] = []
        t = 0.0
        with obs_trace.span(
            "thermal.transient", cells=self.grid.n_cells,
            phases=len(phases),
        ), obs_metrics.timed("thermal.transient_seconds"):
            for phase in phases:
                trace = self.hold(
                    temps, phase.power_maps,
                    self.steps_for(phase.duration_s), t0=t,
                )
                temps = trace.final.celsius
                t = float(trace.times[-1])
                traces.append(trace)
        times = np.concatenate([tr.times for tr in traces])
        peaks = np.concatenate([tr.peak_c for tr in traces])
        obs_metrics.inc("thermal.steps", times.size)
        obs_metrics.set_gauge("thermal.peak_c", float(peaks[-1]))
        return TransientTrace(
            times=times,
            peak_c=peaks,
            layer_peak_c=np.concatenate(
                [tr.layer_peak_c for tr in traces]
            ),
            final=traces[-1].final,
        )

    def run_many(
        self,
        power_maps: np.ndarray,
        n_steps: int,
        temps: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step S scenarios *n_steps* times in lockstep.

        *power_maps* is either ``(s, n_layers, ny, nx)`` (one constant
        map per scenario) or ``(s, n_steps, n_layers, ny, nx)`` (a
        per-step power trace per scenario). Every step advances all S
        scenarios through one multi-RHS substitution. Returns
        ``(final_temps (s, n_layers, ny, nx), watched-layer peaks
        (s, n_steps))`` — bit-identical per scenario to S independent
        :meth:`run` integrations.
        """
        power_maps = np.asarray(power_maps, dtype=float)
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if power_maps.ndim == 4:
            per_step = False
        elif power_maps.ndim == 5:
            per_step = True
            if power_maps.shape[1] != n_steps:
                raise ValueError(
                    f"per-step power trace has {power_maps.shape[1]} "
                    f"steps, expected {n_steps}"
                )
        else:
            raise ValueError(
                f"power_maps must be (s, layers, ny, nx) or "
                f"(s, steps, layers, ny, nx), got {power_maps.shape}"
            )
        s = power_maps.shape[0]
        if temps is None:
            temps = np.broadcast_to(
                self.initial_temps(), (s,) + self.initial_temps().shape
            ).copy()
        temps = np.asarray(temps, dtype=float)
        li = self._watch_index
        peaks = np.empty((s, n_steps))
        with obs_trace.span(
            "thermal.transient_many", cells=self.grid.n_cells,
            scenarios=s, steps=n_steps,
        ), obs_metrics.timed("thermal.transient_seconds"):
            for k in range(n_steps):
                maps = power_maps[:, k] if per_step else power_maps
                temps = self.grid.step_transient_many(
                    temps, maps, self.dt, engine=self.engine
                )
                watched = temps if li is None else temps[:, li]
                peaks[:, k] = watched.reshape(s, -1).max(axis=1)
        obs_metrics.inc("thermal.steps", s * n_steps)
        return temps, peaks

    def converge(
        self,
        power_maps: np.ndarray,
        temps: np.ndarray | None = None,
        tol_c: float = 1e-9,
        max_steps: int = 20_000,
    ) -> tuple[TemperatureField, int]:
        """Step under constant power until the field stops moving.

        Returns the converged field and the steps taken. At
        convergence the backward-Euler fixed point *is* the
        steady-state solution ``G T = P + G_b T_amb`` — the equivalence
        the oracle test pins against :meth:`ThermalGrid.solve`.
        """
        if temps is None:
            temps = self.initial_temps()
        temps = np.asarray(temps, dtype=float)
        steps = 0
        with obs_trace.span(
            "thermal.converge", cells=self.grid.n_cells
        ), obs_metrics.timed("thermal.transient_seconds"):
            while steps < max_steps:
                new = self.step(temps, power_maps)
                steps += 1
                moved = float(np.abs(new - temps).max())
                temps = new
                if moved <= tol_c:
                    break
        obs_metrics.inc("thermal.steps", steps)
        return self.grid._field(temps), steps


class ThermalMonitor:
    """Wall-clock transient stepping for a long-running process.

    A serving loop cannot integrate a fixed schedule — it has to move
    the simulated stack forward whenever it gets a chance. The monitor
    keeps the current power map (updated via :meth:`set_power` as the
    served load changes) and :meth:`advance` steps the model up to the
    caller's clock reading in dt quanta, publishing ``thermal.peak_c``
    and ``thermal.dram_peak_c`` gauges plus the ``thermal.steps``
    counter. Steps per advance are capped so a long idle gap costs a
    bounded amount of catch-up work.
    """

    def __init__(
        self,
        solver: TransientSolver,
        power_maps: np.ndarray | None = None,
        clock: Callable[[], float] = time.monotonic,
        max_steps_per_advance: int = 256,
    ):
        self.solver = solver
        shape = (
            solver.grid.stack.n_layers, solver.grid.ny, solver.grid.nx
        )
        if power_maps is None:
            power_maps = np.zeros(shape)
        self.set_power(power_maps)
        self.clock = clock
        self.max_steps_per_advance = int(max_steps_per_advance)
        self.temps = solver.initial_temps()
        self._last = clock()
        self.peak_c = float(self.temps.max())
        self.layer_peak_c = self.peak_c

    def set_power(self, power_maps: np.ndarray) -> None:
        """Swap in the power map subsequent steps integrate.

        Validated here, so a bad map fails its caller rather than a
        later :meth:`advance` (which a service runs in its drain loop).
        """
        power_maps = self.solver.grid._validate_maps(power_maps)
        if power_maps.ndim != 3:
            raise ValueError(
                f"monitor takes one (n_layers, ny, nx) power map, got "
                f"shape {power_maps.shape}"
            )
        self.power_maps = power_maps

    def advance(self, now: float | None = None) -> float:
        """Step the model up to *now* (default: the monitor's clock).

        Returns the watched-layer peak after stepping; publishes the
        ``thermal.*`` gauges when any step was taken.
        """
        if now is None:
            now = self.clock()
        steps = int((now - self._last) / self.solver.dt)
        if steps <= 0:
            return self.layer_peak_c
        if steps > self.max_steps_per_advance:
            # Drop the un-simulatable backlog: the monitor is telemetry,
            # not a ledger, and a bounded catch-up keeps advance() cheap.
            self._last = now - self.max_steps_per_advance * self.solver.dt
            steps = self.max_steps_per_advance
        trace = self.solver.hold(self.temps, self.power_maps, steps)
        self.temps = trace.final.celsius
        self._last += steps * self.solver.dt
        peak = float(trace.peak_c[-1])
        layer_peak = float(trace.layer_peak_c[-1])
        self.peak_c = peak
        self.layer_peak_c = layer_peak
        obs_metrics.inc("thermal.steps", steps)
        obs_metrics.set_gauge("thermal.peak_c", peak)
        obs_metrics.set_gauge("thermal.dram_peak_c", layer_peak)
        return layer_peak
