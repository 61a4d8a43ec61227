"""``thermal-loop``: the governed MaxFlops-sprint / CoMD-cool schedule at
``HOT_CONFIG``, plus its uncontrolled replay, as ``python -m repro
thermal-loop`` runs them.

Set-up builds the node model. A pass is one uncontrolled replay and one
governed run, through ``TransientSolver`` and ``ThermalGovernor``. A cold
pass runs on a freshly built Fig. 10 thermal grid (built outside the
timer), so it factorizes the steady and the transient operators; each
warm pass uses a fresh governor on the same grid, so both
factorizations are cached while the governor's steady solves still run.
A round makes several cold passes, each followed by its warm passes.
The seed splits each sprint/cool cycle differently; the number of steps
stays the same.

Checks, outside the timed passes: the governed run stays within the DRAM
limit and the replay exceeds it; every pass reproduces the cold pass
exactly; lockstep stepping is bit-identical to per-scenario stepping;
the factored step agrees with the refactorize-every-step oracle.
"""

from __future__ import annotations

from time import perf_counter

DT = 0.01
CYCLE_S = 3.0
COLD_PASSES = 1
WARM_PASSES = 2


def schedule(seed: int, cycles: int):
    """Sprint/cool durations per cycle (whole steps, fixed total)."""
    import numpy as np

    rng = np.random.default_rng([seed, 10])
    out = []
    for _ in range(cycles):
        sprint = round(2.0 + float(rng.uniform(-0.4, 0.4)), 2)
        out.append((sprint, round(CYCLE_S - sprint, 2)))
    return out


def _same(a, b) -> bool:
    import numpy as np

    return (
        np.array_equal(a.peak_dram_c, b.peak_dram_c)
        and np.array_equal(a.times, b.times)
        and a.energy_j == b.energy_j
        and a.work_flops == b.work_flops
        and a.phase_configs == b.phase_configs
        and a.throttle_events == b.throttle_events
    )


def run(rnd) -> dict:
    started = perf_counter()
    import numpy as np

    from repro.core.node import NodeModel
    from repro.core.thermal_governor import ThermalGovernor, ThermalPhase
    from repro.thermal.analysis import ThermalModel
    from repro.thermal.bench import HOT_CONFIG
    from repro.thermal.transient import TransientSolver
    from repro.workloads.catalog import get_application

    rnd.imported(started)
    model = NodeModel()
    grid_size = {"nx": 33, "ny": 11} if rnd.tiny else {}
    maxflops = get_application("MaxFlops")
    comd = get_application("CoMD")
    phases = []
    for sprint_s, cool_s in schedule(rnd.seed, 1 if rnd.tiny else 2):
        phases.append(ThermalPhase(maxflops, sprint_s))
        phases.append(ThermalPhase(comd, cool_s))
    rnd.ready()

    rnd.begin_body()
    cold, warm, results = [], [], []
    for _ in range(1 if rnd.tiny else COLD_PASSES):
        thermal = ThermalModel(**grid_size)
        for walls in [cold] + [warm] * (1 if rnd.tiny else WARM_PASSES):
            t0 = perf_counter()
            governor = ThermalGovernor(model=model, thermal=thermal, dt=DT)
            replay = governor.replay(phases, HOT_CONFIG)
            governed = governor.run(phases, HOT_CONFIG)
            walls.append(perf_counter() - t0)
            rnd.calibrate()
            results.append((replay, governed))
    out = rnd.end_body()

    cold_replay, cold_governed = results[0]
    for index, (replay, governed) in enumerate(results):
        rnd.check(governed.within_limit,
                  f"pass {index}: governed run exceeds the DRAM limit")
        rnd.check(not replay.within_limit,
                  f"pass {index}: uncontrolled replay stays within the limit")
        rnd.check(_same(replay, cold_replay) and _same(governed, cold_governed),
                  f"pass {index}: results differ from the cold pass")

    grid = thermal.grid
    maps = thermal.build_power_maps(model.evaluate(maxflops, HOT_CONFIG).power)
    solver = TransientSolver(grid, dt=DT)
    batch_maps = np.stack([maps * s for s in (0.5, 0.75, 1.0)])
    final, _ = solver.run_many(batch_maps, 20)
    lockstep_ok = True
    for k in range(len(batch_maps)):
        temps = solver.initial_temps()
        for _ in range(20):
            temps = solver.step(temps, batch_maps[k])
        lockstep_ok = lockstep_ok and np.array_equal(final[k], temps)
    rnd.check(lockstep_ok, "lockstep stepping differs from per-scenario")
    factored = grid.step_transient(final[-1], maps, DT)
    oracle = grid.step_transient(final[-1], maps, DT, engine="oracle")
    rnd.check(float(np.abs(factored - oracle).max()) <= 1e-9,
              "factored step disagrees with the oracle step")
    out.update(cold_s=cold, warm_s=warm)
    return out
