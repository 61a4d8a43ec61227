"""Sparse steady-state thermal grid solver.

Discretizes the package into ``nx x ny`` cells per layer and solves the
conduction equation ``G T = P + G_b T_amb`` where ``G`` assembles
lateral (within-layer) and vertical (between-layer and boundary)
conductances. This is the same compact-model formulation HotSpot uses
(the paper's thermal methodology), specialized to steady state.

The conductance matrix depends only on the grid geometry and layer
stack, never on the power map, so assembly and factorization happen once
per grid: :meth:`ThermalGrid.solve` caches a sparse LU factorization
(:func:`scipy.sparse.linalg.splu`) and every subsequent solve is a pair
of triangular back-substitutions. :meth:`ThermalGrid.solve_many`
back-substitutes a whole batch of power maps against the same
factorization in one call.

The same machinery powers the transient mode: an implicit backward-Euler
step ``(C/dt + G) T' = (C/dt) T + P + G_b T_amb`` over the identical
conductance matrix, where ``C`` is the diagonal per-cell heat capacity.
``(C/dt + G)`` is factorized **once per step size** and cached, so every
:meth:`ThermalGrid.step_transient` call is a single back/forward
substitution; :meth:`ThermalGrid.step_transient_many` advances S
independent scenarios in lockstep as one multi-RHS substitution. The
step operator is symmetric positive definite (``G`` is a symmetric,
diagonally dominant conductance Laplacian with positive boundary terms,
``C/dt`` a positive diagonal), so its factorization uses a symmetric
minimum-degree ordering on ``A + A^T`` and no pivoting: about half the
L+U fill of the default column ordering, hence half the work per
substitution. The ``engine="oracle"`` path re-solves from the raw matrix
every step (:func:`scipy.sparse.linalg.spsolve`) and is the retained
correctness reference the factored path is gated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import splu, spsolve

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.thermal.stack import LayerStack
from repro.util.engines import check_engine

__all__ = [
    "TemperatureField",
    "TemperatureFieldBatch",
    "ThermalGrid",
    "STEP_ENGINES",
]

STEP_ENGINES = ("factored", "oracle")
"""Transient step engines: amortized factorization vs per-step solve."""


@dataclass(frozen=True)
class TemperatureField:
    """Solved temperatures, Celsius, shaped (n_layers, ny, nx)."""

    celsius: np.ndarray
    layer_names: tuple[str, ...]

    def layer(self, name: str) -> np.ndarray:
        """The 2-D temperature map of one named layer."""
        return self.celsius[self.layer_names.index(name)]

    def peak(self, name: str | None = None) -> float:
        """Hottest cell overall or within one layer."""
        if name is None:
            return float(self.celsius.max())
        return float(self.layer(name).max())

    def mean(self, name: str) -> float:
        """Mean temperature of one layer."""
        return float(self.layer(name).mean())


@dataclass(frozen=True)
class TemperatureFieldBatch:
    """A batch of solved fields, Celsius, shaped (k, n_layers, ny, nx).

    Struct-of-arrays twin of a list of :class:`TemperatureField`: one
    contiguous tensor instead of k per-map copies, so batched consumers
    (the transient stepper, `solve_many` callers that only want peaks)
    never materialize per-map objects.
    """

    celsius: np.ndarray
    layer_names: tuple[str, ...]

    def __len__(self) -> int:
        return self.celsius.shape[0]

    def field(self, k: int) -> TemperatureField:
        """The *k*-th map as a standalone :class:`TemperatureField`."""
        return TemperatureField(
            celsius=self.celsius[k], layer_names=self.layer_names
        )

    def fields(self) -> list[TemperatureField]:
        """All maps as a list of :class:`TemperatureField` views."""
        return [self.field(k) for k in range(len(self))]

    def peaks(self, name: str | None = None) -> np.ndarray:
        """Per-map hottest cell, overall or within one named layer."""
        if name is None:
            return self.celsius.max(axis=(1, 2, 3))
        li = self.layer_names.index(name)
        return self.celsius[:, li].max(axis=(1, 2))


class ThermalGrid:
    """Gridded package with a linear steady-state solve.

    Parameters
    ----------
    width_mm, depth_mm:
        Package extent.
    nx, ny:
        Grid resolution (cells along width and depth).
    stack:
        Layer stack and boundary resistances.
    """

    def __init__(
        self,
        width_mm: float,
        depth_mm: float,
        nx: int = 66,
        ny: int = 22,
        stack: LayerStack | None = None,
    ):
        if nx < 2 or ny < 2:
            raise ValueError("grid must be at least 2x2")
        if width_mm <= 0 or depth_mm <= 0:
            raise ValueError("package dimensions must be positive")
        self.width_m = width_mm * 1e-3
        self.depth_m = depth_mm * 1e-3
        self.nx = nx
        self.ny = ny
        self.stack = stack or LayerStack()
        self.dx = self.width_m / nx
        self.dy = self.depth_m / ny
        self.cell_area = self.dx * self.dy
        self._system: tuple | None = None
        self._factor = None
        # dt -> (splu factor of C/dt + G, C/dt vector)
        self._transient: dict[float, tuple] = {}

    # Geometry/stack attributes the cached factorizations depend on.
    # Assigning any of them after a factorization exists silently
    # invalidates the caches, so a stale factorization can never serve
    # a mutated grid (the derived dx/dy/cell_area are recomputed when
    # the extents or resolution move).
    _PARAM_ATTRS = frozenset(
        {"width_m", "depth_m", "nx", "ny", "stack"}
    )

    def __setattr__(self, name: str, value) -> None:
        mutated = name in self._PARAM_ATTRS and (
            getattr(self, "_system", None) is not None
            or getattr(self, "_factor", None) is not None
            or bool(getattr(self, "_transient", None))
        )
        super().__setattr__(name, value)
        if mutated:
            if name in ("width_m", "depth_m", "nx", "ny"):
                super().__setattr__("dx", self.width_m / self.nx)
                super().__setattr__("dy", self.depth_m / self.ny)
                super().__setattr__("cell_area", self.dx * self.dy)
            self.invalidate()

    @property
    def n_cells(self) -> int:
        """Unknowns in the linear system."""
        return self.stack.n_layers * self.ny * self.nx

    @property
    def factorization_cached(self) -> bool:
        """Whether the LU factorization is already available."""
        return self._factor is not None

    def invalidate(self) -> None:
        """Drop the cached matrix and factorizations (rebuilt on
        demand), including every cached transient step operator."""
        super().__setattr__("_system", None)
        super().__setattr__("_factor", None)
        super().__setattr__("_transient", {})

    def _index(self, layer: int, j: int, i: int) -> int:
        return (layer * self.ny + j) * self.nx + i

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _conductances(self):
        """Per-layer lateral/vertical conductances and boundary terms."""
        layers = self.stack.layers
        lat_x, lat_y, vert = [], [], []
        for li, layer in enumerate(layers):
            cross_x = layer.thickness_m * self.dy
            cross_y = layer.thickness_m * self.dx
            lat_x.append(1.0 / layer.lateral_resistance(self.dx, cross_x))
            lat_y.append(1.0 / layer.lateral_resistance(self.dy, cross_y))
            if li + 1 < len(layers):
                upper = layers[li + 1]
                r_v = (
                    layer.vertical_resistance(self.cell_area) / 2.0
                    + upper.vertical_resistance(self.cell_area) / 2.0
                )
                vert.append(1.0 / r_v)
        g_board = self.cell_area / self.stack.board_resistance_km2w
        g_sink = self.cell_area / self.stack.sink_resistance_km2w
        bottom_half = layers[0].vertical_resistance(self.cell_area) / 2.0
        top_half = layers[-1].vertical_resistance(self.cell_area) / 2.0
        g_bottom = 1.0 / (bottom_half + 1.0 / g_board)
        g_top = 1.0 / (top_half + 1.0 / g_sink)
        return lat_x, lat_y, vert, g_bottom, g_top

    def _assemble(self):
        """Build the conductance matrix and ambient-coupling vector.

        Vectorized over flattened grids: instead of walking every cell in
        Python, each coupling family (lateral x, lateral y, vertical,
        boundary) is emitted as whole index arrays. The diagonal is
        accumulated with ``np.add.at`` over the contributions in exactly
        the order the reference triple loop adds them, so the result is
        bit-identical to :meth:`_assemble_reference`.
        """
        nx, ny = self.nx, self.ny
        n_layers = self.stack.n_layers
        plane = ny * nx
        n = self.n_cells
        lat_x, lat_y, vert, g_bottom, g_top = self._conductances()

        idx = np.arange(plane, dtype=np.int64)
        has_x = (idx % nx) != nx - 1  # a neighbour at i+1 exists
        has_y = idx < (ny - 1) * nx  # a neighbour at j+1 exists

        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        diag_idx_parts: list[np.ndarray] = []
        diag_val_parts: list[np.ndarray] = []

        def emit_pairs(a: np.ndarray, b: np.ndarray, g: float) -> None:
            """Symmetric off-diagonal entries for couplings a<->b."""
            rows_parts.append(np.concatenate([a, b]))
            cols_parts.append(np.concatenate([b, a]))
            vals_parts.append(np.full(2 * a.size, -g))

        for li in range(n_layers):
            base = li * plane
            a = base + idx
            ax, ay = a[has_x], a[has_y]
            emit_pairs(ax, ax + 1, lat_x[li])
            emit_pairs(ay, ay + nx, lat_y[li])
            # Reference order per cell: diag[a]+=g_x, diag[a+1]+=g_x,
            # diag[a]+=g_y, diag[a+nx]+=g_y — interleave the four slots
            # per cell and mask out the missing boundary neighbours.
            slots = np.stack([a, a + 1, a, a + nx], axis=1)
            svals = np.broadcast_to(
                np.array([lat_x[li], lat_x[li], lat_y[li], lat_y[li]]),
                slots.shape,
            )
            smask = np.stack([has_x, has_x, has_y, has_y], axis=1)
            diag_idx_parts.append(slots[smask])
            diag_val_parts.append(np.ascontiguousarray(svals)[smask])
            # Vertical coupling to the layer above.
            if li + 1 < n_layers:
                g_v = vert[li]
                emit_pairs(a, a + plane, g_v)
                vslots = np.stack([a, a + plane], axis=1)
                diag_idx_parts.append(vslots.ravel())
                diag_val_parts.append(np.full(2 * plane, g_v))

        # Boundaries: bottom layer to board, top layer to heatsink,
        # emitted bottom-then-top per cell as the reference loop does.
        bottom = idx
        top = (n_layers - 1) * plane + idx
        bslots = np.stack([bottom, top], axis=1).ravel()
        bvals = np.tile(np.array([g_bottom, g_top]), plane)
        diag_idx_parts.append(bslots)
        diag_val_parts.append(bvals)

        diag = np.zeros(n)
        np.add.at(
            diag, np.concatenate(diag_idx_parts), np.concatenate(diag_val_parts)
        )
        b_amb = np.zeros(n)
        np.add.at(b_amb, bslots, bvals)

        rows = np.concatenate(rows_parts + [np.arange(n, dtype=np.int64)])
        cols = np.concatenate(cols_parts + [np.arange(n, dtype=np.int64)])
        vals = np.concatenate(vals_parts + [diag])
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return matrix, b_amb

    def _assemble_reference(self):
        """Pure-Python triple-loop assembly (the original implementation).

        Kept as the readable specification of the discretization and as
        the oracle the vectorized :meth:`_assemble` is tested against.
        """
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = np.zeros(self.n_cells)
        b_amb = np.zeros(self.n_cells)

        layers = self.stack.layers
        n_layers = len(layers)
        lat_x, lat_y, vert, g_bottom, g_top = self._conductances()

        def add(a: int, b: int, g: float) -> None:
            rows.append(a)
            cols.append(b)
            vals.append(-g)
            diag[a] += g

        for li in range(n_layers):
            g_lat_x = lat_x[li]
            g_lat_y = lat_y[li]
            for j in range(self.ny):
                for i in range(self.nx):
                    a = self._index(li, j, i)
                    if i + 1 < self.nx:
                        b = self._index(li, j, i + 1)
                        add(a, b, g_lat_x)
                        add(b, a, g_lat_x)
                    if j + 1 < self.ny:
                        b = self._index(li, j + 1, i)
                        add(a, b, g_lat_y)
                        add(b, a, g_lat_y)
            # Vertical coupling to the layer above.
            if li + 1 < n_layers:
                g_v = vert[li]
                for j in range(self.ny):
                    for i in range(self.nx):
                        a = self._index(li, j, i)
                        b = self._index(li + 1, j, i)
                        add(a, b, g_v)
                        add(b, a, g_v)

        for j in range(self.ny):
            for i in range(self.nx):
                a = self._index(0, j, i)
                diag[a] += g_bottom
                b_amb[a] += g_bottom
                a = self._index(n_layers - 1, j, i)
                diag[a] += g_top
                b_amb[a] += g_top

        n = self.n_cells
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return matrix, b_amb

    # ------------------------------------------------------------------
    # Solves
    # ------------------------------------------------------------------
    def _ensure_system(self):
        """The assembled ``(G, G_b)`` pair, built on first use."""
        if self._system is None:
            self._system = self._assemble()
        return self._system

    def _ensure_factor(self):
        if self._factor is None:
            matrix, _ = self._ensure_system()
            self._factor = splu(matrix.tocsc())
        return self._factor

    def _rhs(self, power_maps: np.ndarray) -> np.ndarray:
        """``P + G_b T_amb`` per map: ``(n,)`` for one map, ``(k, n)``
        for a stack of k maps."""
        _, b_amb = self._ensure_system()
        flat = power_maps.reshape(power_maps.shape[:-3] + (-1,))
        return flat + b_amb * self.stack.ambient_c

    def _validate_maps(self, power_maps: np.ndarray) -> np.ndarray:
        expected = (self.stack.n_layers, self.ny, self.nx)
        power_maps = np.asarray(power_maps, dtype=float)
        if power_maps.shape[-3:] != expected:
            raise ValueError(
                f"power map shape {power_maps.shape} != (..., {expected})"
            )
        # NaN compares False against everything, so one non-finite cell
        # would pass the sign test and spread through the whole solve.
        if not np.isfinite(power_maps).all():
            raise ValueError("power must be finite")
        if np.any(power_maps < 0):
            raise ValueError("power must be non-negative")
        return power_maps

    def _field(self, temps: np.ndarray) -> TemperatureField:
        shape = (self.stack.n_layers, self.ny, self.nx)
        return TemperatureField(
            celsius=temps.reshape(shape),
            layer_names=tuple(l.name for l in self.stack.layers),
        )

    def solve(self, power_maps: np.ndarray) -> TemperatureField:
        """Solve for temperatures given per-layer power maps.

        *power_maps* has shape ``(n_layers, ny, nx)`` in watts per cell.
        The first call factorizes the conductance matrix; repeat calls
        reuse the factorization and only back-substitute.
        """
        power_maps = self._validate_maps(power_maps)
        if power_maps.ndim != 3:
            raise ValueError(
                f"solve expects one power map, got shape {power_maps.shape}; "
                "use solve_many for batches"
            )
        with obs_trace.span("thermal.solve", cells=self.n_cells), \
                obs_metrics.timed("thermal.solve_seconds"):
            factor = self._ensure_factor()
            field = self._field(factor.solve(self._rhs(power_maps)))
        obs_metrics.inc("thermal.solves")
        obs_metrics.inc("thermal.solved_maps")
        return field

    def _substitute_many(self, solve, rhs_rows: np.ndarray) -> np.ndarray:
        """Back/forward-substitute k stacked right-hand sides.

        *rhs_rows* is ``(k, n)`` row-major; the block is transposed into
        the ``(n, k)`` column layout SuperLU consumes, substituted in
        one call, and returned as contiguous ``(k, n)`` rows. SuperLU
        solves the columns independently, so each row is bit-identical
        to a single-vector :meth:`solve`-style substitution.
        """
        temps = solve(np.ascontiguousarray(rhs_rows.T))
        return np.ascontiguousarray(temps.T)

    def solve_batch(self, power_maps_batch: np.ndarray) -> TemperatureFieldBatch:
        """Solve a whole batch of power maps against one factorization.

        *power_maps_batch* has shape ``(k, n_layers, ny, nx)``; the k
        right-hand sides are back-substituted as one multi-RHS block,
        which is substantially faster than k sequential :meth:`solve`
        calls, and land in one contiguous
        :class:`TemperatureFieldBatch` tensor.
        """
        batch = self._validate_maps(power_maps_batch)
        if batch.ndim != 4:
            raise ValueError(
                f"solve_batch expects shape (k, n_layers, ny, nx), "
                f"got {batch.shape}"
            )
        k = batch.shape[0]
        shape = (k, self.stack.n_layers, self.ny, self.nx)
        if k == 0:
            return TemperatureFieldBatch(
                celsius=np.empty(shape),
                layer_names=tuple(l.name for l in self.stack.layers),
            )
        with obs_trace.span(
            "thermal.solve_many", cells=self.n_cells, maps=k
        ), obs_metrics.timed("thermal.solve_seconds"):
            factor = self._ensure_factor()
            temps = self._substitute_many(factor.solve, self._rhs(batch))
            fields = TemperatureFieldBatch(
                celsius=temps.reshape(shape),
                layer_names=tuple(l.name for l in self.stack.layers),
            )
        obs_metrics.inc("thermal.solves")
        obs_metrics.inc("thermal.solved_maps", k)
        return fields

    def solve_many(self, power_maps_batch: np.ndarray) -> list[TemperatureField]:
        """List-of-fields veneer over :meth:`solve_batch` (the multi-RHS
        path); kept for callers that want standalone per-map fields."""
        return self.solve_batch(power_maps_batch).fields()

    # ------------------------------------------------------------------
    # Transient stepping (implicit backward Euler)
    # ------------------------------------------------------------------
    def capacitance(self) -> np.ndarray:
        """Per-cell heat capacity, J/K, ordered like the unknown vector."""
        plane = self.ny * self.nx
        return np.concatenate([
            np.full(
                plane,
                layer.volumetric_heat_capacity
                * layer.thickness_m
                * self.cell_area,
            )
            for layer in self.stack.layers
        ])

    def _transient_system(self, dt: float):
        """The step operator ``C/dt + G`` (sparse) and the ``C/dt``
        vector for one step size."""
        matrix, _ = self._ensure_system()
        c_over_dt = self.capacitance() / dt
        return (matrix + diags(c_over_dt)).tocsc(), c_over_dt

    def _ensure_transient_factor(self, dt: float):
        """Cached splu factorization of ``C/dt + G``, keyed by dt.

        The operator is SPD for every valid stack and ``dt > 0``, so
        the factorization takes a symmetric minimum-degree ordering of
        ``A + A^T`` and keeps the diagonal pivots (no row interchanges
        are ever needed). Left to its defaults, ``splu`` would order
        the columns by COLAMD with threshold pivoting, which roughly
        doubles the L+U fill and with it the cost of every step.
        """
        entry = self._transient.get(dt)
        if entry is None:
            operator, c_over_dt = self._transient_system(dt)
            factor = splu(
                operator,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            entry = (factor, c_over_dt)
            self._transient[dt] = entry
            obs_metrics.inc("thermal.transient_factorizations")
        return entry

    def _stepper(self, dt: float, engine: str):
        """``(solve, C/dt)`` for one step size: *solve* maps a step's
        right-hand side(s) to the new temperatures, by substitution
        against the cached factor (``"factored"``) or by a fresh
        ``spsolve`` of the raw operator (``"oracle"``)."""
        if engine == "oracle":
            operator, c_over_dt = self._transient_system(dt)
            return partial(spsolve, operator), c_over_dt
        factor, c_over_dt = self._ensure_transient_factor(dt)
        return factor.solve, c_over_dt

    def _validate_step(
        self, temps: np.ndarray, power_maps: np.ndarray, dt: float,
        engine: str, ndim: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        check_engine(engine, STEP_ENGINES, "step")
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        power_maps = self._validate_maps(power_maps)
        temps = np.asarray(temps, dtype=float)
        if temps.shape != power_maps.shape or power_maps.ndim != ndim:
            raise ValueError(
                f"temps shape {temps.shape} and power shape "
                f"{power_maps.shape} must both be "
                f"{'(n_layers, ny, nx)' if ndim == 3 else '(s, n_layers, ny, nx)'}"
            )
        if not np.isfinite(temps).all():
            raise ValueError("temperatures must be finite")
        return temps, power_maps

    def step_transient(
        self,
        temps: np.ndarray,
        power_maps: np.ndarray,
        dt: float,
        engine: str = "factored",
    ) -> np.ndarray:
        """Advance one backward-Euler step of *dt* seconds.

        *temps* and *power_maps* are both ``(n_layers, ny, nx)`` —
        current cell temperatures (Celsius) and the power applied over
        the step (watts per cell); returns the new temperature array.
        ``engine="factored"`` (default) substitutes against the cached
        ``C/dt + G`` factorization; ``engine="oracle"`` rebuilds and
        solves the system from scratch every call — the per-step
        correctness reference and the refactorize-per-step baseline the
        perf gate measures against. Multi-step integration goes through
        :meth:`repro.thermal.transient.TransientSolver.hold`, which
        validates once and then only substitutes.
        """
        dt = float(dt)
        temps, power_maps = self._validate_step(
            temps, power_maps, dt, engine, ndim=3
        )
        solve, c_over_dt = self._stepper(dt, engine)
        new = solve(c_over_dt * temps.ravel() + self._rhs(power_maps))
        return new.reshape(temps.shape)

    def step_transient_many(
        self,
        temps: np.ndarray,
        power_maps: np.ndarray,
        dt: float,
        engine: str = "factored",
    ) -> np.ndarray:
        """Advance S independent scenarios one step in lockstep.

        *temps* and *power_maps* are ``(s, n_layers, ny, nx)``; the S
        right-hand sides go through the factorization as one multi-RHS
        substitution, bit-identical per scenario to S sequential
        :meth:`step_transient` calls (SuperLU substitutes the columns
        independently).
        """
        dt = float(dt)
        temps, power_maps = self._validate_step(
            temps, power_maps, dt, engine, ndim=4
        )
        s = temps.shape[0]
        if s == 0:
            return temps.copy()
        solve, c_over_dt = self._stepper(dt, engine)
        rows = c_over_dt * temps.reshape(s, -1) + self._rhs(power_maps)
        if engine == "oracle":
            new = np.stack([solve(row) for row in rows])
        else:
            new = self._substitute_many(solve, rows)
        return new.reshape(temps.shape)
