"""Asyncio evaluation service: the serving front-end.

:class:`EvalService` accepts single-point evaluate, small-sweep,
experiment and trace-simulation requests and answers them through three
paths, cheapest first:

1. **Inline cache hit** — the request's exact answer already sits in
   the shared :class:`~repro.perf.evalcache.EvalCache` /
   :class:`SimCache` (or the service's experiment memo): answered on
   the event loop with no worker round-trip. Ordering still holds: the
   hit routes through the batcher core's per-stream release buffer.
2. **Coalesced tensor slab** — misses queue in the deterministic
   :class:`~repro.serve.batcher.BatcherCore`; the dispatcher drains up
   to the adaptive batch limit, merges compatible requests (points
   into a union grid under a waste cap, same-space sweeps into one
   profile batch), CU-slab-splits large grids, and routes the slabs
   through :class:`~repro.perf.pool.ShardedPool`'s affinity scheduler
   — the same ``(batch fingerprint, slab index)`` shard keys
   :func:`repro.perf.parallel.parallel_explore` uses, so the serving
   path warms the same per-worker caches the bulk path owns.
3. **Degraded single-point/solo** — a request that cannot coalesce
   (unique space, no pool, or a union that would waste more tensor
   cells than the cap allows) is evaluated as its own grid call inside
   the batch.

All three paths produce **bit-identical** answers to a direct serial
``evaluate_grid``/``explore`` call on the same request, because every
path evaluates through the same fused tensor kernel and grid
composition is bit-exact along the profile and CU axes (the PR-6
slab identity, extended here to union grids — gated by
``check_serve`` and ``tests/test_serve.py``).

Backpressure and deadlines are the core's job (bounded queue,
admission-time shed, dispatch-time expiry); this module feeds it the
real clock and executes its planned batches on a single worker thread
(``pool.run`` is blocking and non-reentrant).

Observability: ``serve.*`` counters and timing histograms in the
process registry (the adaptive policy reads them back), plus rolling
``serve.slo.*`` health gauges (:class:`~repro.obs.slo.SloTracker`:
window latency quantiles, shed/error rates, error-budget burn), and a
``serve`` section in run manifests while the service is open. When a
tracer is active every request gets a :class:`~repro.obs.trace.
SpanContext` at admission; its queue wait is recorded as a child span
at dispatch, a batch serving exactly one request parents its
``serve.batch`` span under that request (a multi-request batch links
the coalesced request span ids in its args), and the batch's pool
tasks ship child contexts to the workers — one request renders as one
connected admit → queue → batch → worker-slab span tree. An optional
:class:`~repro.obs.export.PeriodicSampler` runs as an asyncio task
while the service is open, streaming interval metric diffs to JSONL.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.config import DesignSpace
from repro.core.dse import DseResult, select_optima
from repro.core.node import GridEvaluation, NodeModel
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import PeriodicSampler
from repro.obs.slo import SloTracker
from repro.perf.evalcache import (
    EvalCache,
    SimCache,
    _digest,
    default_cache,
    default_sim_cache,
    evaluate_grid_cached,
    fingerprint_batch,
    fingerprint_model,
    fingerprint_profile,
    simulate_trace_cached,
)
from repro.perf.pool import PoolTask, ShardedPool, _picklable_exception
from repro.serve.adaptive import AdaptiveBatchPolicy
from repro.serve.batcher import BatcherCore, Outcome, PlannedBatch, Ticket
from repro.serve.requests import (
    FAILED,
    OK,
    SHUTDOWN,
    ExperimentRequest,
    PointRequest,
    PointResult,
    ServeResponse,
    SimulateRequest,
    SweepRequest,
)
from repro.workloads.kernels import KernelProfile, ProfileBatch

__all__ = ["EvalService", "serial_answer"]


# ----------------------------------------------------------------------
# Worker-side task functions (module-level: picklable for the pool).
# Every serve task returns ("ok", payload) / ("err", exception) instead
# of raising, so one bad request fails alone rather than aborting the
# whole pool.run batch.
# ----------------------------------------------------------------------
def _serve_eval_slab(model, batch, space, cu_lo, cu_hi):
    """One CU slab of a serve grid unit: ``(performance, power)``
    columns, bit-identical to the whole grid's."""
    try:
        grid = evaluate_grid_cached(model, batch, space, cu_lo, cu_hi)
        return ("ok", (grid.performance, grid.power))
    except BaseException as exc:  # contained per-unit
        return ("err", _picklable_exception(exc))


def _serve_run_experiment(name):
    """One registered paper artifact (lazy import: the registry pulls
    in every experiment module)."""
    try:
        from repro.experiments.registry import EXPERIMENTS

        return ("ok", EXPERIMENTS[name]())
    except BaseException as exc:
        return ("err", _picklable_exception(exc))


def _serve_simulate(trace, config):
    """One SimCache-fronted trace simulation."""
    try:
        return ("ok", simulate_trace_cached(trace, config=config))
    except BaseException as exc:
        return ("err", _picklable_exception(exc))


# ----------------------------------------------------------------------
# Batch planning: tickets -> execution units
# ----------------------------------------------------------------------
@dataclass
class _GridUnit:
    """One merged ``evaluate_grid`` call and how to carve it back up."""

    tickets: list[Ticket]
    batch: ProfileBatch
    space: DesignSpace
    rows_of: Mapping[int, tuple[int, ...]]  # ticket.seq -> batch rows
    col_of: Mapping[int, int]  # ticket.seq -> flat grid column (points)
    coalesced: bool


def _point_units(
    tickets: Sequence[Ticket], waste_factor: float
) -> list[_GridUnit]:
    """Greedy union grouping of point requests under a waste cap.

    Each group's union grid evaluates ``P x (C*F*B)`` cells for
    ``len(group)`` requested cells; a ticket joins the first group (in
    creation order) whose union stays within ``waste_factor x
    requests``, else opens a new one. Deterministic: tickets arrive in
    seq order and groups are probed in creation order.
    """
    groups: list[dict] = []
    for ticket in tickets:
        req: PointRequest = ticket.request
        fp = fingerprint_profile(req.profile)
        placed = False
        for g in groups:
            cus = g["cus"] | {int(req.n_cus)}
            freqs = g["freqs"] | {float(req.gpu_freq)}
            bws = g["bws"] | {float(req.bandwidth)}
            profs = set(g["profiles"]) | {fp}
            cells = len(profs) * len(cus) * len(freqs) * len(bws)
            name_clash = any(
                p.name == req.profile.name and pfp != fp
                for pfp, p in g["profiles"].items()
            )
            if name_clash or cells > waste_factor * (len(g["tickets"]) + 1):
                continue
            g["cus"], g["freqs"], g["bws"] = cus, freqs, bws
            g["profiles"].setdefault(fp, req.profile)
            g["tickets"].append(ticket)
            placed = True
            break
        if not placed:
            groups.append(
                {
                    "cus": {int(req.n_cus)},
                    "freqs": {float(req.gpu_freq)},
                    "bws": {float(req.bandwidth)},
                    "profiles": {fp: req.profile},
                    "tickets": [ticket],
                }
            )

    units = []
    for g in groups:
        cus = tuple(sorted(g["cus"]))
        freqs = tuple(sorted(g["freqs"]))
        bws = tuple(sorted(g["bws"]))
        space = DesignSpace(
            cu_counts=cus, frequencies=freqs, bandwidths=bws
        )
        row_index = {fp: i for i, fp in enumerate(g["profiles"])}
        batch = ProfileBatch.from_profiles(list(g["profiles"].values()))
        rows_of, col_of = {}, {}
        n_f, n_b = len(freqs), len(bws)
        for ticket in g["tickets"]:
            req = ticket.request
            fp = fingerprint_profile(req.profile)
            rows_of[ticket.seq] = (row_index[fp],)
            col_of[ticket.seq] = (
                cus.index(int(req.n_cus)) * n_f * n_b
                + freqs.index(float(req.gpu_freq)) * n_b
                + bws.index(float(req.bandwidth))
            )
        units.append(
            _GridUnit(
                tickets=g["tickets"],
                batch=batch,
                space=space,
                rows_of=rows_of,
                col_of=col_of,
                coalesced=len(g["tickets"]) > 1,
            )
        )
    return units


def _sweep_units(tickets: Sequence[Ticket]) -> list[_GridUnit]:
    """Merge same-space sweeps into one profile batch (dedup by
    fingerprint; a profile-name clash between different profiles opens
    a new unit)."""
    groups: list[dict] = []
    for ticket in tickets:
        req: SweepRequest = ticket.request
        fps = [fingerprint_profile(p) for p in req.profiles]
        placed = False
        for g in groups:
            clash = any(
                p.name == prof.name and pfp != fp
                for prof, fp in zip(req.profiles, fps)
                for pfp, p in g["profiles"].items()
            )
            if clash:
                continue
            for prof, fp in zip(req.profiles, fps):
                g["profiles"].setdefault(fp, prof)
            g["tickets"].append(ticket)
            placed = True
            break
        if not placed:
            groups.append(
                {
                    "space": req.space,
                    "profiles": dict(zip(fps, req.profiles)),
                    "tickets": [ticket],
                }
            )

    units = []
    for g in groups:
        row_index = {fp: i for i, fp in enumerate(g["profiles"])}
        batch = ProfileBatch.from_profiles(list(g["profiles"].values()))
        rows_of = {}
        for ticket in g["tickets"]:
            req = ticket.request
            rows_of[ticket.seq] = tuple(
                row_index[fingerprint_profile(p)] for p in req.profiles
            )
        units.append(
            _GridUnit(
                tickets=g["tickets"],
                batch=batch,
                space=g["space"],
                rows_of=rows_of,
                col_of={},
                coalesced=len(g["tickets"]) > 1,
            )
        )
    return units


def _singleton_grid(
    profile: KernelProfile, space: DesignSpace, perf: float, power: float
) -> GridEvaluation:
    """A 1x1 GridEvaluation for seeding the cache with one extracted
    point (bit-identical to evaluating the singleton space directly)."""
    p = np.array([[perf]], dtype=float)
    w = np.array([[power]], dtype=float)
    return GridEvaluation(
        names=(profile.name,),
        space=space,
        performance=p,
        power=w,
        feasible=w <= space.power_budget,
    )


def serial_answer(request, model: NodeModel | None = None):
    """The oracle: answer *request* with a direct serial evaluation.

    Point requests evaluate their singleton grid through
    ``NodeModel.evaluate_grid`` (the tensor engine, matching
    ``explore``'s default); sweeps run ``select_optima`` on the grid;
    experiments call their registered function; simulations run the
    simulator directly. The equivalence tests compare every served
    response against this, bit for bit.
    """
    model = model or NodeModel()
    if isinstance(request, PointRequest):
        space = request.to_space()
        grid = model.evaluate_grid([request.profile], space)
        return PointResult(
            performance=float(grid.performance[0, 0]),
            node_power=float(grid.power[0, 0]),
            feasible=bool(grid.feasible[0, 0]),
        )
    if isinstance(request, SweepRequest):
        grid = model.evaluate_grid(list(request.profiles), request.space)
        performance = {n: grid.performance[i] for i, n in enumerate(grid.names)}
        power = {n: grid.power[i] for i, n in enumerate(grid.names)}
        feasible = {n: grid.feasible[i] for i, n in enumerate(grid.names)}
        return select_optima(request.space, performance, power, feasible)
    if isinstance(request, ExperimentRequest):
        from repro.experiments.registry import EXPERIMENTS

        return EXPERIMENTS[request.name]()
    if isinstance(request, SimulateRequest):
        from repro.sim.apu_sim import ApuSimulator

        return ApuSimulator(request.config).run(request.trace)
    raise TypeError(f"unknown request type {type(request).__name__}")


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class EvalService:
    """Async front-end over the tensor engine, pool and caches.

    Parameters
    ----------
    model:
        The :class:`NodeModel` every evaluation uses (one service, one
        model — matching the pool's cache-affinity assumption).
    pool:
        Optional :class:`~repro.perf.pool.ShardedPool`. ``None``
        evaluates batches inline on the service's worker thread (still
        batched, coalesced and cache-fronted — just no slab fan-out).
    cache / sim_cache:
        Shared caches probed inline; default to the process-wide ones
        so the service sees sweeps other code already paid for.
    policy:
        Batch sizing policy; default is an
        :class:`~repro.serve.adaptive.AdaptiveBatchPolicy` over the
        process metrics registry.
    max_queue:
        Backpressure bound on queued requests.
    batch_window_s:
        How long the dispatcher waits after waking before planning, so
        concurrent arrivals can coalesce. Zero dispatches immediately.
    union_waste_factor:
        Cap on union-grid waste when coalescing points: a union may
        evaluate at most this many tensor cells per requested cell.
    slab_min_points:
        Minimum ``P x G`` cells before a grid unit is CU-slab-split
        across the pool (smaller units run as one task).
    clock:
        Injected monotonic clock (tests use a fake one).
    slo:
        Rolling-window health tracker; defaults to an
        :class:`~repro.obs.slo.SloTracker` on the service clock. Every
        drained outcome is recorded and the derived signals published
        as ``serve.slo.*`` gauges and in the manifest section.
    sampler:
        Optional :class:`~repro.obs.export.PeriodicSampler`; while the
        service is open it runs as an asyncio task streaming interval
        metric diffs (the caller owns ``stop()``).
    thermal_monitor:
        Optional :class:`~repro.thermal.transient.ThermalMonitor`.
        When given, every outcome drain opportunistically advances the
        simulated package up to the service clock (the monitor bounds
        its own catch-up work), so a serving process publishes live
        ``thermal.peak_c`` / ``thermal.dram_peak_c`` gauges alongside
        its SLO health, and ``stats()`` reports the simulated DRAM
        peak.
    """

    def __init__(
        self,
        *,
        model: NodeModel | None = None,
        pool: ShardedPool | None = None,
        cache: EvalCache | None = None,
        sim_cache: SimCache | None = None,
        policy: AdaptiveBatchPolicy | None = None,
        max_queue: int = 1024,
        batch_window_s: float = 0.002,
        union_waste_factor: float = 8.0,
        slab_min_points: int = 2048,
        clock=time.monotonic,
        manifest_name: str = "serve",
        slo: SloTracker | None = None,
        sampler: PeriodicSampler | None = None,
        thermal_monitor=None,
    ):
        self.model = model or NodeModel()
        self.pool = pool
        self.cache = cache if cache is not None else default_cache()
        self.sim_cache = (
            sim_cache if sim_cache is not None else default_sim_cache()
        )
        self.policy = policy if policy is not None else AdaptiveBatchPolicy()
        self.batch_window_s = float(batch_window_s)
        self.union_waste_factor = float(union_waste_factor)
        self.slab_min_points = int(slab_min_points)
        self.clock = clock
        self.manifest_name = manifest_name
        self.slo = slo if slo is not None else SloTracker(clock=clock)
        self.slo_publish_interval_s = 0.05
        self._slo_published_at = float("-inf")
        self.sampler = sampler
        self.thermal_monitor = thermal_monitor
        self._sampler_task: asyncio.Task | None = None
        # seq -> (request SpanContext, tracer-clock admit reading);
        # consumed at batch execution (queue-wait span) or outcome
        # drain (shed/expired/inline), whichever comes first.
        self._req_traces: dict[int, tuple] = {}
        self.core = BatcherCore(self.policy, max_queue=max_queue)
        self._model_fp = fingerprint_model(self.model)
        self._experiment_memo: dict[str, Any] = {}
        # Request-template -> EvalCache grid key. Fingerprinting a
        # batch dominates a warm inline hit, so the key is computed
        # once per template. Memo keys use object ids; the value pins
        # the objects so an id is never recycled under us.
        self._grid_key_memo: dict[tuple, tuple[Any, tuple]] = {}
        self._futures: dict[int, asyncio.Future] = {}
        self._wake: asyncio.Event | None = None
        self._close_event: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._closing = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EvalService":
        """Start the dispatcher; idempotent."""
        if self._started:
            return self
        self._started = True
        self._closing = False
        self._wake = asyncio.Event()
        self._close_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        if self.sampler is not None:
            self._sampler_task = asyncio.get_running_loop().create_task(
                self.sampler.run_async(), name="repro-serve-sampler"
            )
        obs_manifest.register_section(
            self.manifest_name, self.manifest_section
        )
        return self

    async def aclose(self) -> None:
        """Drain and stop: in-flight batches finish, queued requests
        resolve with :data:`SHUTDOWN`, and new submissions are refused."""
        if not self._started:
            return
        self._closing = True
        self._wake.set()
        self._close_event.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        self.core.flush(self.clock())
        self._drain_outcomes()
        # Anything still unresolved (shouldn't happen) fails loudly.
        for seq, future in list(self._futures.items()):
            if not future.done():
                future.set_result(
                    ServeResponse(status=SHUTDOWN, completed_at=self.clock())
                )
            del self._futures[seq]
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass
            self._sampler_task = None
        obs_manifest.unregister_section(self.manifest_name)
        self._started = False

    async def __aenter__(self) -> "EvalService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    async def evaluate(
        self, profile: KernelProfile, n_cus: int, gpu_freq: float,
        bandwidth: float, **kwargs,
    ) -> ServeResponse:
        """Submit one :class:`PointRequest`."""
        return await self.submit(
            PointRequest(profile, n_cus, gpu_freq, bandwidth, **kwargs)
        )

    async def sweep(
        self, profiles: Sequence[KernelProfile], space: DesignSpace, **kwargs
    ) -> ServeResponse:
        """Submit one :class:`SweepRequest`."""
        return await self.submit(
            SweepRequest(tuple(profiles), space, **kwargs)
        )

    async def experiment(self, name: str, **kwargs) -> ServeResponse:
        """Submit one :class:`ExperimentRequest`."""
        return await self.submit(ExperimentRequest(name, **kwargs))

    async def simulate(self, trace, config=None, **kwargs) -> ServeResponse:
        """Submit one :class:`SimulateRequest`."""
        return await self.submit(SimulateRequest(trace, config, **kwargs))

    async def submit(self, request) -> ServeResponse:
        """Admit one request and await its terminal response."""
        if not self._started or self._closing:
            now = self.clock()
            return ServeResponse(
                status=SHUTDOWN, admitted_at=now, completed_at=now
            )
        kind = type(request).__name__
        obs_metrics.inc("serve.requests")
        tracer = obs_trace.active_tracer()
        # Explicitly a child of the root: concurrent submits interleave
        # on the event-loop thread, so the thread-local "current span"
        # could be another request's still-open span.
        req_ctx = (
            tracer.child_context(parent=tracer.root)
            if tracer is not None
            else None
        )
        with obs_trace.span(
            f"serve.{kind}", cat="serve", context=req_ctx,
            stream=request.stream,
        ):
            now = self.clock()
            try:
                inline = self._peek_inline(request)
            except BaseException:
                # An inline answer that fails to assemble (e.g. a sweep
                # with no feasible point) takes the batch path, which
                # reports the failure as a proper FAILED response.
                inline = None
            if inline is not None:
                obs_metrics.inc("serve.inline_hits")
                ticket = self.core.admit_completed(
                    request, inline, now, stream=request.stream
                )
            else:
                group_key = self._group_key(request)
                ticket = self.core.admit(
                    request,
                    now,
                    stream=request.stream,
                    deadline_s=request.deadline_s,
                    group_key=group_key,
                )
                if tracer is not None:
                    self._req_traces[ticket.seq] = (req_ctx, tracer.now())
            future = asyncio.get_running_loop().create_future()
            self._futures[ticket.seq] = future
            self._drain_outcomes()
            self._wake.set()
            return await future

    # ------------------------------------------------------------------
    # Inline cache path
    # ------------------------------------------------------------------
    def _request_grid_key(self, request) -> tuple:
        """The EvalCache key of the request's grid, memoized per
        template (same profile/space objects -> no re-fingerprinting)."""
        if isinstance(request, PointRequest):
            memo_key = (
                "point", id(request.profile), request.n_cus,
                request.gpu_freq, request.bandwidth,
                request.power_budget,
            )
            pin = request.profile
        else:  # SweepRequest
            memo_key = (
                "sweep", tuple(map(id, request.profiles)),
                id(request.space),
            )
            pin = (request.profiles, request.space)
        entry = self._grid_key_memo.get(memo_key)
        if entry is not None:
            return entry[1]
        if isinstance(request, PointRequest):
            key = self.cache.grid_key(
                self.model, [request.profile], request.to_space()
            )
        else:
            key = self.cache.grid_key(
                self.model, list(request.profiles), request.space
            )
        if len(self._grid_key_memo) >= 8192:
            self._grid_key_memo.clear()
        self._grid_key_memo[memo_key] = (pin, key)
        return key

    def _peek_inline(self, request) -> Any | None:
        """The request's answer if it is already cached, else None."""
        if isinstance(request, PointRequest):
            grid = self.cache.peek_grid_key(self._request_grid_key(request))
            if grid is None:
                return None
            return PointResult(
                performance=float(grid.performance[0, 0]),
                node_power=float(grid.power[0, 0]),
                feasible=bool(grid.feasible[0, 0]),
            )
        if isinstance(request, SweepRequest):
            grid = self.cache.peek_grid_key(self._request_grid_key(request))
            if grid is None:
                return None
            return _optima_from_grid(grid, request.space)
        if isinstance(request, ExperimentRequest):
            return self._experiment_memo.get(request.name)
        if isinstance(request, SimulateRequest):
            return self.sim_cache.peek_run(request.trace, request.config)
        return None

    def _group_key(self, request) -> Any:
        if isinstance(request, PointRequest):
            return ("points", self._model_fp)
        if isinstance(request, SweepRequest):
            return ("sweep", self._model_fp, _digest(repr(request.space)))
        return None  # experiments / simulations run solo

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if self._closing:
                # Finish nothing new: aclose() flushes what's queued.
                return
            if self.core.depth() == 0:
                await self._wake.wait()
                self._wake.clear()
                continue
            if self.batch_window_s > 0:
                # Interruptible coalescing window: aclose() must not
                # have to wait a full window out.
                try:
                    await asyncio.wait_for(
                        self._close_event.wait(), self.batch_window_s
                    )
                except asyncio.TimeoutError:
                    pass
                if self._closing:
                    return
            planned = self.core.plan(self.clock())
            self._drain_outcomes()
            if planned is None:
                continue
            started = self.clock()
            try:
                results = await loop.run_in_executor(
                    self._executor, self._execute_batch, planned
                )
            except BaseException as exc:
                status = (
                    SHUTDOWN
                    if isinstance(exc, RuntimeError)
                    and "shut down" in str(exc)
                    else FAILED
                )
                results = {
                    t.seq: (status, _picklable_exception(exc))
                    for t in planned.tickets
                }
            now = self.clock()
            n = len(planned.tickets)
            obs_metrics.observe("serve.batch_seconds", now - started)
            obs_metrics.inc("serve.batch_requests", n)
            obs_metrics.inc("serve.batches")
            self.policy.refresh()
            self.core.complete(planned.batch_id, results, now)
            self._drain_outcomes()

    def _drain_outcomes(self) -> None:
        """Resolve awaiting futures from the core's released outcomes."""
        drained = 0
        for outcome in self.core.poll_outcomes():
            seq = outcome.ticket.seq
            self._req_traces.pop(seq, None)
            future = self._futures.pop(seq, None)
            response = _response_from(outcome)
            if response.status != OK:
                obs_metrics.inc(f"serve.{response.status}")
            obs_metrics.observe(
                "serve.request_latency_seconds", response.latency_s
            )
            self.slo.record(response.latency_s, response.status)
            drained += 1
            if future is not None and not future.done():
                future.set_result(response)
        if drained:
            # Publication (rolling quantiles + gauge writes) is far
            # heavier than recording, so it is throttled: the health
            # gauges only need to be fresh on a human timescale.
            now = self.clock()
            if now - self._slo_published_at >= self.slo_publish_interval_s:
                self._slo_published_at = now
                self.slo.publish()
                if self.thermal_monitor is not None:
                    self.thermal_monitor.advance(now)

    # ------------------------------------------------------------------
    # Batch execution (worker thread)
    # ------------------------------------------------------------------
    def _execute_batch(
        self, planned: PlannedBatch
    ) -> dict[int, tuple[str, Any]]:
        """Evaluate one planned batch; returns seq -> (status, payload).

        Runs on the service's single worker thread: plans execution
        units, fans grid units out over the pool as CU slabs (or runs
        them inline), and carves per-request answers back out of the
        merged tensors.
        """
        tracer = obs_trace.active_tracer()
        batch_parent = None
        span_args: dict[str, Any] = {
            "requests": len(planned.tickets),
            "groups": len(planned.groups),
        }
        if tracer is not None:
            now_raw = tracer.now()
            req_ctxs = []
            for ticket in planned.tickets:
                entry = self._req_traces.pop(ticket.seq, None)
                if entry is None:
                    continue
                ctx, admitted = entry
                req_ctxs.append(ctx)
                # Queue wait (admission to dispatch, including the
                # coalescing window) as a child of the request span.
                tracer.record_span(
                    "serve.queue_wait", admitted, now_raw,
                    cat="serve", parent=ctx, seq=ticket.seq,
                )
            if len(req_ctxs) == 1:
                # A batch serving exactly one request is that request's
                # child: admit -> queue -> batch -> worker slabs render
                # as one connected flame.
                batch_parent = req_ctxs[0]
            elif req_ctxs:
                span_args["request_spans"] = [
                    c.span_id for c in req_ctxs
                ]
        with obs_trace.span(
            "serve.batch", cat="serve", parent=batch_parent, **span_args
        ):
            return self._execute_batch_inner(planned)

    def _execute_batch_inner(
        self, planned: PlannedBatch
    ) -> dict[int, tuple[str, Any]]:
        results: dict[int, tuple[str, Any]] = {}
        grid_units: list[_GridUnit] = []
        solo_tickets: list[Ticket] = []

        for key, tickets in planned.groups.items():
            kind = key[0] if isinstance(key, tuple) and key else None
            try:
                if kind == "points":
                    grid_units.extend(
                        _point_units(tickets, self.union_waste_factor)
                    )
                elif kind == "sweep":
                    grid_units.extend(_sweep_units(tickets))
                else:
                    solo_tickets.extend(tickets)
            except BaseException as exc:
                for t in tickets:
                    results[t.seq] = (FAILED, exc)

        tasks: list[PoolTask] = []
        task_slots: list[tuple[str, Any, int]] = []  # (kind, unit/ticket, part)
        inline_units: list[_GridUnit] = []
        unit_slabs: dict[int, list] = {}

        for ui, unit in enumerate(grid_units):
            n_cells = len(unit.batch) * unit.space.size
            n_cu = len(unit.space.cu_counts)
            if (
                self.pool is not None
                and n_cells >= self.slab_min_points
                and n_cu > 1
            ):
                batch_fp = fingerprint_batch(unit.batch)
                n_slabs = min(self.pool.n_shards, n_cu)
                bounds = np.linspace(0, n_cu, n_slabs + 1).astype(int)
                slabs = [
                    (int(lo), int(hi))
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                    if hi > lo
                ]
                unit_slabs[ui] = slabs
                for si, (lo, hi) in enumerate(slabs):
                    dedup = _digest(
                        repr(
                            (
                                "serve-slab",
                                self._model_fp,
                                batch_fp,
                                repr(unit.space),
                                lo,
                                hi,
                            )
                        )
                    )
                    tasks.append(
                        PoolTask(
                            fn=_serve_eval_slab,
                            args=(self.model, unit.batch, unit.space, lo, hi),
                            shard_key=(batch_fp, si),
                            dedup_key=dedup,
                            label=f"serve-slab-{ui}-{si}",
                        )
                    )
                    task_slots.append(("slab", ui, si))
            elif self.pool is not None:
                tasks.append(
                    PoolTask(
                        fn=_serve_eval_slab,
                        args=(self.model, unit.batch, unit.space, 0, None),
                        shard_key=(fingerprint_batch(unit.batch), 0),
                        label=f"serve-grid-{ui}",
                    )
                )
                task_slots.append(("grid", ui, 0))
            else:
                inline_units.append(unit)

        for ticket in solo_tickets:
            req = ticket.request
            if isinstance(req, ExperimentRequest):
                fn, args = _serve_run_experiment, (req.name,)
                shard_key = ("serve-exp", req.name)
            elif isinstance(req, SimulateRequest):
                fn, args = _serve_simulate, (req.trace, req.config)
                shard_key = ("serve-sim", ticket.seq)
            else:
                results[ticket.seq] = (
                    FAILED,
                    TypeError(
                        f"unknown request type {type(req).__name__}"
                    ),
                )
                continue
            if self.pool is not None:
                tasks.append(
                    PoolTask(
                        fn=fn, args=args, shard_key=shard_key,
                        label=f"serve-solo-{ticket.seq}",
                    )
                )
                task_slots.append(("solo", ticket, 0))
            else:
                outcome = fn(*args)
                self._finish_solo(ticket, outcome, results)

        if tasks:
            replies = self.pool.run(tasks)
            slab_parts: dict[int, dict[int, Any]] = {}
            for slot, reply in zip(task_slots, replies):
                kind, target, part = slot
                if kind == "solo":
                    self._finish_solo(target, reply, results)
                else:
                    slab_parts.setdefault(target, {})[part] = reply
            for ui, parts in slab_parts.items():
                unit = grid_units[ui]
                err = next(
                    (p[1] for p in parts.values() if p[0] == "err"), None
                )
                if err is not None:
                    for t in unit.tickets:
                        results[t.seq] = (FAILED, err)
                    continue
                ordered = [parts[i][1] for i in sorted(parts)]
                perf = np.concatenate([p[0] for p in ordered], axis=1)
                power = np.concatenate([p[1] for p in ordered], axis=1)
                grid = GridEvaluation(
                    names=tuple(unit.batch.names),
                    space=unit.space,
                    performance=perf,
                    power=power,
                    feasible=power <= unit.space.power_budget,
                )
                self._finish_grid_unit(unit, grid, results)

        for unit in inline_units:
            try:
                grid = self.cache.evaluate_grid(
                    self.model, unit.batch, unit.space
                )
            except BaseException as exc:
                for t in unit.tickets:
                    results[t.seq] = (FAILED, exc)
                continue
            self._finish_grid_unit(unit, grid, results)

        if self.pool is not None:
            obs_metrics.set_gauge(
                "serve.pool_worker_restarts",
                float(self.pool.stats().worker_restarts),
            )
        return results

    def _finish_solo(self, ticket: Ticket, reply, results) -> None:
        status, payload = reply
        if status == "ok":
            req = ticket.request
            if isinstance(req, ExperimentRequest):
                self._experiment_memo[req.name] = payload
            elif isinstance(req, SimulateRequest):
                # The worker computed (and worker-side cached) it; seed
                # the parent cache so repeats answer inline.
                self.sim_cache.seed_run(req.trace, payload, req.config)
            results[ticket.seq] = (OK, (payload, "solo"))
        else:
            results[ticket.seq] = (FAILED, payload)

    def _finish_grid_unit(
        self, unit: _GridUnit, grid: GridEvaluation, results
    ) -> None:
        """Carve per-request answers out of one evaluated grid unit and
        seed the cache so repeats hit inline."""
        path = "coalesced" if unit.coalesced else "degraded"
        for ticket in unit.tickets:
            req = ticket.request
            rows = unit.rows_of[ticket.seq]
            try:
                if isinstance(req, PointRequest):
                    col = unit.col_of[ticket.seq]
                    perf = float(grid.performance[rows[0], col])
                    power = float(grid.power[rows[0], col])
                    space = req.to_space()
                    feasible = bool(power <= space.power_budget)
                    value = PointResult(perf, power, feasible)
                    self.cache.seed_grid(
                        self.model,
                        [req.profile],
                        space,
                        _singleton_grid(req.profile, space, perf, power),
                    )
                else:  # SweepRequest
                    idx = np.asarray(rows, dtype=int)
                    sub = GridEvaluation(
                        names=tuple(p.name for p in req.profiles),
                        space=req.space,
                        performance=grid.performance[idx],
                        power=grid.power[idx],
                        feasible=grid.feasible[idx],
                    )
                    self.cache.seed_grid(
                        self.model, list(req.profiles), req.space, sub
                    )
                    value = _optima_from_grid(sub, req.space)
            except BaseException as exc:
                results[ticket.seq] = (FAILED, exc)
                continue
            results[ticket.seq] = (OK, (value, path))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Live serve counters plus the pool's restart count."""
        out = dict(self.core.stats)
        out["queue_depth"] = self.core.depth()
        out["inflight"] = self.core.inflight()
        out["batch_limit"] = self.policy.batch_limit()
        out["est_request_seconds"] = self.policy.est_request_seconds()
        if self.pool is not None:
            pool_stats = self.pool.stats()
            out["pool_worker_restarts"] = pool_stats.worker_restarts
            out["pool_tasks"] = pool_stats.tasks
            out["pool_steals"] = pool_stats.steals
        out["slo"] = self.slo.health()
        if self.thermal_monitor is not None:
            out["thermal_peak_c"] = self.thermal_monitor.peak_c
            out["thermal_dram_peak_c"] = self.thermal_monitor.layer_peak_c
        return out

    def manifest_section(self) -> dict:
        """The ``serve`` section run manifests embed while the service
        is open."""
        return self.stats()


def _response_from(outcome: Outcome) -> ServeResponse:
    """Translate one core outcome into the public response type."""
    return ServeResponse(
        status=outcome.status,
        value=outcome.value,
        error=outcome.error,
        path=outcome.path,
        batch_id=outcome.batch_id,
        admitted_at=outcome.ticket.admitted_at,
        completed_at=outcome.completed_at,
    )


def _optima_from_grid(grid: GridEvaluation, space: DesignSpace) -> DseResult:
    """``select_optima`` over one evaluated grid — the sweep answer."""
    performance = {n: grid.performance[i] for i, n in enumerate(grid.names)}
    power = {n: grid.power[i] for i, n in enumerate(grid.names)}
    feasible = {n: grid.feasible[i] for i, n in enumerate(grid.names)}
    return select_optima(space, performance, power, feasible)
