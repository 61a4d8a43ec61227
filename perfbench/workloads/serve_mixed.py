"""``serve-mixed``: seeded mixed traffic into ``EvalService`` over a
``ShardedPool``, as ``python -m repro serve`` serves it.

The benchmark generates its own requests from the public request types,
not from ``synthetic_arrivals``:

* points (85%) come from a design grid of 8 profiles x 41 CU counts x 21
  frequencies x 25 bandwidths (172,200 points, against the 32 Table I
  templates); half of them repeat a hot set of 16 points;
* sweeps (12%) are small random sub-grids over 1-3 profiles;
* simulate requests (3%) run one of 6 pre-built 2000-row traces on one of
  3 simulator configs.

Every batch of requests carries exactly these shares, in a seeded order.

Set-up imports the program, spawns the pool (at most ``nproc`` shards),
builds the traces and generates the traffic. A cold pass is a burst of
traffic (every request submitted at once) into a fresh service with
empty caches on a fresh pool (spawned outside the timer); its warm
passes are bursts of new traffic from the same generator into the same,
now warm, service and pool. Each burst's time is the time to answer all
of it. A round makes several cold passes.

With ``rated`` set, a second fresh service on a fresh pool takes
open-loop Poisson traffic: a warm-up from a different seed, then the
nominal rate, then a fixed ladder of rates, climbed until two steps in
a row fail. Each latency is timed from the request's due time, so a
stall is charged to every request queued behind it. The capacity is the
highest ladder rate whose p99 stays under ``P99_LIMIT_MS`` (below the
250 ms deadline) with at most 1% of requests unanswered and no growing
backlog.

Checks, outside the timed passes: every answer of a burst or of the
nominal-rate run is OK and equals ``serial_answer``; every OK answer on
the ladder equals it too (shedding above capacity is the measured
outcome there, not a failure).
"""

from __future__ import annotations

import asyncio
import os
import selectors
from time import perf_counter

CU_AXIS = tuple(range(64, 385, 8))
FREQ_AXIS = tuple(round(0.6e9 + 0.05e9 * i) * 1.0 for i in range(21))
BW_AXIS = tuple((1.0 + 0.25 * i) * 1e12 for i in range(25))
HOT_POINTS = 16
HOT_SHARE = 0.5
SWEEP_SHARE = 0.12
SIM_SHARE = 0.03
SIM_TRACES = 6
SIM_ROWS = 2000
SIM_CUS = (8, 16, 32)
STREAMS = 4
DEADLINE_S = 0.25

BURST = 500
COLD_PASSES = 2
WARM_PASSES = 1
WARMUP_REQUESTS = 300
NOMINAL_RPS = 200.0
NOMINAL_REQUESTS = 1000
LADDER_RPS = (200, 400, 600, 800, 1000, 1300, 1600, 2000, 2500, 3200)
LADDER_SECONDS = 0.5
P99_LIMIT_MS = 100.0
MAX_UNANSWERED = 0.01


class Traffic:
    """Seeded request generator; one hot set per seed."""

    def __init__(self, seed: int, traces):
        import numpy as np

        from repro.workloads.catalog import APPLICATIONS

        self.seed = seed
        self.profiles = list(APPLICATIONS.values())
        self.traces = traces
        rng = np.random.default_rng([seed, 30])
        self.hot = [self._point(rng) for _ in range(HOT_POINTS)]

    def _point(self, rng):
        return (
            int(rng.integers(len(self.profiles))),
            CU_AXIS[int(rng.integers(len(CU_AXIS)))],
            FREQ_AXIS[int(rng.integers(len(FREQ_AXIS)))],
            BW_AXIS[int(rng.integers(len(BW_AXIS)))],
        )

    def requests(self, stream: int, n: int, deadline_s):
        """*n* requests of sub-stream *stream*, with their repeat keys."""
        import numpy as np

        from repro.core.config import DesignSpace
        from repro.serve.requests import (
            PointRequest,
            SimulateRequest,
            SweepRequest,
        )
        from repro.sim.apu_sim import ApuSimConfig

        rng = np.random.default_rng([self.seed, 31, stream])
        # Exact shares, shuffled: every burst carries the same mix.
        n_sim = round(SIM_SHARE * n)
        n_sweep = round(SWEEP_SHARE * n)
        n_hot = round(HOT_SHARE * (n - n_sim - n_sweep))
        kinds = rng.permutation(
            ["sim"] * n_sim + ["sweep"] * n_sweep + ["hot"] * n_hot
            + ["fresh"] * (n - n_sim - n_sweep - n_hot)
        )
        out = []
        for i, kind in enumerate(kinds):
            tag = f"stream-{i % STREAMS}"
            if kind == "sim":
                t = int(rng.integers(len(self.traces)))
                cus = SIM_CUS[int(rng.integers(len(SIM_CUS)))]
                request = SimulateRequest(
                    self.traces[t], ApuSimConfig(n_cus=cus),
                    stream=tag, deadline_s=deadline_s,
                )
                key = ("sim", t, cus)
            elif kind == "sweep":
                count = int(rng.integers(1, 4))
                picks = sorted(
                    rng.choice(len(self.profiles), count, replace=False)
                )
                space = DesignSpace(
                    cu_counts=_sub_axis(rng, CU_AXIS, 3, int),
                    frequencies=_sub_axis(rng, FREQ_AXIS, 2, float),
                    bandwidths=_sub_axis(rng, BW_AXIS, 3, float),
                )
                request = SweepRequest(
                    tuple(self.profiles[int(p)] for p in picks), space,
                    stream=tag, deadline_s=deadline_s,
                )
                key = ("sweep", tuple(int(p) for p in picks), repr(space))
            else:
                if kind == "hot":
                    point = self.hot[int(rng.integers(len(self.hot)))]
                else:
                    point = self._point(rng)
                p, cus, freq, bw = point
                request = PointRequest(
                    self.profiles[p], cus, freq, bw,
                    stream=tag, deadline_s=deadline_s,
                )
                key = ("point",) + point
            out.append((key, request))
        return out


def _sub_axis(rng, axis, size: int, kind) -> tuple:
    """*size* distinct sorted values of *axis*, the first from its lowest
    third, so every sweep holds a point inside the power budget."""
    low = axis[int(rng.integers(len(axis) // 3))]
    rest = [v for v in axis if v != low]
    picks = rng.choice(len(rest), size - 1, replace=False)
    return tuple(sorted(kind(v) for v in [low] + [rest[int(i)] for i in picks]))


def repeat_share(keys) -> float:
    """Share of requests whose exact request came earlier in *keys*."""
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


class Oracle:
    """``serial_answer`` per distinct request, and exact comparison."""

    def __init__(self, model):
        self.model = model
        self.memo = {}

    def matches(self, key, request, value) -> bool:
        import numpy as np

        from repro.core.dse import DseResult
        from repro.serve.service import serial_answer

        if key not in self.memo:
            self.memo[key] = serial_answer(request, self.model)
        oracle = self.memo[key]
        if isinstance(oracle, DseResult):
            return (
                value.best_mean_index == oracle.best_mean_index
                and value.per_app_best_index == oracle.per_app_best_index
                and all(
                    np.array_equal(value.performance[n], oracle.performance[n])
                    and np.array_equal(value.node_power[n], oracle.node_power[n])
                    and np.array_equal(value.feasible[n], oracle.feasible[n])
                    for n in oracle.performance
                )
            )
        return value == oracle


def _event_loop(tracer):
    """A selector event loop; traced, its waits are the ``idle`` span."""
    selector = selectors.DefaultSelector()
    if tracer is not None:
        selector.select = tracer.wrap(selector.select, "idle")
    return asyncio.SelectorEventLoop(selector)


async def _burst(service, batch):
    t0 = perf_counter()
    responses = await asyncio.gather(*(service.submit(r) for _, r in batch))
    return perf_counter() - t0, responses


async def _open_loop(service, batch, rate: float, seed):
    """Submit *batch* on a Poisson schedule; returns per-request
    (response, latency from due time), generator lateness, backlog."""
    import numpy as np

    loop = asyncio.get_running_loop()
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, len(batch))
    due = np.cumsum(gaps)
    start = loop.time() + 0.01
    late: list[float] = []
    state = {"inflight": 0, "backlog_max": 0}

    async def track(request, when):
        state["inflight"] += 1
        state["backlog_max"] = max(state["backlog_max"], state["inflight"])
        response = await service.submit(request)
        state["inflight"] -= 1
        return response, loop.time() - when

    tasks = []
    for (_, request), offset in zip(batch, due):
        when = start + float(offset)
        delay = when - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, loop.time() - when))
        tasks.append(asyncio.ensure_future(track(request, when)))
    done = await asyncio.gather(*tasks)
    return done, late, state["backlog_max"]


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


def _meets_limits(done, ok_status) -> bool:
    """One ladder step passes: p99 under the limit (an unanswered request
    misses every limit), at most 1% unanswered, no growing backlog (the
    last quarter's median latency within twice the first quarter's plus
    10 ms)."""
    n = len(done)
    lat = [
        lat if resp.status == ok_status else float("inf")
        for resp, lat in done
    ]
    unanswered = sum(1 for resp, _ in done if resp.status != ok_status)
    quarter = max(1, n // 4)
    growing = (
        _quantile(lat[-quarter:], 0.5)
        > 2.0 * _quantile(lat[:quarter], 0.5) + 0.010
    )
    return (
        _quantile(lat, 0.99) * 1e3 <= P99_LIMIT_MS
        and unanswered <= MAX_UNANSWERED * n
        and not growing
    )


def run(rnd) -> dict:
    started = perf_counter()
    from repro.core.node import NodeModel
    from repro.perf.evalcache import EvalCache, SimCache
    from repro.perf.pool import ShardedPool
    from repro.serve.requests import OK
    from repro.serve.service import EvalService
    from repro.workloads.catalog import APPLICATIONS
    from repro.workloads.traces import TraceGenerator

    rnd.imported(started)
    tracer = rnd.tracer
    model = NodeModel()
    profiles = list(APPLICATIONS.values())
    traces = [
        TraceGenerator(profiles[i % len(profiles)], seed=rnd.seed * 100 + i)
        .generate(SIM_ROWS)
        for i in range(SIM_TRACES)
    ]
    traffic = Traffic(rnd.seed, traces)
    burst = 60 if rnd.tiny else BURST
    warm_passes = 1 if rnd.tiny else WARM_PASSES
    services = [
        [traffic.requests(10 * c + k, burst, None)
         for k in range(1 + warm_passes)]
        for c in range(1 if rnd.tiny else COLD_PASSES)
    ]
    shards = max(1, min(2, os.cpu_count() or 1))
    pool = ShardedPool(shards)
    loop = _event_loop(tracer)
    rnd.ready()

    async def bursts(batches):
        service = EvalService(
            model=model, pool=pool, cache=EvalCache(), sim_cache=SimCache(),
            max_queue=4 * burst,
        )
        timed = []
        async with service:
            for batch in batches:
                timed.append(await _burst(service, batch))
                rnd.calibrate()
        return timed

    rnd.begin_body()
    cold, warm, responses, workers = [], [], [], None
    for index, batches in enumerate(services):
        if index:
            pool = ShardedPool(shards)
        try:
            timed = loop.run_until_complete(bursts(batches))
            snap = pool.merged_snapshot()
            workers = snap if workers is None else workers.merge(snap)
            balance = pool.assignment_balance()
        finally:
            pool.shutdown()
        cold.append(timed[0][0])
        warm.extend(wall for wall, _ in timed[1:])
        responses.extend(r for _, answers in timed for r in answers)
    extra = {}
    if tracer is not None:
        from repro.obs import metrics

        program = metrics.snapshot()
        n_batches = program.counter("serve.batches")
        paths = [r.path for r in responses]
        batch_s = tracer.snapshot()["durations"].get("serve.batch", [])
        extra = {
            "serve.inline_share": paths.count("inline-cache") / len(paths),
            "serve.coalesced_share": paths.count("coalesced") / len(paths),
            "serve.batches": float(n_batches),
            "serve.batch_size_mean": (
                program.counter("serve.batch_requests") / n_batches
                if n_batches else 0.0
            ),
            "serve.batch_s.p50": _quantile(batch_s, 0.5),
            "serve.batch_s.p99": _quantile(batch_s, 0.99),
            "serve.repeat_share": sum(
                repeat_share([key for batch in batches for key, _ in batch])
                for batches in services
            ) / len(services),
            "pool.balance": balance,
        }
    out = rnd.end_body(worker_snapshot=workers, extra=extra)

    oracle = Oracle(model)
    keyed = [item for batches in services for batch in batches
             for item in batch]
    for index, ((key, request), response) in enumerate(zip(keyed, responses)):
        rnd.check(
            response.status == OK
            and oracle.matches(key, request, response.value),
            f"burst request {index} ({key[0]}): {response.status}",
        )

    if rnd.rated and tracer is None:
        out["layers"] = _rated(rnd, model, traces, shards, loop, oracle)
    loop.close()
    out.update(cold_s=cold, warm_s=warm, shards=shards)
    return out


def _rated(rnd, model, traces, shards, loop, oracle) -> dict:
    """Open-loop runs on a fresh pool and service: warm-up, nominal rate,
    capacity ladder."""
    from repro.perf.evalcache import EvalCache, SimCache
    from repro.perf.pool import ShardedPool
    from repro.serve.requests import OK
    from repro.serve.service import EvalService

    traffic = Traffic(rnd.seed, traces)
    warmup = Traffic(rnd.seed + 7919, traces)
    scale = 0.1 if rnd.tiny else 1.0
    nominal = traffic.requests(1000, int(NOMINAL_REQUESTS * scale), DEADLINE_S)
    pool = ShardedPool(shards)

    async def main():
        service = EvalService(
            model=model, pool=pool, cache=EvalCache(), sim_cache=SimCache(),
        )
        async with service:
            await _open_loop(
                service,
                warmup.requests(0, int(WARMUP_REQUESTS * scale), DEADLINE_S),
                NOMINAL_RPS, [rnd.seed, 40],
            )
            measured = await _open_loop(
                service, nominal, NOMINAL_RPS, [rnd.seed, 41]
            )
            ladder = []
            for step, rate in enumerate(LADDER_RPS):
                n = max(50, int(rate * LADDER_SECONDS * scale))
                batch = traffic.requests(2000 + step, n, DEADLINE_S)
                done, _, _ = await _open_loop(
                    service, batch, rate, [rnd.seed, 42, step]
                )
                ladder.append((rate, batch, done, _meets_limits(done, OK)))
                # Two failed steps in a row end the climb; one may be a
                # passing stall of the host.
                if len(ladder) > 1 and not (ladder[-1][3] or ladder[-2][3]):
                    break
            return measured, ladder

    try:
        (done, late, backlog_max), ladder = loop.run_until_complete(main())
    finally:
        pool.shutdown()

    for index, ((key, request), (response, _)) in enumerate(zip(nominal, done)):
        rnd.check(
            response.status == OK
            and oracle.matches(key, request, response.value),
            f"nominal-rate request {index} ({key[0]}): {response.status}",
        )
    capacity = 0.0
    for rate, batch, answers, passed in ladder:
        for index, ((key, request), (response, _)) in enumerate(
            zip(batch, answers)
        ):
            if response.status == OK:
                rnd.check(
                    oracle.matches(key, request, response.value),
                    f"ladder {rate}/s request {index} ({key[0]}): wrong answer",
                )
        if passed:
            capacity = float(rate)
    latencies = [lat for _, lat in done]
    return {
        "serve.p50_ms": _quantile(latencies, 0.5) * 1e3,
        "serve.p99_ms": _quantile(latencies, 0.99) * 1e3,
        "serve.capacity_rps": capacity,
        "serve.backlog_max": float(backlog_max),
        "serve.gen_late_ms": _quantile(late, 0.99) * 1e3,
    }
