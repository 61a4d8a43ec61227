"""The serving layer (``repro.serve``).

Covers the deterministic batcher core (admission, backpressure,
deadline shed, expiry, grouping, ordered release), the adaptive sizing
policy, the harness's bit-for-bit reproducibility, the cache peek/seed
fast path, and — through a real asyncio service over a real worker
pool — oracle equivalence of every response path against direct serial
evaluation, fault injection (worker kill mid-serve), and clean
shutdown-while-in-flight behaviour.

No pytest-asyncio in the toolchain: async tests run via
``asyncio.run`` inside plain test functions.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core.config import DesignSpace
from repro.core.dse import DseResult
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.evalcache import EvalCache, SimCache
from repro.perf.pool import ShardedPool
from repro.serve import (
    AdaptiveBatchPolicy,
    BatcherCore,
    EvalService,
    FixedPolicy,
    PointRequest,
    PointResult,
    ServeResponse,
    SimulateRequest,
    SweepRequest,
    serial_answer,
)
from repro.serve.requests import (
    EXPIRED,
    FAILED,
    OK,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHUTDOWN,
    STATUSES,
    ExperimentRequest,
)
from repro.serve.workload import Arrival, synthetic_arrivals
from serve_harness import BatchCostModel, FakeClock, ServeHarness, run_trace

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _new_pool(n_shards=2, **kwargs):
    try:
        return ShardedPool(n_shards, **kwargs)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"cannot spawn worker processes: {exc}")


@pytest.fixture(scope="module")
def pool():
    """One long-lived 2-shard pool shared by the pooled serve tests."""
    p = _new_pool(2)
    yield p
    p.shutdown()


def _fresh_service(**kwargs):
    """A service over private caches (no cross-test pollution)."""
    kwargs.setdefault("cache", EvalCache())
    kwargs.setdefault("sim_cache", SimCache())
    return EvalService(**kwargs)


def _assert_same_answer(response: ServeResponse, request, model=None):
    """The served value must be bit-identical to the serial oracle."""
    assert response.status == OK, (response.status, response.error)
    oracle = serial_answer(request, model)
    value = response.value
    if isinstance(oracle, PointResult):
        assert value == oracle  # exact float equality: bit-identical
    elif isinstance(oracle, DseResult):
        assert value.best_mean_index == oracle.best_mean_index
        assert value.per_app_best_index == oracle.per_app_best_index
        for name in oracle.performance:
            assert np.array_equal(
                value.performance[name], oracle.performance[name]
            )
            assert np.array_equal(
                value.node_power[name], oracle.node_power[name]
            )
            assert np.array_equal(
                value.feasible[name], oracle.feasible[name]
            )
    else:
        assert value == oracle


def _statuses_account_for_everything(stats: dict) -> None:
    terminal = (
        stats["completed_ok"]
        + stats["failed"]
        + stats["shed_queue_full"]
        + stats["shed_deadline"]
        + stats["expired"]
        + stats["shutdown"]
    )
    assert terminal == stats["admitted"]


# ----------------------------------------------------------------------
# Batcher core (sans-io)
# ----------------------------------------------------------------------
class TestBatcherCore:
    def test_fifo_batch_and_ordered_release(self):
        core = BatcherCore(FixedPolicy(batch=3))
        tickets = [core.admit(f"r{i}", 0.0, stream="s") for i in range(5)]
        assert [t.stream_seq for t in tickets] == [0, 1, 2, 3, 4]
        planned = core.plan(1.0)
        assert [t.seq for t in planned.tickets] == [0, 1, 2]
        assert core.depth() == 2 and core.inflight() == 3
        # Complete out of order within the batch: release holds order.
        core.complete(
            planned.batch_id,
            {2: (OK, "c"), 0: (OK, "a"), 1: (OK, "b")},
            2.0,
        )
        released = core.poll_outcomes()
        assert [o.ticket.seq for o in released] == [0, 1, 2]
        assert [o.value for o in released] == ["a", "b", "c"]

    def test_queue_full_sheds_explicitly(self):
        core = BatcherCore(FixedPolicy(), max_queue=2)
        for i in range(2):
            core.admit(i, 0.0)
        shed = core.admit(2, 0.0)
        assert shed.stream_seq == -1
        outcomes = core.poll_outcomes()
        assert [o.status for o in outcomes] == [SHED_QUEUE_FULL]
        assert core.stats["shed_queue_full"] == 1

    def test_deadline_shed_at_admission(self):
        core = BatcherCore(
            FixedPolicy(est_request_s=1.0, dispatch_overhead_s=0.0)
        )
        ok = core.admit("fits", 0.0, deadline_s=10.0)
        assert ok.stream_seq >= 0
        shed = core.admit("cannot", 0.0, deadline_s=0.5)
        assert shed.stream_seq == -1
        (outcome,) = core.poll_outcomes()
        assert outcome.status == SHED_DEADLINE

    def test_expiry_at_plan_time(self):
        core = BatcherCore(FixedPolicy(est_request_s=1e-6))
        core.admit("r", 0.0, deadline_s=0.1)
        assert core.plan(1.0) is None  # deadline long past
        (outcome,) = core.poll_outcomes()
        assert outcome.status == EXPIRED

    def test_group_keys_and_solo(self):
        core = BatcherCore(FixedPolicy(batch=10))
        core.admit("a", 0.0, group_key="g")
        core.admit("b", 0.0, group_key="g")
        core.admit("c", 0.0, group_key=None)
        planned = core.plan(0.0)
        keys = set(planned.groups)
        assert "g" in keys
        assert ("solo", 2) in keys
        assert len(planned.groups["g"]) == 2

    def test_missing_result_fails_not_lost(self):
        core = BatcherCore(FixedPolicy(batch=2))
        core.admit("a", 0.0)
        core.admit("b", 0.0)
        planned = core.plan(0.0)
        core.complete(planned.batch_id, {0: (OK, "a")}, 1.0)
        outcomes = {o.ticket.seq: o for o in core.poll_outcomes()}
        assert outcomes[0].status == OK
        assert outcomes[1].status == FAILED
        assert "no result" in str(outcomes[1].error)

    def test_invalid_status_rejected(self):
        core = BatcherCore()
        core.admit("a", 0.0)
        planned = core.plan(0.0)
        with pytest.raises(ValueError):
            core.complete(planned.batch_id, {0: ("bogus", None)}, 1.0)

    def test_unknown_batch_rejected(self):
        with pytest.raises(KeyError):
            BatcherCore().complete(99, {}, 0.0)

    def test_inline_held_behind_pending_same_stream(self):
        core = BatcherCore(FixedPolicy(batch=1))
        core.admit("slow", 0.0, stream="s")
        planned = core.plan(0.0)
        inline = core.admit_completed("fast", "hit", 0.1, stream="s")
        assert inline.stream_seq == 1
        assert core.poll_outcomes() == []  # held behind seq 0
        core.complete(planned.batch_id, {0: (OK, "v")}, 0.2)
        released = core.poll_outcomes()
        assert [o.ticket.stream_seq for o in released] == [0, 1]
        assert released[1].path == "inline-cache"

    def test_streams_are_independent(self):
        core = BatcherCore(FixedPolicy(batch=1))
        core.admit("a", 0.0, stream="s1")
        planned = core.plan(0.0)
        inline = core.admit_completed("b", "hit", 0.1, stream="s2")
        (released,) = core.poll_outcomes()  # s2 not held behind s1
        assert released.ticket.seq == inline.seq
        core.complete(planned.batch_id, {0: (OK, "v")}, 0.2)
        assert len(core.poll_outcomes()) == 1

    def test_flush_resolves_queued_and_inflight(self):
        core = BatcherCore(FixedPolicy(batch=2))
        for i in range(5):
            core.admit(i, 0.0)
        core.plan(0.0)
        flushed = core.flush(1.0)
        assert flushed == 5
        outcomes = core.poll_outcomes()
        assert len(outcomes) == 5
        assert all(o.status == SHUTDOWN for o in outcomes)
        _statuses_account_for_everything(core.stats)

    def test_bad_max_queue(self):
        with pytest.raises(ValueError):
            BatcherCore(max_queue=0)


# ----------------------------------------------------------------------
# Adaptive policy and quantiles
# ----------------------------------------------------------------------
class TestAdaptivePolicy:
    def test_cold_start_uses_default(self):
        policy = AdaptiveBatchPolicy(
            obs_metrics.MetricsRegistry(), default_request_seconds=5e-3,
            target_batch_seconds=0.02,
        )
        assert policy.est_request_seconds() == 5e-3
        assert policy.batch_limit() == 4  # 0.02 / 5e-3

    def test_refresh_tracks_measured_rate(self):
        registry = obs_metrics.MetricsRegistry()
        policy = AdaptiveBatchPolicy(
            registry, target_batch_seconds=0.1, max_batch=1000
        )
        registry.observe("serve.batch_seconds", 0.2)
        registry.inc("serve.batch_requests", 200)  # 1 ms / request
        assert policy.refresh() == pytest.approx(1e-3)
        assert policy.batch_limit() == 100

    def test_clamped_to_bounds(self):
        registry = obs_metrics.MetricsRegistry()
        policy = AdaptiveBatchPolicy(
            registry, min_batch=2, max_batch=8, target_batch_seconds=1.0
        )
        registry.observe("serve.batch_seconds", 1e-6)
        registry.inc("serve.batch_requests", 1)
        policy.refresh()
        assert policy.batch_limit() == 8
        registry.observe("serve.batch_seconds", 1e6)
        policy.refresh()
        assert policy.batch_limit() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(min_batch=0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(min_batch=4, max_batch=2)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(target_batch_seconds=0.0)


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        snap = obs_metrics.MetricsRegistry().snapshot()
        assert snap.histograms == {}
        registry = obs_metrics.MetricsRegistry()
        registry.observe("h", 1.0)
        hist = registry.snapshot().histograms["h"]
        empty = hist.diff(hist)
        assert empty.quantile(0.99) == 0.0

    def test_bucket_upper_bound(self):
        registry = obs_metrics.MetricsRegistry(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 3.0):
            registry.observe("h", v)
        hist = registry.snapshot().histograms["h"]
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.75) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_overflow_is_inf(self):
        registry = obs_metrics.MetricsRegistry(buckets=(1.0,))
        registry.observe("h", 100.0)
        assert registry.snapshot().histograms["h"].quantile(0.5) == float(
            "inf"
        )

    def test_out_of_range_rejected(self):
        registry = obs_metrics.MetricsRegistry()
        registry.observe("h", 1.0)
        hist = registry.snapshot().histograms["h"]
        with pytest.raises(ValueError):
            hist.quantile(1.5)


# ----------------------------------------------------------------------
# Deterministic harness
# ----------------------------------------------------------------------
def _mixed_arrivals(n=60, seed=3, rate_hz=400.0, deadline_s=0.05):
    return synthetic_arrivals(
        seed, n, rate_hz=rate_hz, deadline_s=deadline_s
    )


class TestServeHarness:
    def test_transcript_is_bit_for_bit_reproducible(self):
        arrivals = _mixed_arrivals()
        first = run_trace(arrivals, policy=FixedPolicy(batch=4))
        second = run_trace(arrivals, policy=FixedPolicy(batch=4))
        assert first == second
        assert any(row[1] == "dispatch" for row in first)
        assert any(row[1] == "outcome" for row in first)

    def test_every_arrival_gets_exactly_one_outcome(self):
        arrivals = _mixed_arrivals(n=80)
        transcript = run_trace(arrivals, policy=FixedPolicy(batch=4))
        outcome_seqs = [r[2] for r in transcript if r[1] == "outcome"]
        assert sorted(outcome_seqs) == list(range(len(arrivals)))

    def test_overload_sheds_and_expires_deterministically(self):
        # Service time far above the arrival rate: the bounded queue
        # must shed and the tight deadline must expire requests, and
        # the exact decision sequence must replay.
        arrivals = _mixed_arrivals(n=50, rate_hz=2000.0, deadline_s=0.02)
        kwargs = dict(
            policy=FixedPolicy(batch=2, est_request_s=5e-3),
            max_queue=4,
            service_time=BatchCostModel(base_s=5e-3, per_request_s=1e-2),
        )
        first = run_trace(arrivals, **kwargs)
        second = run_trace(arrivals, **kwargs)
        assert first == second
        statuses = {r[5] for r in first if r[1] == "outcome"}
        assert SHED_QUEUE_FULL in statuses or SHED_DEADLINE in statuses
        assert EXPIRED in statuses or OK in statuses
        shed_rows = [r for r in first if r[1] == "shed"]
        assert shed_rows, "overload trace must shed"

    def test_stream_order_preserved_in_transcript(self):
        arrivals = _mixed_arrivals(n=60, rate_hz=1500.0, deadline_s=None)
        transcript = run_trace(arrivals, policy=FixedPolicy(batch=5))
        per_stream: dict = {}
        for row in transcript:
            if row[1] == "outcome" and row[4] >= 0:
                per_stream.setdefault(row[3], []).append(row[4])
        assert per_stream
        for stream, seqs in per_stream.items():
            assert seqs == sorted(seqs), f"stream {stream} reordered"

    def test_adaptive_policy_inside_harness(self):
        # Feed the measured batch timings back through a private
        # registry: the planned batch sizes must grow deterministically
        # from min upward as the estimate converges below default.
        arrivals = _mixed_arrivals(n=60, rate_hz=3000.0, deadline_s=None)

        def run_once():
            registry = obs_metrics.MetricsRegistry()
            policy = AdaptiveBatchPolicy(
                registry,
                target_batch_seconds=0.02,
                default_request_seconds=1e-2,
                max_batch=32,
            )
            core = BatcherCore(policy)

            def on_batch(planned, dt):
                registry.observe("serve.batch_seconds", dt)
                registry.inc("serve.batch_requests", len(planned.tickets))
                policy.refresh()

            harness = ServeHarness(
                core,
                service_time=BatchCostModel(
                    base_s=0.0, per_request_s=1e-3
                ),
                on_batch=on_batch,
            )
            transcript = harness.run(arrivals)
            return transcript, policy.batch_limit()

        first, limit1 = run_once()
        second, limit2 = run_once()
        assert first == second and limit1 == limit2
        assert limit1 == 20  # 0.02 s target / 1 ms measured
        sizes = [len(r[3]) for r in first if r[1] == "dispatch"]
        assert max(sizes) > 2  # grew past the cold-start size of 2

    def test_fake_clock_monotonic(self):
        clock = FakeClock()
        clock.advance(1.0)
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        with pytest.raises(ValueError):
            clock.set(0.5)


# ----------------------------------------------------------------------
# Cache peek / seed
# ----------------------------------------------------------------------
class TestCachePeekSeed:
    def test_peek_miss_counts_nothing(self, model, maxflops):
        cache = EvalCache()
        space = DesignSpace(
            cu_counts=(256,), frequencies=(1e9,), bandwidths=(2e12,)
        )
        assert cache.peek_grid(model, [maxflops], space) is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_seed_then_peek_is_hit(self, model, maxflops):
        cache = EvalCache()
        space = DesignSpace(
            cu_counts=(256,), frequencies=(1e9,), bandwidths=(2e12,)
        )
        grid = model.evaluate_grid([maxflops], space)
        cache.seed_grid(model, [maxflops], space, grid)
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0  # seeding is free
        peeked = cache.peek_grid(model, [maxflops], space)
        assert peeked is grid
        assert cache.stats().hits == 1

    def test_seeded_equals_computed(self, model, maxflops):
        # A cache that was seeded answers evaluate_grid without
        # recomputing, and the value is the seeded one.
        cache = EvalCache()
        space = DesignSpace(
            cu_counts=(192, 256), frequencies=(1e9,), bandwidths=(2e12,)
        )
        grid = model.evaluate_grid([maxflops], space)
        cache.seed_grid(model, [maxflops], space, grid)
        again = cache.evaluate_grid(model, [maxflops], space)
        assert again is grid

    def test_sim_cache_seed_roundtrip(self, maxflops):
        from repro.sim.apu_sim import ApuSimulator
        from repro.workloads.traces import TraceGenerator

        trace = TraceGenerator(maxflops, seed=7).generate(500)
        cache = SimCache()
        assert cache.peek_run(trace) is None
        result = ApuSimulator().run(trace)
        cache.seed_run(trace, result)
        assert cache.peek_run(trace) is result


# ----------------------------------------------------------------------
# The asyncio service: oracle equivalence of every path
# ----------------------------------------------------------------------
class TestServiceOracle:
    def test_all_paths_bit_identical_no_pool(self, model):
        """Coalesced, degraded, and inline-cache answers all match the
        serial oracle exactly (inline batch execution, no pool)."""
        arrivals = synthetic_arrivals(11, 30, deadline_s=None)

        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.01)
            async with svc:
                first = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                second = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                stats = svc.stats()
            return first, second, stats

        first, second, stats = asyncio.run(scenario())
        for responses in (first, second):
            for arrival, response in zip(arrivals, responses):
                _assert_same_answer(response, arrival.request, model)
        paths = {r.path for r in first}
        assert "coalesced" in paths
        # Every repeat answers from the cache without a worker trip.
        assert all(r.path == "inline-cache" for r in second)
        assert stats["inline"] >= len(arrivals)
        _statuses_account_for_everything(stats)

    def test_degraded_solo_point_matches(self, model, lulesh):
        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.0)
            async with svc:
                return await svc.evaluate(lulesh, 320, 1.0e9, 3.0e12)

        response = asyncio.run(scenario())
        assert response.path == "degraded"  # nothing to coalesce with
        _assert_same_answer(
            response, PointRequest(lulesh, 320, 1.0e9, 3.0e12), model
        )

    def test_sweep_matches_explore_optima(self, model, maxflops, comd):
        space = DesignSpace(
            cu_counts=(192, 256, 320),
            frequencies=(0.9e9, 1.2e9),
            bandwidths=(1e12, 3e12),
        )
        request = SweepRequest((maxflops, comd), space)

        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.0)
            async with svc:
                return await svc.submit(request)

        response = asyncio.run(scenario())
        _assert_same_answer(response, request, model)

    def test_simulate_and_experiment_paths(self, model, maxflops):
        from repro.workloads.traces import TraceGenerator

        trace = TraceGenerator(maxflops, seed=5).generate(800)
        sim_request = SimulateRequest(trace)
        exp_request = ExperimentRequest("table1")

        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.0)
            async with svc:
                sim1 = await svc.submit(sim_request)
                exp1 = await svc.submit(exp_request)
                sim2 = await svc.submit(sim_request)
                exp2 = await svc.submit(exp_request)
            return sim1, exp1, sim2, exp2

        sim1, exp1, sim2, exp2 = asyncio.run(scenario())
        assert sim1.path == "solo" and exp1.path == "solo"
        _assert_same_answer(sim1, sim_request, model)
        assert exp1.status == OK
        # Repeats hit the parent-side caches inline.
        assert sim2.path == "inline-cache" and exp2.path == "inline-cache"
        assert sim2.value == sim1.value
        assert exp2.value is exp1.value

    def test_failed_sweep_is_contained(self, model, maxflops, comd):
        # An infeasible sweep (1 W budget: nothing fits) fails alone;
        # a good request in the same batch still answers.
        bad_space = DesignSpace(
            cu_counts=(192, 256),
            frequencies=(1e9,),
            bandwidths=(1e12,),
            power_budget=1.0,
        )
        bad = SweepRequest((maxflops,), bad_space)
        good = PointRequest(comd, 256, 1.0e9, 2.0e12)

        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.05)
            async with svc:
                return await asyncio.gather(
                    svc.submit(bad), svc.submit(good)
                )

        bad_response, good_response = asyncio.run(scenario())
        assert bad_response.status == FAILED
        assert isinstance(bad_response.error, RuntimeError)
        _assert_same_answer(good_response, good, model)

    def test_within_stream_order_holds_under_concurrency(self, model):
        arrivals = synthetic_arrivals(
            23, 40, n_streams=2, deadline_s=None
        )
        done: list[tuple[str, int]] = []

        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.005)

            async def one(i, request):
                response = await svc.submit(request)
                done.append((request.stream, i))
                return response

            async with svc:
                responses = await asyncio.gather(
                    *(one(i, a.request) for i, a in enumerate(arrivals))
                )
            return responses

        responses = asyncio.run(scenario())
        assert all(r.status == OK for r in responses)
        per_stream: dict = {}
        for stream, i in done:
            per_stream.setdefault(stream, []).append(i)
        for stream, order in per_stream.items():
            assert order == sorted(order), f"stream {stream} reordered"


# ----------------------------------------------------------------------
# Backpressure, deadlines, shutdown (no pool: deterministic timing)
# ----------------------------------------------------------------------
class TestServiceBackpressure:
    def test_queue_full_sheds_immediately(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(
                model=model, batch_window_s=0.2, max_queue=2
            )
            requests = [
                PointRequest(maxflops, 192 + 64 * (i % 4), 1.0e9, 1e12 * (1 + i))
                for i in range(8)
            ]
            async with svc:
                return await asyncio.gather(
                    *(svc.submit(r) for r in requests)
                )

        responses = asyncio.run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count(SHED_QUEUE_FULL) == len(responses) - 2
        assert statuses.count(OK) == 2
        assert all(s in STATUSES for s in statuses)

    def test_deadline_shed_at_admission(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(
                model=model,
                policy=FixedPolicy(est_request_s=10.0),
                batch_window_s=0.0,
            )
            async with svc:
                return await svc.evaluate(
                    maxflops, 256, 1.0e9, 2e12, deadline_s=0.01
                )

        response = asyncio.run(scenario())
        assert response.status == SHED_DEADLINE
        assert response.latency_s == 0.0

    def test_expiry_while_queued(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(
                model=model,
                policy=FixedPolicy(
                    est_request_s=1e-6, dispatch_overhead_s=0.0
                ),
                batch_window_s=0.2,
            )
            async with svc:
                return await svc.evaluate(
                    maxflops, 256, 1.0e9, 2e12, deadline_s=0.02
                )

        response = asyncio.run(scenario())
        assert response.status == EXPIRED

    def test_submit_after_close_refused(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model)
            async with svc:
                pass
            return await svc.evaluate(maxflops, 256, 1.0e9, 2e12)

        response = asyncio.run(scenario())
        assert response.status == SHUTDOWN

    def test_close_flushes_queued_requests(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=5.0)
            async with svc:
                pending = [
                    asyncio.ensure_future(
                        svc.evaluate(maxflops, 192 + 64 * i, 1.0e9, 2e12)
                    )
                    for i in range(3)
                ]
                await asyncio.sleep(0.05)  # queued, window still open
            return await asyncio.gather(*pending)

        responses = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30)
        )
        assert [r.status for r in responses] == [SHUTDOWN] * 3

    def test_manifest_section_lifecycle(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.0)
            async with svc:
                await svc.evaluate(maxflops, 256, 1.0e9, 2e12)
                open_manifest = obs_manifest.build_manifest()
            closed_manifest = obs_manifest.build_manifest()
            return open_manifest, closed_manifest

        open_manifest, closed_manifest = asyncio.run(scenario())
        section = open_manifest["sections"]["serve"]
        assert section["completed_ok"] == 1
        assert "batch_limit" in section
        assert "serve" not in closed_manifest["sections"]


# ----------------------------------------------------------------------
# Pooled service: slab fan-out, fault injection, shutdown-in-flight
# ----------------------------------------------------------------------
class TestServiceOnPool:
    def test_coalesced_pool_answers_match_oracle(self, pool, model):
        arrivals = synthetic_arrivals(31, 24, deadline_s=None)

        async def scenario():
            svc = _fresh_service(
                model=model, pool=pool, batch_window_s=0.02
            )
            async with svc:
                responses = await asyncio.gather(
                    *(svc.submit(a.request) for a in arrivals)
                )
                stats = svc.stats()
            return responses, stats

        responses, stats = asyncio.run(
            asyncio.wait_for(scenario(), timeout=300)
        )
        for arrival, response in zip(arrivals, responses):
            _assert_same_answer(response, arrival.request, model)
        assert stats["pool_tasks"] > 0
        _statuses_account_for_everything(stats)

    def test_worker_kill_mid_serve_no_lost_answers(self, pool, model):
        """Kill every worker while requests are in flight: the pool
        requeues and respawns, every request still gets exactly one
        bit-identical answer, and the restart surfaces in stats()."""
        from repro.workloads.catalog import APPLICATIONS
        from repro.workloads.traces import TraceGenerator

        arrivals = synthetic_arrivals(37, 10, deadline_s=None)
        trace = TraceGenerator(
            APPLICATIONS["CoMD"], seed=37
        ).generate(60_000)
        requests = [a.request for a in arrivals] + [SimulateRequest(trace)]

        async def scenario():
            svc = _fresh_service(
                model=model, pool=pool, batch_window_s=0.05
            )
            restarts_before = pool.stats().worker_restarts
            async with svc:
                pending = [
                    asyncio.ensure_future(svc.submit(r)) for r in requests
                ]
                await asyncio.sleep(0.15)  # batch dispatched / running
                for index in range(pool.n_shards):
                    pool.kill_worker(index)
                first = await asyncio.gather(*pending)
                # A second round forces dead-worker detection even if
                # the first batch squeaked through before the kill.
                second = await asyncio.gather(
                    *(
                        svc.evaluate(
                            r.profile, r.n_cus, r.gpu_freq, r.bandwidth,
                            power_budget=150.0,  # distinct: no inline hit
                        )
                        for r in requests
                        if isinstance(r, PointRequest)
                    )
                )
                stats = svc.stats()
            return first, second, stats, restarts_before

        first, second, stats, restarts_before = asyncio.run(
            asyncio.wait_for(scenario(), timeout=300)
        )
        for request, response in zip(requests, first):
            _assert_same_answer(response, request, model)
        assert all(r.status == OK for r in second)
        assert stats["pool_worker_restarts"] >= restarts_before + 1
        # Exactly one outcome per admission: nothing lost or doubled.
        _statuses_account_for_everything(stats)
        assert stats["admitted"] == len(first) + len(second)

    def test_pool_shutdown_mid_serve_batch_resolves_all(self, model):
        """Shutting the pool down under a live service must resolve
        every pending request (shutdown/failed), not hang or leak."""
        from repro.workloads.catalog import APPLICATIONS
        from repro.workloads.traces import TraceGenerator

        arrivals = synthetic_arrivals(41, 8, deadline_s=None)
        trace = TraceGenerator(
            APPLICATIONS["CoMD"], seed=41
        ).generate(60_000)
        own_pool = _new_pool(2)

        async def scenario():
            svc = _fresh_service(
                model=model, pool=own_pool, batch_window_s=0.05
            )
            async with svc:
                pending = [
                    asyncio.ensure_future(svc.submit(SimulateRequest(trace)))
                ]
                pending += [
                    asyncio.ensure_future(svc.submit(a.request))
                    for a in arrivals
                ]
                await asyncio.sleep(0.15)  # batch in flight
                own_pool.shutdown()
                return await asyncio.gather(*pending)

        try:
            responses = asyncio.run(
                asyncio.wait_for(scenario(), timeout=120)
            )
        finally:
            own_pool.shutdown()
        assert len(responses) == len(arrivals) + 1
        statuses = {r.status for r in responses}
        assert statuses <= {SHUTDOWN, FAILED, OK}
        assert SHUTDOWN in statuses or FAILED in statuses


# ----------------------------------------------------------------------
# Request tracing: one submit -> one connected span tree
# ----------------------------------------------------------------------
class TestServeTracing:
    def test_single_request_renders_connected_tree(
        self, pool, model, maxflops, comd
    ):
        """One traced sweep request is one connected tree with pinned
        ids: serve.SweepRequest (0.1) -> serve.queue_wait (0.1.1) +
        serve.batch (0.1.2) -> pool.run -> worker task spans."""
        import os

        space = DesignSpace(
            cu_counts=(192, 256, 320),
            frequencies=(0.9e9, 1.2e9),
            bandwidths=(1e12,),
        )
        request = SweepRequest((maxflops, comd), space)
        tracer = obs_trace.Tracer(
            context=obs_trace.SpanContext.root("t1")
        )

        async def scenario():
            svc = _fresh_service(
                model=model, pool=pool, batch_window_s=0.0,
                slab_min_points=1,
            )
            async with svc:
                return await svc.submit(request)

        with obs_trace.trace(tracer=tracer):
            response = asyncio.run(
                asyncio.wait_for(scenario(), timeout=300)
            )
        assert response.status == OK

        by_name: dict[str, list] = {}
        for event in tracer.events:
            by_name.setdefault(event["name"], []).append(event)

        (req_event,) = by_name["serve.SweepRequest"]
        assert req_event["args"]["trace_id"] == "t1"
        assert req_event["args"]["span_id"] == "0.1"
        assert req_event["args"]["parent_id"] == "0"

        (wait_event,) = by_name["serve.queue_wait"]
        assert wait_event["args"]["span_id"] == "0.1.1"
        assert wait_event["args"]["parent_id"] == "0.1"
        assert wait_event["dur"] >= 0

        # A batch serving exactly one traced request parents under it.
        (batch_event,) = by_name["serve.batch"]
        assert batch_event["args"]["span_id"] == "0.1.2"
        assert batch_event["args"]["parent_id"] == "0.1"

        run_events = by_name["pool.run"]
        assert run_events
        run_ids = set()
        for run_event in run_events:
            assert run_event["args"]["parent_id"] == "0.1.2"
            run_ids.add(run_event["args"]["span_id"])

        worker_events = [
            e
            for e in tracer.events
            if e["args"].get("parent_id") in run_ids
            and e["name"] != "pool.run"
        ]
        assert worker_events
        parent_pid = os.getpid()
        for event in worker_events:
            assert event["args"]["trace_id"] == "t1"
            assert event["pid"] != parent_pid

    def test_multi_request_batch_links_request_spans(
        self, model, maxflops
    ):
        """A batch serving several requests can't be a child of all of
        them; it records their span ids as links instead, and each
        request still gets its own queue-wait child span."""
        tracer = obs_trace.Tracer(
            context=obs_trace.SpanContext.root("t1")
        )

        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.05)
            async with svc:
                return await asyncio.gather(
                    *(
                        svc.evaluate(
                            maxflops, 192 + 64 * i, 1.0e9, 2e12
                        )
                        for i in range(3)
                    )
                )

        with obs_trace.trace(tracer=tracer):
            responses = asyncio.run(
                asyncio.wait_for(scenario(), timeout=300)
            )
        assert all(r.status == OK for r in responses)

        request_ids = {
            e["args"]["span_id"]
            for e in tracer.events
            if e["name"] == "serve.PointRequest"
        }
        assert request_ids == {"0.1", "0.2", "0.3"}
        linked: set = set()
        for event in tracer.events:
            if event["name"] != "serve.batch":
                continue
            spans = event["args"].get("request_spans")
            if spans is not None:
                linked.update(spans)
            else:
                # Singleton batch: parented under its one request.
                linked.add(event["args"]["parent_id"])
        assert linked == request_ids
        wait_parents = {
            e["args"]["parent_id"]
            for e in tracer.events
            if e["name"] == "serve.queue_wait"
        }
        assert wait_parents == request_ids

    def test_untraced_requests_record_nothing(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.0)
            async with svc:
                response = await svc.evaluate(
                    maxflops, 256, 1.0e9, 2e12
                )
                stats = svc.stats()
            return response, stats

        response, stats = asyncio.run(scenario())
        assert response.status == OK
        assert obs_trace.active_tracer() is None
        assert stats["slo"]["requests"] == 1

    def test_stats_report_slo_health(self, model, maxflops):
        async def scenario():
            svc = _fresh_service(model=model, batch_window_s=0.0)
            async with svc:
                for i in range(4):
                    await svc.evaluate(
                        maxflops, 192 + 64 * i, 1.0e9, 2e12
                    )
                return svc.stats()

        stats = asyncio.run(scenario())
        slo = stats["slo"]
        assert slo["requests"] == 4
        assert slo["ok"] == 4
        assert slo["budget_burn"] == pytest.approx(0.0)
        assert slo["p99_latency_s"] > 0.0


# ----------------------------------------------------------------------
# Workload generator and CLI
# ----------------------------------------------------------------------
class TestWorkload:
    def test_deterministic_for_seed(self):
        a = synthetic_arrivals(5, 50, rate_hz=100.0)
        b = synthetic_arrivals(5, 50, rate_hz=100.0)
        assert a == b
        c = synthetic_arrivals(6, 50, rate_hz=100.0)
        assert a != c

    def test_open_loop_times_increase(self):
        arrivals = synthetic_arrivals(1, 40, rate_hz=500.0)
        times = [a.at for a in arrivals]
        assert times == sorted(times) and times[-1] > 0

    def test_closed_loop_all_at_zero(self):
        arrivals = synthetic_arrivals(1, 10)
        assert all(a.at == 0.0 for a in arrivals)

    def test_mix_and_validation(self):
        arrivals = synthetic_arrivals(
            2, 200, point_fraction=0.6, simulate_fraction=0.05
        )
        kinds = {type(a.request).__name__ for a in arrivals}
        assert kinds == {
            "PointRequest", "SweepRequest", "SimulateRequest"
        }
        with pytest.raises(ValueError):
            synthetic_arrivals(0, -1)
        with pytest.raises(ValueError):
            synthetic_arrivals(0, 1, point_fraction=0.9,
                               simulate_fraction=0.5)

    def test_templates_repeat(self):
        arrivals = synthetic_arrivals(
            3, 100, point_fraction=1.0, n_templates=8, deadline_s=None
        )
        distinct = {
            (a.request.profile.name, a.request.n_cus,
             a.request.gpu_freq, a.request.bandwidth)
            for a in arrivals
        }
        assert len(distinct) <= 8 < len(arrivals)


class TestServeCli:
    def test_serve_bench_cli_smoke(self, capsys, tmp_path):
        from repro.__main__ import main

        manifest_path = tmp_path / "serve_manifest.json"
        code = main(
            [
                "serve",
                "--serve-requests", "12",
                "--pool-shards", "2",
                "--serve-deadline-ms", "0",
                "--metrics-out", str(manifest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve bench:" in out
        import json

        manifest = json.loads(manifest_path.read_text())
        assert manifest["extra"]["serve_bench"]["n_requests"] == 12

    def test_no_artifacts_errors(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main([])


class TestRequestTypes:
    def test_point_to_space_singleton(self, maxflops):
        request = PointRequest(maxflops, 256, 1.0e9, 2e12,
                               power_budget=120.0)
        space = request.to_space()
        assert space.size == 1
        assert space.power_budget == 120.0

    def test_from_config(self, maxflops, best_mean_config):
        request = PointRequest.from_config(maxflops, best_mean_config)
        assert request.n_cus == best_mean_config.n_cus

    def test_sweep_rejects_duplicates(self, maxflops):
        with pytest.raises(ValueError):
            SweepRequest((maxflops, maxflops), DesignSpace())
        with pytest.raises(ValueError):
            SweepRequest((), DesignSpace())

    def test_response_latency(self):
        response = ServeResponse(
            status=OK, admitted_at=1.0, completed_at=3.5
        )
        assert response.ok and response.latency_s == 2.5
