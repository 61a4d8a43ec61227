"""The persistent sharded worker pool (``repro.perf.pool``).

Covers the scheduling contract (stable shard routing, round-robin
fallback, stealing only from a backlog), fault tolerance (task errors,
worker death and respawn), the observability bridges (merged worker
metrics deltas, republished memory gauges, worker-side spans), payload
dedup, concurrent spill-directory use, the in-process ``ShardedPool(0)``
mode's share of the ``run()`` contract, and bit-identity of the
DSE/experiment fan-outs on both executors against their serial
counterparts.
"""

import os
import time

import numpy as np
import pytest

from repro.core.dse import explore
from repro.experiments.registry import EXPERIMENTS
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.evalcache import MemsysCache
from repro.perf.parallel import parallel_explore, run_experiments
from repro.perf.pool import POLICIES, PoolTask, ShardedPool, stable_shard
from repro.workloads.catalog import get_application


# ----------------------------------------------------------------------
# Worker payloads (module-level: picklable)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _whoami(_tag=None):
    return os.getpid()


def _boom():
    raise ValueError("kaput")


def _bump(n):
    obs_metrics.inc("test.inline.bumps", n)
    return n


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _die_once(sentinel_path):
    """Kill the worker on first execution; succeed on the re-run."""
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w", encoding="ascii") as fh:
            fh.write("died")
        os._exit(3)
    return "survived"


def _spill_sweep(spill_dir, seed):
    """Run a MemsysCache sweep against a shared spill directory.

    A fresh cache per call means every lookup goes to disk (or
    computes), so concurrent workers race on the same spill files.
    """
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << 20, size=1500)
    writes = rng.random(1500) < 0.5
    cache = MemsysCache(spill_dir=spill_dir)
    stats = cache.dram_stats(addrs, writes, capacity_bytes=1 << 19)
    from dataclasses import astuple

    return astuple(stats)


def _new_pool(n_shards=2, **kwargs):
    try:
        return ShardedPool(n_shards, **kwargs)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"cannot spawn worker processes: {exc}")


@pytest.fixture(scope="module")
def pool():
    """One long-lived 2-shard pool shared by the cheap tests — reuse
    across tests is itself part of what's under test."""
    p = _new_pool(2)
    yield p
    p.shutdown()


@pytest.fixture(params=["in-process", "2-shard"])
def executor(request):
    """Both executors a fan-out can run on: ``ShardedPool(0)`` and the
    shared 2-shard process pool."""
    if request.param == "in-process":
        return ShardedPool(0)
    return request.getfixturevalue("pool")


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for key in [("CoMD", 0), ("CoMD", 1), "x", 42, (1, 2, 3)]:
            first = stable_shard(key, 4)
            assert first == stable_shard(key, 4)
            assert 0 <= first < 4

    def test_spreads_keys(self):
        shards = {stable_shard(("profile", i), 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}


class TestShardedPoolBasics:
    def test_results_in_submission_order(self, pool):
        tasks = [PoolTask(fn=_square, args=(i,)) for i in range(17)]
        for p in (pool, ShardedPool(0)):
            assert p.run(tasks) == [i * i for i in range(17)]

    def test_empty_task_list(self, pool):
        for p in (pool, ShardedPool(0)):
            assert p.run([]) == []
            results, snap = p.run([], metrics=True)
            assert results == [] and snap.counters == {}

    def test_zero_shards_run_in_process(self):
        p = ShardedPool(0)
        assert p._workers == []
        assert p.run([PoolTask(fn=_whoami)] * 3) == [os.getpid()] * 3
        assert p.merged_snapshot().counters == {}
        with pytest.raises(ValueError):
            ShardedPool(-1)

    def test_in_process_metrics_are_the_parent_registry_delta(self):
        results, snap = ShardedPool(0).run(
            [PoolTask(fn=_bump, args=(n,)) for n in (1, 2, 3)], metrics=True
        )
        assert results == [1, 2, 3]
        assert snap.counter("test.inline.bumps") == 6
        # As in a worker's delta, the pool's own bookkeeping is left out.
        assert snap.counter("pool.tasks") == 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ShardedPool(2, policy="random")
        assert POLICIES[0] == "affinity"

    def test_closed_pool_raises(self):
        p = _new_pool(1)
        p.shutdown()
        with pytest.raises(RuntimeError):
            p.run([PoolTask(fn=_square, args=(1,))])
        p.shutdown()  # idempotent

    def test_task_counter_advances(self, pool):
        for p in (pool, ShardedPool(0)):
            before = p.stats().tasks
            p.run([PoolTask(fn=_square, args=(i,)) for i in range(5)])
            assert p.stats().tasks == before + 5


class TestScheduling:
    def test_affinity_pins_key_to_worker_across_runs(self, pool):
        tasks = [
            PoolTask(fn=_whoami, args=(i,), shard_key=("pin", i % 4))
            for i in range(8)
        ]
        # batch_size covers each worker's whole queue: no stealing, so
        # routing alone decides placement.
        first = pool.run(tasks, batch_size=len(tasks))
        second = pool.run(tasks, batch_size=len(tasks))
        # Same shard_key -> same worker pid, within and across runs.
        for run in (first, second):
            by_key = {}
            for task, pid in zip(tasks, run):
                by_key.setdefault(task.shard_key, set()).add(pid)
            assert all(len(pids) == 1 for pids in by_key.values())
        for task_idx in range(8):
            assert first[task_idx] == second[task_idx]

    def test_roundrobin_uses_both_workers(self):
        with _new_pool(2, policy="roundrobin") as p:
            pids = p.run(
                [
                    PoolTask(fn=_whoami, args=(i,), shard_key="same")
                    for i in range(8)
                ],
                batch_size=1,
            )
        # Round-robin ignores the identical shard keys.
        assert len(set(pids)) == 2

    def test_idle_worker_steals_from_backlog(self, pool):
        # Craft keys that all hash to shard 0: worker 1 starts idle and
        # must steal (its own queue is empty, the other has a backlog).
        key = next(
            ("hot", i) for i in range(64) if pool.shard_for(("hot", i)) == 0
        )
        before = pool.stats().steals
        pids = pool.run(
            [PoolTask(fn=_whoami, args=(i,), shard_key=key) for i in range(12)],
            batch_size=1,
        )
        assert pool.stats().steals > before
        assert len(set(pids)) == 2


class TestFaultTolerance:
    def test_error_propagates_with_label(self, pool):
        # The first failure in submission order is the one reported.
        tasks = [
            PoolTask(fn=_square, args=(2,)),
            PoolTask(fn=_boom, label="exploder"),
            PoolTask(fn=_boom, label="later"),
        ]
        for p in (pool, ShardedPool(0)):
            with pytest.raises(RuntimeError, match="exploder") as excinfo:
                p.run(tasks)
            assert "kaput" in str(excinfo.value.__cause__)

    def test_pool_usable_after_error(self, pool):
        for p in (pool, ShardedPool(0)):
            with pytest.raises(RuntimeError):
                p.run([PoolTask(fn=_boom)])
            assert p.run([PoolTask(fn=_square, args=(6,))]) == [36]

    def test_worker_death_requeues_and_restarts(self, tmp_path):
        with _new_pool(2) as p:
            sentinel = str(tmp_path / "died-once")
            tasks = [PoolTask(fn=_square, args=(i,)) for i in range(4)]
            tasks.insert(2, PoolTask(fn=_die_once, args=(sentinel,)))
            results = p.run(tasks)
            assert results[2] == "survived"
            assert [r for i, r in enumerate(results) if i != 2] == [
                0, 1, 4, 9,
            ]
            assert p.stats().worker_restarts >= 1

    def test_kill_worker_then_reuse(self):
        with _new_pool(2) as p:
            p.run([PoolTask(fn=_square, args=(1,))])
            before = p.stats().worker_restarts
            p.kill_worker(0)
            p.kill_worker(1)
            out = p.run([PoolTask(fn=_square, args=(i,)) for i in range(6)])
            assert out == [i * i for i in range(6)]
            assert p.stats().worker_restarts == before + 2

    def test_shutdown_while_run_in_flight(self):
        """Regression: shutting the pool down mid-``run`` (from another
        thread, as the serving layer's close path does) must fail the
        run promptly instead of respawning replacement workers — the
        shutdown finalizer runs only once, so replacements spawned
        after it would never be reaped — and must leave no live worker
        processes behind."""
        import threading

        p = _new_pool(1)
        procs = [w.process for w in p._workers if w is not None]
        failure: dict = {}

        def runner():
            try:
                p.run(
                    [PoolTask(fn=_sleep_for, args=(0.5,))
                     for _ in range(6)]
                )
                failure["error"] = None
            except RuntimeError as exc:
                failure["error"] = exc

        thread = threading.Thread(target=runner)
        thread.start()
        time.sleep(0.2)  # first task in flight on the worker
        p.shutdown()
        thread.join(timeout=30)  # pre-fix guard: the run must not hang
        assert not thread.is_alive()
        assert isinstance(failure.get("error"), RuntimeError)
        assert "shut down" in str(failure["error"])
        # No replacement workers were spawned and everything is dead.
        deadline = time.monotonic() + 10
        live = [w for w in p._workers if w is not None]
        all_procs = procs + [w.process for w in live]
        while time.monotonic() < deadline:
            if not any(proc.is_alive() for proc in all_procs):
                break
            time.sleep(0.05)
        assert not any(proc.is_alive() for proc in all_procs)
        p.shutdown()  # still idempotent


class TestObservabilityBridges:
    def test_metrics_deltas_merge_across_workers(self):
        profiles = [get_application("CoMD"), get_application("MaxFlops")]
        # Whole-queue batches keep the repeat sweep steal-free, so every
        # warm lookup lands on the worker that computed it.
        with _new_pool(2, batch_size=2 * 7) as p:
            n_tasks = 2 * 7
            _, cold = parallel_explore(
                profiles, n_chunks=7, pool=p, metrics=True
            )
            assert cold.counter("cache.eval.misses") == n_tasks
            # Steal-free warm repeat: every lookup must hit the cache
            # that worker warmed itself.
            _, warm = parallel_explore(
                profiles, n_chunks=7, pool=p, metrics=True
            )
            assert warm.counter("cache.eval.misses") == 0
            assert warm.counter("cache.eval.hits") == n_tasks
            merged = p.merged_snapshot()
            assert merged.counter("cache.eval.misses") == n_tasks
            assert any(rate > 0 for rate in p.shard_cache_hit_rates())

    def test_worker_memory_gauges_republished(self):
        with _new_pool(2) as p:
            p.run(
                [PoolTask(fn=_square, args=(i,)) for i in range(4)],
                metrics=True,
            )
            gauges = obs_metrics.default_registry().snapshot().gauges
            worker_gauges = [
                name for name in gauges if name.startswith("pool.worker")
            ]
            assert any(name.endswith(".rss_bytes") for name in worker_gauges)
            assert all(gauges[name] > 0 for name in worker_gauges)

    def test_worker_spans_merged_into_parent_trace(self):
        with _new_pool(2) as p:
            with obs_trace.trace() as tracer:
                p.run(
                    [
                        PoolTask(fn=_square, args=(i,), label=f"task.{i}")
                        for i in range(4)
                    ]
                )
            names = {e["name"] for e in tracer.events}
            assert {f"task.{i}" for i in range(4)} <= names
            worker_pids = {
                e["pid"]
                for e in tracer.events
                if e["name"].startswith("task.")
            }
            assert worker_pids and os.getpid() not in worker_pids

    def test_task_spans_form_connected_tree_across_workers(self):
        """One pool.run renders as one connected tree: every task span,
        worker-side or in-process, is a ``cat="pool"`` child of the
        pool.run span, named by its label, with exact deterministic
        ids."""
        with _new_pool(2) as workers:
            for p in (workers, ShardedPool(0)):
                tracer = obs_trace.Tracer(
                    context=obs_trace.SpanContext.root("t1")
                )
                with obs_trace.trace(tracer=tracer):
                    p.run(
                        [
                            PoolTask(fn=_square, args=(i,), label=f"task.{i}")
                            for i in range(4)
                        ]
                    )
                (run_event,) = [
                    e for e in tracer.events if e["name"] == "pool.run"
                ]
                assert run_event["args"]["trace_id"] == "t1"
                assert run_event["args"]["span_id"] == "0.1"
                assert run_event["args"]["parent_id"] == "0"
                assert run_event["args"]["tasks"] == 4
                task_events = [
                    e for e in tracer.events if e["name"].startswith("task.")
                ]
                assert len(task_events) == 4
                for event in task_events:
                    assert event["cat"] == "pool"
                    assert event["args"]["trace_id"] == "t1"
                    assert event["args"]["parent_id"] == "0.1"
                # Task ids are the four children of pool.run, one each.
                assert {e["args"]["span_id"] for e in task_events} == {
                    "0.1.1", "0.1.2", "0.1.3", "0.1.4",
                }


class TestPayloadDedup:
    def test_repeat_run_returns_parent_cached_objects(self, pool):
        tasks = [
            PoolTask(
                fn=_square, args=(i,), dedup_key=f"sq-{i}", shard_key=i
            )
            for i in range(6)
        ]
        first = pool.run(tasks)
        second = pool.run(tasks)
        assert second == first
        # The worker executed but shipped only a reference; the parent
        # answered from its payload store with the same objects.
        for a, b in zip(first, second):
            assert a is b

    def test_dedup_disabled_with_zero_cache(self):
        with _new_pool(1, result_cache_size=0) as p:
            tasks = [
                PoolTask(fn=_square, args=(3,), dedup_key="sq-3")
            ]
            assert p.run(tasks) == [9]
            assert p.run(tasks) == [9]


class TestConcurrentSpill:
    def test_shared_spill_dir_under_contention(self, tmp_path):
        # Eight tasks, all computing the same key against one spill
        # directory, spread round-robin so both workers race on the
        # same file. Atomic tmp+rename must keep every entry readable.
        spill = str(tmp_path)
        with _new_pool(2, policy="roundrobin") as p:
            results = p.run(
                [
                    PoolTask(fn=_spill_sweep, args=(spill, 11))
                    for _ in range(8)
                ],
                batch_size=1,
            )
        assert all(r == results[0] for r in results)
        files = os.listdir(spill)
        assert any(name.endswith(".pkl") for name in files)
        # No orphaned temp files from the racing writers.
        assert not [name for name in files if ".tmp" in name]
        # A fresh cache warm-starts from the surviving spill entry.
        probe = MemsysCache(spill_dir=spill)
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 20, size=1500)
        writes = rng.random(1500) < 0.5
        probe.dram_stats(addrs, writes, capacity_bytes=1 << 19)
        assert probe.stats().spill_hits == 1

    def test_corrupt_spill_entry_degrades_to_miss(self, tmp_path):
        spill = str(tmp_path)
        # Seed the directory, then corrupt every entry in place.
        _spill_sweep(spill, 23)
        reference = _spill_sweep(spill, 23)
        for name in os.listdir(spill):
            with open(os.path.join(spill, name), "wb") as fh:
                fh.write(b"\x00partial or torn write")
        with _new_pool(2, policy="roundrobin") as p:
            results = p.run(
                [
                    PoolTask(fn=_spill_sweep, args=(spill, 23))
                    for _ in range(4)
                ],
                batch_size=1,
            )
        assert all(r == reference for r in results)


class TestPooledFanouts:
    SUBSET = ["table1", "fig7", "dse"]

    def test_parallel_explore_pool_identical_to_serial(self, executor):
        profiles = [get_application("CoMD"), get_application("MaxFlops")]
        serial = explore(profiles, cache=False)
        pooled = parallel_explore(profiles, n_chunks=5, pool=executor)
        assert pooled.best_mean_index == serial.best_mean_index
        assert dict(pooled.per_app_best_index) == dict(
            serial.per_app_best_index
        )
        for name in serial.performance:
            assert np.array_equal(
                pooled.performance[name], serial.performance[name]
            )
            assert np.array_equal(
                pooled.node_power[name], serial.node_power[name]
            )

    def test_parallel_explore_roundrobin_identical(self):
        profiles = [get_application("CoMD"), get_application("MaxFlops")]
        serial = explore(profiles, cache=False)
        with _new_pool(2, policy="roundrobin") as p:
            pooled = parallel_explore(profiles, n_chunks=5, pool=p)
        assert pooled.best_mean_index == serial.best_mean_index
        for name in serial.performance:
            assert np.array_equal(
                pooled.performance[name], serial.performance[name]
            )

    def test_parallel_explore_identical_after_worker_death(self, pool):
        profiles = [get_application("CoMD"), get_application("MaxFlops")]
        serial = explore(profiles, cache=False)
        pool.kill_worker(0)
        pooled = parallel_explore(profiles, n_chunks=5, pool=pool)
        assert pooled.best_mean_index == serial.best_mean_index
        for name in serial.performance:
            assert np.array_equal(
                pooled.performance[name], serial.performance[name]
            )

    def test_run_experiments_pool_matches_serial(self, executor):
        serial = {name: EXPERIMENTS[name]() for name in self.SUBSET}
        pooled = run_experiments(self.SUBSET, pool=executor)
        assert list(pooled) == self.SUBSET
        for name in serial:
            assert pooled[name].rendered == serial[name].rendered
            assert pooled[name].data == serial[name].data
