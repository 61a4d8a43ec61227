"""Oracle equivalence of the array-engine APU simulator.

The event-driven implementation (``engine="event"``) is the readable
specification; the array engine (``engine="array"``, the default) must
reproduce its results on every shared field at tight tolerance. The
array engine is in fact a bit-exact replay of the event schedule, so
these assertions use rtol=1e-9 as the contract while the implementation
delivers equality.
"""

import inspect

import numpy as np
import pytest

from repro.sim.apu_sim import ENGINES, ApuSimConfig, ApuSimulator
from repro.workloads.catalog import application_names, get_application
from repro.workloads.traces import MemoryTrace, TraceGenerator

RTOL = 1e-9

# The configuration grid the issue calls out: the default, a single-CU
# machine (no cross-CU concurrency), a chiplet organization with extra
# hop latency, a narrow-DRAM machine (deep service queue), and a deep
# wavefront pool (more slot contention per CU).
CONFIGS = {
    "default": ApuSimConfig(),
    "one_cu": ApuSimConfig(n_cus=1),
    "one_cu_one_wf": ApuSimConfig(n_cus=1, wavefronts_per_cu=1),
    "chiplet": ApuSimConfig(chiplet_extra_latency=25e-9),
    "narrow_dram": ApuSimConfig(dram_bandwidth=10e9),
    "deep_pool": ApuSimConfig(n_cus=4, wavefronts_per_cu=32),
}


def make_trace(app: str, n: int, seed: int = 42) -> MemoryTrace:
    return TraceGenerator(get_application(app), seed=seed).generate(n)


def assert_equivalent(array, event):
    assert array.elapsed == pytest.approx(event.elapsed, rel=RTOL)
    assert array.total_flops == pytest.approx(event.total_flops, rel=RTOL)
    assert array.total_accesses == event.total_accesses
    assert array.dram_accesses == event.dram_accesses
    assert array.cu_utilization == pytest.approx(
        event.cu_utilization, rel=RTOL
    )
    assert array.mean_memory_latency == pytest.approx(
        event.mean_memory_latency, rel=RTOL
    )
    assert set(array.hit_rates) == set(event.hit_rates)
    for level, rate in event.hit_rates.items():
        assert array.hit_rates[level] == pytest.approx(rate, rel=RTOL)


class TestOracleEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_config_grid(self, config_name):
        config = CONFIGS[config_name]
        trace = make_trace("CoMD", 6000)
        sim = ApuSimulator(config)
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))

    @pytest.mark.parametrize("app", ["MaxFlops", "SNAP", "XSBench"])
    def test_application_mix(self, app):
        # Compute-bound, memory-bound and random-access traces exercise
        # different branches (slot-bound vs DRAM-queue-bound schedules).
        trace = make_trace(app, 5000)
        sim = ApuSimulator()
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_tiny_traces(self, n):
        trace = make_trace("CoMD", n)
        sim = ApuSimulator()
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))

    def test_trace_shorter_than_wavefront_pool(self):
        # Fewer accesses than n_cus * wavefronts_per_cu: most wavefronts
        # get an empty partition and must be skipped identically.
        config = ApuSimConfig(n_cus=16, wavefronts_per_cu=8)
        trace = make_trace("LULESH", 100)
        assert len(trace) < config.n_cus * config.wavefronts_per_cu
        sim = ApuSimulator(config)
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))

    def test_partition_remainder(self):
        # A trace length that is not a multiple of the wavefront count
        # leaves some partitions one access longer than others.
        trace = make_trace("CoMD", 16 * 8 * 3 + 5)
        sim = ApuSimulator()
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seed_sweep(self, seed):
        trace = make_trace("MiniAMR", 4000, seed=seed)
        sim = ApuSimulator()
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))

    def test_bit_identical_on_default_trace(self):
        # Stronger than the rtol contract: the array engine replays the
        # event schedule exactly, so scalar fields match bit for bit.
        trace = make_trace("CoMD", 6000)
        sim = ApuSimulator()
        a = sim.run(trace)
        e = sim.run(trace, engine="event")
        assert (a.elapsed, a.total_flops, a.mean_memory_latency) == (
            e.elapsed, e.total_flops, e.mean_memory_latency
        )
        assert a.hit_rates == e.hit_rates


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("array", "event")
        for method in (ApuSimulator.run, ApuSimulator.run_batch):
            default = inspect.signature(method).parameters["engine"].default
            assert default == ENGINES[0]

    def test_unknown_engine_rejected(self):
        trace = make_trace("CoMD", 10)
        with pytest.raises(ValueError, match="unknown engine"):
            ApuSimulator().run(trace, engine="oracle")
        with pytest.raises(ValueError, match="unknown engine"):
            ApuSimulator().run_batch([trace], engine="fast")

    def test_per_call_override(self):
        # One instance serves both engines, call by call, with no state
        # carried from one run into the next.
        trace = make_trace("CoMD", 2000)
        sim = ApuSimulator()
        event = sim.run(trace, engine="event")
        assert_equivalent(sim.run(trace), event)
        assert_equivalent(sim.run(trace, engine="event"), event)


class TestRunBatch:
    def test_matches_individual_runs(self):
        sim = ApuSimulator()
        traces = [make_trace(app, 2000) for app in ("CoMD", "SNAP")]
        batched = sim.run_batch(traces)
        for trace, res in zip(traces, batched):
            assert_equivalent(res, sim.run(trace, engine="event"))

    def test_cold_caches_per_trace(self):
        # Running the same trace twice in one batch must give identical
        # results: no cache state may leak between batch entries.
        sim = ApuSimulator()
        trace = make_trace("XSBench", 3000)
        a, b = sim.run_batch([trace, trace])
        assert a == b

    def test_event_engine_batch(self):
        sim = ApuSimulator()
        trace = make_trace("CoMD", 1500)
        (res,) = sim.run_batch([trace], engine="event")
        assert_equivalent(sim.run(trace), res)

    def test_empty_trace_rejected(self):
        empty = MemoryTrace(
            addresses=np.array([], dtype=np.int64),
            is_write=np.array([], dtype=bool),
            flops_between=np.array([]),
            footprint_bytes=1024.0,
        )
        with pytest.raises(ValueError, match="empty trace"):
            ApuSimulator().run_batch([make_trace("CoMD", 10), empty])


def test_every_application_equivalent_quick():
    # One small trace per Table I application, both engines.
    sim = ApuSimulator(ApuSimConfig(n_cus=4, wavefronts_per_cu=4))
    for app in application_names():
        trace = make_trace(app, 1200)
        assert_equivalent(sim.run(trace), sim.run(trace, engine="event"))
