"""Hypothesis property tests on core invariants across modules.

These complement the per-module tests with randomized invariants: the
performance model's monotonicities and conservation laws, the power
model's positivity and scaling, and the data-structure substrates'
behavioural contracts.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.config import EHPConfig
from repro.core.node import NodeModel
from repro.memsys.dramcache import DramCache
from repro.memsys.interleave import AddressInterleaver
from repro.memsys.rowbuffer import RowBufferSim
from repro.perfmodel.roofline import evaluate_kernel
from repro.power.components import PowerParams
from repro.ras.checkpoint import CheckpointModel
from repro.ras.ecc import ecc_overhead_bits
from repro.sim.apu_sim import ApuSimConfig, ApuSimulator
from repro.sim.cache_sim import CacheLevel, CacheSim
from repro.workloads.kernels import KernelCategory, KernelProfile
from repro.workloads.traces import MemoryTrace

cus = st.sampled_from([192, 224, 256, 288, 320, 352, 384])
freqs = st.floats(min_value=0.7e9, max_value=1.5e9)
bws = st.floats(min_value=1e12, max_value=7e12)


def random_profile(draw) -> KernelProfile:
    return KernelProfile(
        name="h",
        category=KernelCategory.BALANCED,
        description="hypothesis",
        flops=1e12,
        bytes_per_flop=draw(st.floats(min_value=0.001, max_value=2.5)),
        parallel_fraction=draw(st.floats(min_value=0.3, max_value=1.0)),
        cache_hit_rate=draw(st.floats(min_value=0.05, max_value=0.9)),
        thrash_pressure=draw(st.floats(min_value=0.0, max_value=1.5)),
        latency_sensitivity=draw(st.floats(min_value=0.005, max_value=0.9)),
        mlp_per_cu=draw(st.floats(min_value=4.0, max_value=96.0)),
        cu_utilization=draw(st.floats(min_value=0.2, max_value=0.98)),
    )


profiles = st.builds(lambda d: random_profile(lambda s: d.draw(s)), st.data())


class TestPerformanceModelInvariants:
    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=50, deadline=None)
    def test_time_and_rates_positive(self, data, n, f, b):
        p = random_profile(data.draw)
        m = evaluate_kernel(p, n, f, b)
        assert float(m.time) > 0
        assert float(m.flops_rate) > 0
        assert float(m.hit_rate) >= 0

    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=50, deadline=None)
    def test_achieved_close_to_hardware_peak(self, data, n, f, b):
        # The CU-scaling power law anchors at the 256-CU reference, so
        # strongly sub-linear kernels evaluated *below* the anchor can
        # slightly exceed the naive N*64*f peak (fewer CUs -> less
        # divergence/contention -> higher per-CU throughput). Bounded by
        # (256/N)^(1-alpha) * issue_efficiency ~= 1.11 at the grid edge.
        p = random_profile(data.draw)
        peak = 64.0 * n * f
        assert float(evaluate_kernel(p, n, f, b).flops_rate) <= peak * 1.15

    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=50, deadline=None)
    def test_traffic_conservation(self, data, n, f, b):
        p = random_profile(data.draw)
        m = evaluate_kernel(p, n, f, b, ext_fraction=0.4)
        miss = float(m.dram_traffic + m.ext_traffic)
        assert miss <= float(m.llc_traffic) + 1e-6

    @given(st.data(), cus, freqs)
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_monotone(self, data, n, f):
        p = random_profile(data.draw)
        t1 = float(evaluate_kernel(p, n, f, 2e12).time)
        t2 = float(evaluate_kernel(p, n, f, 2.5e12).time)
        assert t2 <= t1 * (1 + 1e-9)

    @given(st.data(), cus, bws)
    @settings(max_examples=40, deadline=None)
    def test_frequency_degradation_bounded(self, data, n, b):
        # Higher frequency can *hurt* memory-bound kernels (the
        # contention-driven decline the paper's Section IV describes).
        # The bounded queueing term caps the loss: steepest right at the
        # saturation knee (low-bandwidth, latency-bound corner cases),
        # never a collapse (worst case: the latency multiplier rises
        # from 1+2*rho^4 toward its 3x cap as rho crosses 1).
        p = random_profile(data.draw)
        t1 = float(evaluate_kernel(p, n, 1.0e9, b).time)
        t2 = float(evaluate_kernel(p, n, 1.1e9, b).time)
        assert t2 <= t1 * 1.5


class TestPowerModelInvariants:
    @given(st.data(), cus, freqs, bws)
    @settings(max_examples=40, deadline=None)
    def test_node_power_positive_and_bounded(self, data, n, f, b):
        p = random_profile(data.draw)
        model = NodeModel()
        ev = model.evaluate_arrays(p, float(n), f, b)
        power = float(ev.node_power)
        assert 30.0 < power < 600.0

    @given(cus, freqs)
    @settings(max_examples=40, deadline=None)
    def test_cu_dynamic_monotone_in_frequency(self, n, f):
        params = PowerParams()
        assume(f * 1.1 <= 1.6e9)
        lo = float(params.cu_dynamic_power(n, f, 0.5))
        hi = float(params.cu_dynamic_power(n, f * 1.1, 0.5))
        assert hi > lo

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_activity_scales_dynamic_power(self, activity):
        params = PowerParams()
        full = float(params.cu_dynamic_power(320, 1e9, 1.0))
        part = float(params.cu_dynamic_power(320, 1e9, activity))
        assert part == pytest.approx(full * activity, rel=1e-9)


class TestSubstrateContracts:
    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=30, deadline=None)
    def test_ecc_overhead_monotone_nonincreasing_relative(self, bits):
        # Wider words amortize check bits: relative overhead at 2x the
        # width never exceeds the overhead at 1x.
        r1 = ecc_overhead_bits(bits) / bits
        r2 = ecc_overhead_bits(2 * bits) / (2 * bits)
        assert r2 <= r1 + 1e-12

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 30),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_interleaver_partitions_addresses(self, addrs):
        il = AddressInterleaver()
        hist = il.channel_histogram(np.array(addrs))
        assert hist.sum() == len(addrs)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_dram_cache_accounting(self, addrs):
        cache = DramCache(capacity_bytes=64 * 4096, associativity=4)
        stats = cache.run_trace(np.array(addrs))
        assert stats.hits + stats.misses == len(addrs)
        assert cache.resident_pages <= 64
        assert stats.writebacks <= stats.evictions

    @given(
        st.floats(min_value=3600.0, max_value=1e7),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_checkpoint_optimal_interval_is_optimal(self, mttf, factor):
        # Young's interval is the first-order optimum, valid for
        # MTTF >> checkpoint cost; within that regime no fixed interval
        # beats it by more than the approximation error.
        cm = CheckpointModel()
        assume(abs(factor - 1.0) > 0.05)
        best = cm.efficiency(mttf)
        other = cm.efficiency(mttf, cm.optimal_interval(mttf) * factor)
        assert other <= best + 2e-2

    @given(st.integers(min_value=192, max_value=384))
    @settings(max_examples=30, deadline=None)
    def test_config_validation_total(self, n):
        if n % 8:
            with pytest.raises(ValueError):
                EHPConfig(n_cus=n)
        else:
            assert EHPConfig(n_cus=n).cus_per_chiplet == n // 8


def _small_hierarchy() -> CacheSim:
    return CacheSim(
        [
            CacheLevel("L1", 8 * 1024, 64, 4),
            CacheLevel("LLC", 64 * 1024, 64, 8),
        ]
    )


def _trace_from(addresses, flops) -> MemoryTrace:
    addresses = np.asarray(addresses, dtype=np.int64) * 64
    return MemoryTrace(
        addresses=addresses,
        is_write=np.zeros(len(addresses), dtype=bool),
        flops_between=np.asarray(flops, dtype=float),
        footprint_bytes=float(addresses.max() + 64),
    )


class TestSimulatorInvariants:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_hit_rates_bounded_and_conserved(self, lines):
        sim = _small_hierarchy()
        stats = sim.run_trace(np.asarray(lines, dtype=np.int64) * 64)
        for rate in stats.values():
            assert 0.0 <= rate <= 1.0
        l1, llc = sim.levels
        # Inclusive hierarchy: every L1 miss reaches the LLC, every LLC
        # miss reaches DRAM.
        assert l1.stats.accesses == len(lines)
        assert llc.stats.accesses == l1.stats.misses
        assert sim.dram_accesses == llc.stats.misses

    @given(
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=1200),
    )
    @settings(max_examples=30, deadline=None)
    def test_dram_fraction_monotone_in_working_set(self, w1, delta):
        # Cyclic sweeps over a working set of W lines: under LRU a larger
        # working set can only miss more (W/n compulsory misses while the
        # set fits, every access once it thrashes).
        w2 = w1 + delta
        n = 2400
        fractions = []
        for w in (w1, w2):
            sim = _small_hierarchy()
            addrs = (np.arange(n, dtype=np.int64) % w) * 64
            fractions.append(sim.run_trace(addrs)["dram_fraction"])
        assert fractions[1] >= fractions[0] - 1e-12

    @given(
        st.data(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_flops_rate_bounded_by_peak(self, data, n_cus, wpc):
        n = data.draw(st.integers(min_value=1, max_value=120))
        lines = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1 << 16),
                min_size=n,
                max_size=n,
            )
        )
        flops = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e6),
                min_size=n,
                max_size=n,
            )
        )
        config = ApuSimConfig(n_cus=n_cus, wavefronts_per_cu=wpc)
        res = ApuSimulator(config).run(_trace_from(lines, flops))
        peak = config.n_cus * config.flops_per_cu_cycle * config.freq_hz
        assert res.flops_rate <= peak * (1.0 + 1e-9)
        assert 0.0 <= res.cu_utilization <= 1.0
        assert 0.0 <= res.dram_fraction <= 1.0
        for rate in res.hit_rates.values():
            assert 0.0 <= rate <= 1.0
        assert res.mean_memory_latency >= config.l1_latency - 1e-18

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_engines_agree_on_random_traces(self, data):
        # Randomized counterpart of tests/test_sim_oracle.py: both
        # engines agree on arbitrary (not generator-shaped) traces.
        n = data.draw(st.integers(min_value=1, max_value=80))
        lines = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1 << 12),
                min_size=n,
                max_size=n,
            )
        )
        flops = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e5),
                min_size=n,
                max_size=n,
            )
        )
        trace = _trace_from(lines, flops)
        sim = ApuSimulator(ApuSimConfig(n_cus=2, wavefronts_per_cu=3))
        a = sim.run(trace)
        e = sim.run(trace, engine="event")
        assert a.elapsed == pytest.approx(e.elapsed, rel=1e-9)
        assert a.total_flops == pytest.approx(e.total_flops, rel=1e-9)
        assert a.dram_accesses == e.dram_accesses
        assert a.mean_memory_latency == pytest.approx(
            e.mean_memory_latency, rel=1e-9
        )
        assert a.hit_rates == e.hit_rates


class TestMemsysEngineProperties:
    """Randomized scalar/array agreement and structural invariants for
    the memory-system engines (deterministic grid:
    tests/test_memsys_oracle.py)."""

    addresses = st.lists(
        st.integers(min_value=0, max_value=1 << 24), min_size=0, max_size=400
    )

    @given(addresses, st.sampled_from([1, 4, 32]))
    @settings(max_examples=30, deadline=None)
    def test_rowbuffer_engines_agree(self, addrs, n_banks):
        stream = np.asarray(addrs, dtype=np.int64)
        a = RowBufferSim(n_banks=n_banks, row_bytes=512)
        b = RowBufferSim(n_banks=n_banks, row_bytes=512)
        sa = a.run(stream)
        sb = b.run(stream, engine="event")
        assert (sa.hits, sa.misses, sa.bank_conflicts) == (
            sb.hits,
            sb.misses,
            sb.bank_conflicts,
        )
        assert 0.0 <= sa.hit_rate <= 1.0
        assert sa.accesses == len(addrs)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_dramcache_engines_agree(self, data):
        addrs = data.draw(self.addresses)
        writes = data.draw(
            st.lists(
                st.booleans(), min_size=len(addrs), max_size=len(addrs)
            )
        )
        assoc = data.draw(st.sampled_from([1, 2, 8]))
        page = data.draw(st.sampled_from([256, 4096]))
        capacity = assoc * page * data.draw(st.sampled_from([1, 4, 64]))
        stream = np.asarray(addrs, dtype=np.int64)
        wr = np.asarray(writes, dtype=bool)
        a = DramCache(capacity, page, assoc)
        b = DramCache(capacity, page, assoc)
        flags = a.access_many(stream, wr)
        expected = [b.access(int(x), bool(w)) for x, w in zip(stream, wr)]
        assert flags.tolist() == expected
        assert (a.stats.hits, a.stats.misses, a.stats.evictions,
                a.stats.writebacks) == (
            b.stats.hits, b.stats.misses, b.stats.evictions,
            b.stats.writebacks,
        )
        # Structural invariants: bounded occupancy, conservation.
        assert 0.0 <= a.stats.hit_rate <= 1.0
        assert a.stats.hits + a.stats.misses == len(addrs)
        assert a.resident_pages <= a.n_sets * a.associativity
        for ways in a._sets.values():
            assert 0 < len(ways) <= a.associativity

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_manager_engines_agree(self, data):
        n_epochs = data.draw(st.integers(min_value=1, max_value=4))
        capacity_pages = data.draw(st.integers(min_value=1, max_value=40))
        limit = data.draw(st.one_of(st.none(), st.integers(0, 10)))
        hot = data.draw(st.booleans())
        page = 4096

        def policy():
            from repro.memsys.manager import (
                FirstTouchPolicy,
                HotnessMigrationPolicy,
            )

            return (
                HotnessMigrationPolicy(limit) if hot else FirstTouchPolicy()
            )

        from repro.memsys.manager import MemoryManager

        a = MemoryManager(capacity_pages * page, policy(), page)
        b = MemoryManager(capacity_pages * page, policy(), page)
        for _ in range(n_epochs):
            addrs = data.draw(self.addresses)
            stream = np.asarray(addrs, dtype=np.int64)
            fa = a.epoch_array(stream)
            fb = b.epoch(stream)
            assert fa == pytest.approx(fb, rel=1e-9)
            assert 0.0 <= fa <= 1.0
            assert a.resident_pages <= a.capacity_pages
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated
