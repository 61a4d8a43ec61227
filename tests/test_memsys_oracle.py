"""Oracle-equivalence harness for the memsys array engines.

Every test drives the same input through ``engine="array"`` and the
retained scalar ``engine="event"`` oracle and requires identical
results: exact for integral counters, placements, and LRU orders,
``rtol=1e-9`` for the few float outputs (hit rates, fractions).
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.memsys.dramcache import DramCache
from repro.memsys.dramcache import ENGINES as DRAM_ENGINES
from repro.memsys.manager import (
    ENGINES as MANAGER_ENGINES,
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryManager,
)
from repro.memsys.rowbuffer import ENGINES as ROWBUFFER_ENGINES, RowBufferSim

RTOL = 1e-9

# Capacity (bytes), page/row size, associativity grid for the caches.
DRAM_GEOMETRIES = [
    (1 << 20, 256, 1),
    (1 << 20, 1024, 2),
    (4 << 20, 4096, 8),
    (64 << 20, 4096, 16),
]

ROWBUFFER_GEOMETRIES = [
    # (n_banks, row_bytes, interleave)
    (1, 1024, 256),
    (8, 512, 64),
    (128, 1024, 256),
    (16, 4096, 1024),
]


def _random_stream(rng, n, span):
    return rng.integers(0, span, size=n)


def _streams(rng, n=4000):
    """The equivalence stream grid: random spans plus degenerate cases."""
    return {
        "dense": _random_stream(rng, n, 1 << 16),
        "sparse": _random_stream(rng, n, 1 << 30),
        "single-address": np.zeros(n // 4, dtype=np.int64),
        "sequential": np.arange(n, dtype=np.int64) * 64,
        "empty": np.zeros(0, dtype=np.int64),
    }


# ----------------------------------------------------------------------
# RowBufferSim
# ----------------------------------------------------------------------
class TestRowBufferOracle:
    @pytest.mark.parametrize("geometry", ROWBUFFER_GEOMETRIES)
    def test_equivalence_grid(self, geometry):
        n_banks, row_bytes, interleave = geometry
        rng = np.random.default_rng(1234)
        for name, stream in _streams(rng).items():
            a = RowBufferSim(n_banks, row_bytes, interleave)
            b = RowBufferSim(n_banks, row_bytes, interleave)
            sa = a.run(stream)
            sb = b.run(stream, engine="event")
            assert astuple(sa) == astuple(sb), name
            assert np.array_equal(a._open_row, b._open_row), name
            assert a._last_bank == b._last_bank, name
            assert sa.hit_rate == pytest.approx(sb.hit_rate, rel=RTOL)

    def test_single_bank_stream(self):
        """All accesses land in one bank: every miss after the first to
        an open row is a bank conflict."""
        a = RowBufferSim(n_banks=1, row_bytes=64)
        b = RowBufferSim(n_banks=1, row_bytes=64)
        stream = np.array([0, 0, 64, 64, 128, 0], dtype=np.int64)
        assert astuple(a.run(stream)) == astuple(
            b.run(stream, engine="event")
        )
        assert a.stats.bank_conflicts == b.stats.bank_conflicts > 0

    def test_all_hits_stream(self):
        sim = RowBufferSim(n_banks=4, row_bytes=1024)
        sim.run(np.zeros(100, dtype=np.int64))
        assert sim.stats.hits == 99
        assert sim.stats.misses == 1

    def test_all_misses_stream(self):
        # Stride of a full row group: every access opens a new row in
        # bank 0.
        sim = RowBufferSim(
            n_banks=4, row_bytes=1024, channel_interleave_bytes=256
        )
        stride = 1024 * 4
        sim.run(np.arange(64, dtype=np.int64) * stride)
        assert sim.stats.hits == 0
        assert sim.stats.misses == 64

    def test_chunked_state_carry(self):
        """Array chunks and scalar replay agree across chunk seams."""
        rng = np.random.default_rng(7)
        stream = _random_stream(rng, 3000, 1 << 22)
        a = RowBufferSim()
        b = RowBufferSim()
        for chunk in np.array_split(stream, 7):
            a.run(chunk)
        b.run(stream, engine="event")
        assert astuple(a.stats) == astuple(b.stats)
        assert np.array_equal(a._open_row, b._open_row)

    def test_engine_selection(self):
        sim = RowBufferSim()
        with pytest.raises(ValueError):
            sim.run(np.zeros(1, dtype=np.int64), engine="nope")
        assert ROWBUFFER_ENGINES == ("array", "event")

    def test_negative_address_rejected(self):
        for engine in ROWBUFFER_ENGINES:
            sim = RowBufferSim()
            with pytest.raises(ValueError):
                sim.run(np.array([-1], dtype=np.int64), engine=engine)


# ----------------------------------------------------------------------
# DramCache
# ----------------------------------------------------------------------
class TestDramCacheOracle:
    @pytest.mark.parametrize("geometry", DRAM_GEOMETRIES)
    def test_equivalence_grid(self, geometry):
        capacity, page, assoc = geometry
        rng = np.random.default_rng(99)
        for name, stream in _streams(rng).items():
            writes = rng.random(len(stream)) < 0.3
            a = DramCache(capacity, page, assoc)
            b = DramCache(capacity, page, assoc)
            flags = a.run_trace(stream, writes)
            b.run_trace(stream, writes, engine="event")
            assert astuple(a.stats) == astuple(b.stats), name
            assert flags.hits + flags.misses == len(stream)
            # LRU state must match per set, *including order*.
            assert set(a._sets) == set(b._sets), name
            for s, ways in a._sets.items():
                assert list(ways.items()) == list(b._sets[s].items()), name
            assert a.stats.hit_rate == pytest.approx(
                b.stats.hit_rate, rel=RTOL
            )

    def test_hit_flags_match_scalar(self):
        rng = np.random.default_rng(5)
        stream = _random_stream(rng, 2000, 1 << 20)
        writes = rng.random(2000) < 0.5
        a = DramCache(1 << 18, 1024, 4)
        b = DramCache(1 << 18, 1024, 4)
        flags = a.access_many(stream, writes)
        expected = np.array(
            [b.access(int(x), bool(w)) for x, w in zip(stream, writes)],
            dtype=bool,
        )
        assert np.array_equal(flags, expected)

    def test_interleaved_scalar_and_batched(self):
        """The two entry points share LRU state."""
        rng = np.random.default_rng(17)
        a = DramCache(1 << 18, 1024, 4)
        b = DramCache(1 << 18, 1024, 4)
        for _ in range(10):
            chunk = _random_stream(rng, 200, 1 << 20)
            writes = rng.random(200) < 0.3
            a.access_many(chunk, writes)
            for x, w in zip(chunk.tolist(), writes.tolist()):
                b.access(x, w)
            probe = int(chunk[0])
            assert a.access(probe, True) == b.access(probe, True)
        assert astuple(a.stats) == astuple(b.stats)

    def test_all_hits_stream(self):
        cache = DramCache(1 << 20, 4096, 8)
        stream = np.zeros(50, dtype=np.int64)
        cache.run_trace(stream)
        assert cache.stats.hits == 49
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0

    def test_all_misses_stream_with_writebacks(self):
        # Two-way set 0 thrashed by three pages: every access misses
        # and every eviction of a written page writes back.
        page = 1024
        cache = DramCache(2 * page, page, 2)  # a single 2-way set
        assert cache.n_sets == 1
        stream = np.array([0, page, 2 * page] * 10, dtype=np.int64)
        writes = np.ones(len(stream), dtype=bool)
        oracle = DramCache(2 * page, page, 2)
        cache.run_trace(stream, writes)
        oracle.run_trace(stream, writes, engine="event")
        assert astuple(cache.stats) == astuple(oracle.stats)
        assert cache.stats.hits == 0
        assert cache.stats.writebacks == cache.stats.evictions > 0

    def test_empty_stream(self):
        cache = DramCache()
        flags = cache.access_many(np.zeros(0, dtype=np.int64))
        assert flags.size == 0
        assert cache.stats.accesses == 0

    def test_engine_selection(self):
        cache = DramCache()
        with pytest.raises(ValueError):
            cache.run_trace(np.zeros(1, dtype=np.int64), engine="nope")
        assert DRAM_ENGINES == ("array", "event")

    def test_negative_address_rejected(self):
        cache = DramCache()
        with pytest.raises(ValueError):
            cache.access_many(np.array([-4], dtype=np.int64))

    def test_writes_length_mismatch_rejected(self):
        cache = DramCache()
        with pytest.raises(ValueError):
            cache.access_many(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool)
            )

    def test_occupancy_bounded(self):
        rng = np.random.default_rng(3)
        cache = DramCache(1 << 16, 1024, 2)
        cache.access_many(_random_stream(rng, 5000, 1 << 26))
        assert cache.resident_pages <= cache.n_sets * cache.associativity
        for ways in cache._sets.values():
            assert len(ways) <= cache.associativity


# ----------------------------------------------------------------------
# MemoryManager
# ----------------------------------------------------------------------
def _manager_pair(policy_factory, capacity_pages=64, page=4096, limit=None):
    a = MemoryManager(capacity_pages * page, policy_factory(limit), page)
    b = MemoryManager(capacity_pages * page, policy_factory(limit), page)
    return a, b


def _hotness(limit):
    return HotnessMigrationPolicy(limit)


def _first_touch(_limit):
    return FirstTouchPolicy()


class TestManagerOracle:
    @pytest.mark.parametrize("factory", [_hotness, _first_touch])
    @pytest.mark.parametrize("limit", [None, 0, 7])
    def test_equivalence_epochs(self, factory, limit):
        rng = np.random.default_rng(21)
        a, b = _manager_pair(factory, capacity_pages=48, limit=limit)
        for _ in range(5):
            epoch = _random_stream(rng, 1500, 1 << 20)
            fa = a.epoch_array(epoch)
            fb = b.epoch(epoch)
            assert fa == pytest.approx(fb, rel=RTOL)
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated
        assert a.resident_pages == b.resident_pages

    def test_run_batch_matches_event(self):
        rng = np.random.default_rng(33)
        epochs = [_random_stream(rng, 800, 1 << 18) for _ in range(4)]
        a, b = _manager_pair(_hotness, capacity_pages=32)
        fa = a.run_batch(epochs)
        fb = b.run_batch(epochs, engine="event")
        assert fa == pytest.approx(fb, rel=RTOL)
        assert a.placement == b.placement

    def test_interleaved_engines_share_state(self):
        rng = np.random.default_rng(55)
        a, b = _manager_pair(_hotness, capacity_pages=16)
        for i in range(6):
            epoch = _random_stream(rng, 500, 1 << 16)
            if i % 2:
                fa = a.epoch(epoch)  # scalar on the array manager
            else:
                fa = a.epoch_array(epoch)
            fb = b.epoch(epoch)
            assert fa == pytest.approx(fb, rel=RTOL)
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated

    def test_empty_epoch(self):
        a, b = _manager_pair(_hotness)
        assert a.epoch_array(np.zeros(0, dtype=np.int64)) == 1.0
        assert b.epoch(np.zeros(0, dtype=np.int64)) == 1.0

    def test_occupancy_never_exceeds_capacity(self):
        rng = np.random.default_rng(8)
        manager = MemoryManager(8 * 4096, HotnessMigrationPolicy(), 4096)
        for _ in range(5):
            manager.epoch_array(_random_stream(rng, 400, 1 << 16))
            assert manager.resident_pages <= manager.capacity_pages

    def test_unknown_policy_falls_back_to_scalar(self):
        class WeirdPolicy(HotnessMigrationPolicy):
            """Subclass: the exact-type check must not claim it."""

        rng = np.random.default_rng(2)
        epoch = _random_stream(rng, 300, 1 << 14)
        a = MemoryManager(16 * 4096, WeirdPolicy(), 4096)
        b = MemoryManager(16 * 4096, WeirdPolicy(), 4096)
        assert a.epoch_array(epoch) == b.epoch(epoch)
        assert a.placement == b.placement

    def test_engine_selection(self):
        manager = MemoryManager(4096, FirstTouchPolicy())
        with pytest.raises(ValueError):
            manager.run_batch([], engine="nope")
        assert MANAGER_ENGINES == ("array", "event")
