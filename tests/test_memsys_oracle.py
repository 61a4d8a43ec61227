"""Oracle-equivalence harness for the memsys array engines.

Every test drives the same input through ``engine="array"`` and the
retained scalar ``engine="event"`` oracle and requires identical
results: exact for integral counters, placements, LRU orders and the
manager's in-package fractions, ``rtol=1e-9`` for the remaining float
outputs (hit rates).
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.memsys.dramcache import DramCache, DramCacheStats
from repro.memsys.dramcache import ENGINES as DRAM_ENGINES
from repro.memsys.manager import (
    ENGINES as MANAGER_ENGINES,
    FirstTouchPolicy,
    HotnessMigrationPolicy,
    MemoryLevel,
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
def _lru_state(cache):
    """Per-set ``[(tag, dirty), ...]`` in LRU->MRU order."""
    return {s: list(ways.items()) for s, ways in cache._sets.items()}


PAGE = 1024
ASSOC = 8


def _one_set(pages):
    """Addresses of *pages* in set 0 of ``DramCache(ASSOC * PAGE * 4,
    PAGE, ASSOC)`` (four sets), so every access contends for one set."""
    return np.asarray(pages, dtype=np.int64) * 4 * PAGE


def _ping_pong(n, period):
    """Pages 0/1 alternating, with page 2 every *period* accesses: each
    reuse of page 2 spans a long window holding only three pages."""
    pages = np.arange(n) % 2
    pages[period // 2::period] = 2
    return pages


ADVERSARIAL = {
    # A+1 pages cycled through one A-way set: every access misses after
    # a reuse gap of exactly A.
    "thrash": lambda n: _one_set(np.arange(n) % (ASSOC + 1)),
    # Long reuse windows packed with distinct pages.
    "cycle-1000": lambda n: _one_set(np.arange(n) % 1000),
    # Long reuse windows with few distinct pages: only the exhaustive
    # window count can call these hits.
    "ping-pong": lambda n: _one_set(_ping_pong(n, 1000)),
    # Exactly A pages in every set: all hits once warm.
    "working-set": lambda n: (np.arange(n) % (4 * ASSOC)) * PAGE,
}


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
        assert _lru_state(a) == _lru_state(b)

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

    @staticmethod
    def _adversarial_pair(warm):
        a = DramCache(ASSOC * PAGE * 4, PAGE, ASSOC)
        b = DramCache(ASSOC * PAGE * 4, PAGE, ASSOC)
        if warm:
            rng = np.random.default_rng(23)
            stream = _random_stream(rng, 300, 64 * PAGE)
            writes = rng.random(300) < 0.5
            a.access_many(stream, writes)
            b.run_trace(stream, writes, engine="event")
        return a, b

    @staticmethod
    def _replay_both(a, b, stream, writes):
        """Replay on both; returns the counters the stream added."""
        before = astuple(a.stats)
        flags = a.access_many(stream, writes)
        expected = [
            b.access(x, w) for x, w in zip(stream.tolist(), writes.tolist())
        ]
        assert flags.tolist() == expected
        assert astuple(a.stats) == astuple(b.stats)
        assert _lru_state(a) == _lru_state(b)
        return DramCacheStats(
            *(x - y for x, y in zip(astuple(a.stats), before))
        )

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_matches_oracle(self, name, warm):
        """Streams built to reach the exact-residue path (long reuse
        windows the O(1) tests cannot decide), from a cold and from a
        pre-warmed cache."""
        stream = ADVERSARIAL[name](5000)
        writes = np.random.default_rng(29).random(len(stream)) < 0.3
        a, b = self._adversarial_pair(warm)
        stats = self._replay_both(a, b, stream, writes)
        if name in ("thrash", "cycle-1000"):
            assert stats.hits <= ASSOC
        if name == "working-set":
            assert stats.misses <= 4 * ASSOC

    @pytest.mark.parametrize("warm", [False, True])
    def test_all_write_dirty_chains(self, warm):
        """Every access writes, over a working set a little larger than
        each set: every eviction is a writeback."""
        rng = np.random.default_rng(31)
        stream = _random_stream(rng, 4000, 6 * ASSOC * PAGE)
        writes = np.ones(len(stream), dtype=bool)
        a, b = self._adversarial_pair(warm)
        stats = self._replay_both(a, b, stream, writes)
        assert stats.evictions > 0
        if not warm:  # warm-up pages may be evicted clean
            assert stats.writebacks == stats.evictions

    def test_chunked_stream_matches_whole(self):
        """Carried state hands off exactly across batched chunks."""
        stream = ADVERSARIAL["ping-pong"](6000)
        writes = np.random.default_rng(37).random(len(stream)) < 0.3
        a, b = self._adversarial_pair(False)
        for idx in np.array_split(np.arange(len(stream)), 5):
            a.access_many(stream[idx], writes[idx])
        b.run_trace(stream, writes, engine="event")
        assert astuple(a.stats) == astuple(b.stats)
        assert _lru_state(a) == _lru_state(b)

    @pytest.mark.parametrize("engine", DRAM_ENGINES)
    def test_rejected_stream_leaves_cache_untouched(self, engine):
        """A stream that fails validation anywhere is rejected before
        either engine applies any of it."""
        rng = np.random.default_rng(11)
        cache = DramCache(1 << 16, 1024, 2)
        cache.run_trace(_random_stream(rng, 500, 1 << 20), engine=engine)
        stats, state = astuple(cache.stats), _lru_state(cache)
        bad = _random_stream(rng, 100, 1 << 20)
        bad[60] = -1
        with pytest.raises(ValueError):
            cache.run_trace(bad, engine=engine)
        with pytest.raises(ValueError):
            cache.run_trace(bad[:60], np.zeros(59, dtype=bool), engine=engine)
        assert astuple(cache.stats) == stats
        assert _lru_state(cache) == state



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


def _in_package(manager):
    return sorted(
        p for p, lvl in manager.placement.items()
        if lvl is MemoryLevel.IN_PACKAGE
    )


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
            assert fa == fb
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated
        assert a.resident_pages == b.resident_pages

    def test_run_batch_matches_event(self):
        rng = np.random.default_rng(33)
        epochs = [_random_stream(rng, 800, 1 << 18) for _ in range(4)]
        a, b = _manager_pair(_hotness, capacity_pages=32)
        fa = a.run_batch(epochs)
        fb = b.run_batch(epochs, engine="event")
        assert fa == fb
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
            assert fa == fb
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

    @pytest.mark.parametrize("method", ["epoch", "epoch_array"])
    def test_negative_address_leaves_state_untouched(self, method):
        rng = np.random.default_rng(13)
        manager = MemoryManager(8 * 4096, HotnessMigrationPolicy(), 4096)
        manager.epoch_array(_random_stream(rng, 300, 1 << 16))
        placement = dict(manager.placement)
        migrated = manager.total_migrated
        bad = _random_stream(rng, 300, 1 << 16)
        bad[150] = -4096
        with pytest.raises(ValueError, match="non-negative"):
            getattr(manager, method)(bad)
        engine = "event" if method == "epoch" else "array"
        with pytest.raises(ValueError, match="non-negative"):
            manager.run_batch([bad[:100], bad], engine=engine)
        assert manager.placement == placement
        assert manager.total_migrated == migrated

    def _assert_engines_agree(self, capacity_pages, epochs, limit=None):
        a, b = _manager_pair(_hotness, capacity_pages, limit=limit)
        for epoch in epochs:
            assert a.epoch_array(epoch) == b.epoch(epoch)
            assert a.resident_pages == b.resident_pages
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated
        return a

    def test_all_equal_counts_tie_break_on_page(self):
        # Every page is touched twice, so the lowest pages are wanted.
        epoch = np.repeat(np.arange(40, 0, -1, dtype=np.int64), 2) * 4096
        manager = self._assert_engines_agree(8, [epoch, epoch[::-1]])
        assert _in_package(manager) == list(range(1, 9))

    def test_equally_cold_victims_evict_lowest_page(self):
        # A migration limit of 3 fills the 8 frames over three epochs,
        # then moves only 3 of the 8 wanted pages in; every resident
        # page is untouched, so the victims are the 3 lowest.
        fill = np.arange(1, 9, dtype=np.int64) * 4096
        cold_out = np.repeat(np.arange(50, 60, dtype=np.int64), 2) * 4096
        manager = self._assert_engines_agree(
            8, [fill, fill, fill, cold_out], limit=3
        )
        assert _in_package(manager) == [4, 5, 6, 7, 8, 50, 51, 52]

    def test_capacity_equals_unique_pages(self):
        rng = np.random.default_rng(17)
        epochs = [rng.permutation(np.repeat(np.arange(32), 3)) * 4096
                  for _ in range(3)]
        manager = self._assert_engines_agree(32, epochs)
        assert manager.resident_pages == 32

    def test_every_victim_evicted(self):
        """The victim list is used up exactly: a full in-package DRAM
        whose whole contents turn cold. (The scalar loop's ``break`` on
        an empty victim list cannot fire: a promotion past the free
        room always has a resident page outside the wanted set.)"""
        first = np.arange(16, dtype=np.int64) * 4096
        second = np.repeat(np.arange(100, 116, dtype=np.int64), 2) * 4096
        manager = self._assert_engines_agree(16, [first, second])
        assert manager.total_migrated == 32
        assert all(
            manager.placement[p] is MemoryLevel.EXTERNAL for p in range(16)
        )

    def test_migration_limit_zero_never_migrates(self):
        rng = np.random.default_rng(19)
        epochs = [_random_stream(rng, 500, 1 << 18) for _ in range(3)]
        manager = self._assert_engines_agree(16, epochs, limit=0)
        assert manager.total_migrated == 0
        assert manager.resident_pages == 0

    @pytest.mark.parametrize("factory", [_hotness, _first_touch])
    def test_warm_up_epoch_then_array_run(self, factory):
        """The memory-management ablation's pattern: a scalar warm-up
        epoch fills in-package DRAM, then a batched run continues."""
        rng = np.random.default_rng(23)
        warm = (np.arange(24, dtype=np.int64) + 10_000) * 4096
        epochs = [
            rng.permutation(np.concatenate((
                rng.integers(0, 20, size=800),
                rng.integers(0, 400, size=200),
            ))) * 4096
            for _ in range(4)
        ]
        a, b = _manager_pair(factory, capacity_pages=24)
        a.epoch(warm)
        b.epoch(warm)
        assert a.run(epochs) == b.run(epochs, engine="event")
        assert a.placement == b.placement
        assert a.total_migrated == b.total_migrated
        assert a.resident_pages == b.resident_pages

    def test_engine_selection(self):
        manager = MemoryManager(4096, FirstTouchPolicy())
        with pytest.raises(ValueError):
            manager.run_batch([], engine="nope")
        assert MANAGER_ENGINES == ("array", "event")
