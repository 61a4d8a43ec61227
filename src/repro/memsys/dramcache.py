"""Hardware DRAM-cache mode for the in-package 3D DRAM (Section II-B3).

The ENA's alternative memory mode treats the 256 GB of in-package DRAM
as a hardware-managed cache over external memory. The paper notes the
trade-off: the cached capacity disappears from the addressable space
(20% of the node's 1.25 TB), so HPC deployments usually prefer the
software-managed flat mode — but problems that fit in external memory
alone get a transparent performance uplift.

The model is a set-associative cache with cache-line-grain sectors and
page-grain allocation, tracked with simple LRU, sized for functional
behaviour studies rather than cycle accuracy.

Two interchangeable engines stream a trace through the cache:

``engine="event"``
    The original one-address-at-a-time loop over
    :meth:`DramCache.access`, kept verbatim as the readable
    specification and test oracle.

``engine="array"`` (default, via :meth:`DramCache.access_many`)
    Set and tag indices are resolved for the whole stream as flat numpy
    columns, each access's home set is pre-bound into a list (one list
    index in the hot loop instead of two dict lookups), and the LRU
    state is replayed per set over the same insertion-ordered dicts the
    scalar path mutates — so the two engines share state and are
    bit-identical, while the per-access cost drops from a method call
    plus scalar address arithmetic to a single sentinel ``dict.pop``
    plus reinsert on local variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.engines import check_engine

__all__ = ["DramCacheStats", "DramCache", "ENGINES"]

ENGINES = ("array", "event")
"""Valid values for the ``engine`` selector (the first is the default)."""

_MISS = object()
"""Sentinel distinguishing a miss from a cached ``False`` dirty bit."""


@dataclass
class DramCacheStats:
    """Access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when empty)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class DramCache:
    """Set-associative page-grain DRAM cache with LRU replacement.

    Parameters
    ----------
    capacity_bytes:
        Cache capacity (the in-package DRAM size in cache mode).
    page_bytes:
        Allocation grain; the paper's design space spans cache-line to
        page granularity — page-grain keeps tag overheads negligible.
    associativity:
        Ways per set.
    engine:
        Default execution engine for :meth:`run_trace`, ``"array"``
        (batched fast path) or ``"event"`` (the scalar oracle). Either
        can be overridden per call.
    """

    def __init__(
        self,
        capacity_bytes: float = 256.0e9,
        page_bytes: int = 4096,
        associativity: int = 8,
        engine: str = "array",
    ):
        if capacity_bytes <= 0 or page_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        n_frames = int(capacity_bytes // page_bytes)
        if n_frames < associativity:
            raise ValueError("capacity too small for one set")
        self.page_bytes = page_bytes
        self.associativity = associativity
        self.n_sets = n_frames // associativity
        self.engine = check_engine(engine, ENGINES)
        # set index -> insertion-ordered dict of tag -> dirty flag; the
        # first key is always the LRU way (pop + reinsert on every hit).
        self._sets: dict[int, dict[int, bool]] = {}
        self.stats = DramCacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        page = address // self.page_bytes
        return page % self.n_sets, page // self.n_sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Look up one address; returns True on hit.

        Misses allocate (fetching from external memory); LRU victims
        that are dirty count as writebacks.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        set_index, tag = self._locate(address)
        ways = self._sets.setdefault(set_index, {})
        if tag in ways:
            # Pop + reinsert moves the way to the MRU (last) position
            # while accumulating the dirty bit.
            ways[tag] = ways.pop(tag) or is_write
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(ways) >= self.associativity:
            dirty = ways.pop(next(iter(ways)))
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        ways[tag] = is_write
        return False

    def _check_writes(self, addresses: np.ndarray, writes) -> np.ndarray:
        if writes is None:
            return np.zeros(len(addresses), dtype=bool)
        writes = np.asarray(writes, dtype=bool)
        if len(writes) != len(addresses):
            raise ValueError("writes length must match addresses")
        return writes

    def access_many(self, addresses, writes=None) -> np.ndarray:
        """Batched lookup of a whole address stream (the array engine).

        Returns the per-access hit flags; statistics and LRU state
        advance exactly as the equivalent sequence of :meth:`access`
        calls would (the two paths share the same per-set structures, so
        scalar and batched calls can be freely interleaved).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        writes = self._check_writes(addresses, writes)
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if int(addresses.min()) < 0:
            raise ValueError("address must be non-negative")

        # Whole-stream set/tag columns (same arithmetic as _locate),
        # then pre-bind each access's home set to one list entry so the
        # hot loop never re-hashes the set index.
        pages = addresses // self.page_bytes
        set_col = pages % self.n_sets
        tag_col = pages // self.n_sets
        sets_map = self._sets
        for s in np.unique(set_col).tolist():
            if s not in sets_map:
                sets_map[s] = {}
        ways_of = list(map(sets_map.__getitem__, set_col.tolist()))

        flags: list[bool] = []
        append = flags.append
        hits = misses = evictions = writebacks = 0
        assoc = self.associativity
        for ways, tag, is_write in zip(
            ways_of, tag_col.tolist(), writes.tolist()
        ):
            # Single hashed operation per hit: pop with a sentinel
            # default both tests membership and removes the way, and
            # the reinsert lands it at the MRU position.
            dirty = ways.pop(tag, _MISS)
            if dirty is not _MISS:
                ways[tag] = dirty or is_write
                hits += 1
                append(True)
            else:
                misses += 1
                if len(ways) >= assoc:
                    victim = ways.pop(next(iter(ways)))
                    evictions += 1
                    if victim:
                        writebacks += 1
                ways[tag] = is_write
                append(False)
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        return np.asarray(flags, dtype=bool)

    def run_trace(self, addresses, writes=None,
                  engine: str | None = None) -> DramCacheStats:
        """Stream a whole trace; returns the cumulative statistics."""
        engine = (
            self.engine if engine is None else check_engine(engine, ENGINES)
        )
        addresses = np.asarray(addresses, dtype=np.int64)
        with obs_trace.span(
            "dramcache.run_trace", engine=engine,
            accesses=int(addresses.size),
        ):
            if engine == "array":
                self.access_many(addresses, writes)
            else:
                writes = self._check_writes(addresses, writes)
                for addr, w in zip(addresses.tolist(), writes.tolist()):
                    self.access(addr, w)
        obs_metrics.inc("memsys.dramcache.runs")
        obs_metrics.inc("memsys.dramcache.accesses", int(addresses.size))
        return self.stats

    @property
    def resident_pages(self) -> int:
        """Pages currently cached."""
        return sum(len(ways) for ways in self._sets.values())

    def addressable_capacity_loss(self, external_bytes: float) -> float:
        """Fraction of total node memory hidden by cache mode.

        With 256 GB cached over 1 TB external, 20% of the 1.25 TB
        address space disappears — the paper's argument for flat mode.
        """
        if external_bytes <= 0:
            raise ValueError("external_bytes must be positive")
        cache_bytes = self.n_sets * self.associativity * self.page_bytes
        return cache_bytes / (cache_bytes + external_bytes)
