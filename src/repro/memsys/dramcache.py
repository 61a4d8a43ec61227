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

Two interchangeable engines stream a trace through the cache, chosen
per :meth:`DramCache.run_trace` call:

``engine="event"``
    The original one-address-at-a-time loop over
    :meth:`DramCache.access`, kept verbatim as the readable
    specification and test oracle.

``engine="array"`` (default, via :meth:`DramCache.access_many`)
    A whole-stream numpy replay by LRU stack distance (Mattson et al.,
    1970): an access hits iff fewer than ``associativity`` distinct
    pages of its set were touched since the page's previous access.
    The stream is stable-sorted by set (a ``uint16`` key radix-sorts)
    and each page's previous and next occurrence come from one more
    stable sort by page. Almost every access is then decided by array
    arithmetic — a first touch misses, a reuse gap shorter than the
    associativity hits, and a window holding at least that many first
    touches (a cumsum difference) misses. The few windows left are
    settled by counting distinct pages over window prefixes whose width
    doubles each round, in bounded chunks, until each window is
    exhausted or has seen ``associativity`` distinct pages; every
    position lies in at most ``associativity`` live windows, so the
    residue costs O(n * associativity) array work even on adversarial
    streams. Evictions and writebacks follow from residency episodes (a
    miss and the hits that follow it): every episode not resident at
    the end was evicted, and it writes back iff any of its accesses
    wrote.

The resident state (per set, the most recently used pages in LRU→MRU
order with their dirty bits) is kept as flat arrays after a batched
replay and enters the next one as a prefix of synthetic accesses whose
statistics are not counted. The per-set dicts that :meth:`access`
mutates are built from those arrays only when the scalar path or a
state inspection asks for them (``_sets``), so scalar and batched calls
interleave exactly, and a cache used once for a batched replay never
pays for them.
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

_CHUNK_ELEMENTS = 1 << 18
"""Cap on the window-prefix matrix size (rows x width) per numpy pass."""


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
    """

    def __init__(
        self,
        capacity_bytes: float = 256.0e9,
        page_bytes: int = 4096,
        associativity: int = 8,
    ):
        if capacity_bytes <= 0 or page_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        n_frames = int(capacity_bytes // page_bytes)
        if n_frames < associativity:
            raise ValueError("capacity too small for one set")
        self.page_bytes = page_bytes
        self.associativity = associativity
        self.n_sets = n_frames // associativity
        # The resident state lives in exactly one of two forms: per-set
        # dicts for the scalar path, or flat (page, dirty) arrays in
        # set-grouped LRU->MRU order for the batched one.
        self._ways: dict[int, dict[int, bool]] | None = None
        self._resident: tuple[np.ndarray, np.ndarray] | None = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool),
        )
        self.stats = DramCacheStats()

    @property
    def _sets(self) -> dict[int, dict[int, bool]]:
        """Set index -> insertion-ordered dict of tag -> dirty flag; the
        first key is always the LRU way (pop + reinsert on every hit).

        Built on first use from the arrays a batched replay left.
        """
        if self._ways is None:
            pages, dirty = self._resident
            ways: dict[int, dict[int, bool]] = {}
            for page, is_dirty in zip(pages.tolist(), dirty.tolist()):
                tag, set_index = divmod(page, self.n_sets)
                ways.setdefault(set_index, {})[tag] = is_dirty
            self._ways = ways
            self._resident = None
        return self._ways

    def _take_resident(self) -> tuple[np.ndarray, np.ndarray]:
        """The resident (page, dirty) arrays, converting from the dicts
        when the scalar path holds the state."""
        if self._resident is None:
            pages, dirty = [], []
            for set_index, ways in self._ways.items():
                for tag, is_dirty in ways.items():
                    pages.append(tag * self.n_sets + set_index)
                    dirty.append(is_dirty)
            self._resident = (
                np.asarray(pages, dtype=np.int64),
                np.asarray(dirty, dtype=bool),
            )
            self._ways = None
        return self._resident

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

    @staticmethod
    def _check_stream(addresses, writes) -> tuple[np.ndarray, np.ndarray]:
        """Validate a whole stream before either engine mutates state."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if writes is None:
            writes = np.zeros(len(addresses), dtype=bool)
        else:
            writes = np.asarray(writes, dtype=bool)
            if len(writes) != len(addresses):
                raise ValueError("writes length must match addresses")
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("address must be non-negative")
        return addresses, writes

    def access_many(self, addresses, writes=None) -> np.ndarray:
        """Batched lookup of a whole address stream (the array engine).

        Returns the per-access hit flags; statistics and LRU state
        advance exactly as the equivalent sequence of :meth:`access`
        calls would, so scalar and batched calls can be freely
        interleaved.
        """
        addresses, writes = self._check_stream(addresses, writes)
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=bool)
        carried, carried_dirty = self._take_resident()
        m = len(carried)
        # The carried state replays as a prefix of first touches in
        # LRU->MRU order: from an empty cache they rebuild exactly that
        # state (at most `associativity` pages per set, so nothing is
        # evicted), and their only statistic is `m` extra misses.
        pages = np.concatenate((carried, addresses // self.page_bytes))
        hit, resident, dirty, evictions, writebacks = _replay(
            pages,
            np.concatenate((carried_dirty, writes)),
            self.n_sets,
            self.associativity,
        )
        flags = hit[m:]
        hits = int(np.count_nonzero(flags))
        self.stats.hits += hits
        self.stats.misses += n - hits
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        self._resident = (resident, dirty)
        return flags

    def run_trace(self, addresses, writes=None,
                  engine: str = "array") -> DramCacheStats:
        """Stream a whole trace; returns the cumulative statistics.

        ``engine="array"`` (batched fast path) or ``"event"`` (the
        scalar oracle). The stream is validated whole first, so a
        rejected stream leaves the cache untouched on both engines.
        """
        check_engine(engine, ENGINES)
        addresses, writes = self._check_stream(addresses, writes)
        with obs_trace.span(
            "dramcache.run_trace", engine=engine,
            accesses=int(addresses.size),
        ):
            if engine == "array":
                self.access_many(addresses, writes)
            else:
                for addr, w in zip(addresses.tolist(), writes.tolist()):
                    self.access(addr, w)
        obs_metrics.inc("memsys.dramcache.runs")
        obs_metrics.inc("memsys.dramcache.accesses", int(addresses.size))
        return self.stats

    @property
    def resident_pages(self) -> int:
        """Pages currently cached."""
        if self._ways is None:
            return len(self._resident[0])
        return sum(len(ways) for ways in self._ways.values())

    def addressable_capacity_loss(self, external_bytes: float) -> float:
        """Fraction of total node memory hidden by cache mode.

        With 256 GB cached over 1 TB external, 20% of the 1.25 TB
        address space disappears — the paper's argument for flat mode.
        """
        if external_bytes <= 0:
            raise ValueError("external_bytes must be positive")
        cache_bytes = self.n_sets * self.associativity * self.page_bytes
        return cache_bytes / (cache_bytes + external_bytes)


def _replay(pages, writes, n_sets, assoc):
    """LRU replay of a page stream from an empty cache, by stack distance.

    Returns ``(hit, resident, dirty, evictions, writebacks)``: per-access
    hit flags in stream order, the final resident pages in set-grouped
    LRU->MRU order with their dirty bits, and the eviction and writeback
    counts.
    """
    n = len(pages)
    tags = pages // n_sets
    sets = pages - tags * n_sets
    # Set-grouped order: time order within each set, so every reuse
    # window is a contiguous run of positions.
    order = np.argsort(_sort_key(sets, n_sets), kind="stable")
    spages = pages[order]
    # Stable by tag on top of that groups each page's accesses in time
    # order (within one tag the positions are already set-grouped), so
    # neighbours give the previous/next occurrence.
    stags = tags[order]
    by_page = np.argsort(_sort_key(stags, int(stags.max()) + 1), kind="stable")
    grouped = spages[by_page]
    same = grouped[1:] == grouped[:-1]
    earlier, later = by_page[:-1][same], by_page[1:][same]
    prev = np.full(n, -1, dtype=np.int64)
    prev[later] = earlier
    is_last = np.ones(n, dtype=bool)
    is_last[earlier] = False

    hit = _stack_hits(prev, assoc)

    # Residency episodes: a miss and the hits that follow it, i.e. runs
    # of the page-grouped order that start at a miss.
    miss_pg = ~hit[by_page]
    starts = np.flatnonzero(miss_pg)
    episode_dirty = np.logical_or.reduceat(writes[order][by_page], starts)
    episode = np.empty(n, dtype=np.int64)
    episode[by_page] = np.cumsum(miss_pg) - 1

    # A page is still resident iff fewer than `assoc` distinct pages of
    # its set follow its last access: among the last occurrences (one
    # per page, set-grouped), the final `assoc` of each set.
    lasts = np.flatnonzero(is_last)
    last_sets = sets[order[lasts]]
    keep = np.ones(len(lasts), dtype=bool)
    keep[:-assoc] = last_sets[assoc:] != last_sets[:-assoc]
    kept = lasts[keep]
    resident_dirty = episode_dirty[episode[kept]]

    evictions = len(starts) - len(kept)
    writebacks = int(np.count_nonzero(episode_dirty)) - int(
        np.count_nonzero(resident_dirty)
    )
    flags = np.empty(n, dtype=bool)
    flags[order] = hit
    return flags, spages[kept], resident_dirty, evictions, writebacks


def _sort_key(values, bound):
    """*values* (all below *bound*) as ``uint16`` when they fit, which
    turns numpy's stable sort into a radix sort."""
    return values.astype(np.uint16) if bound <= 1 << 16 else values


def _stack_hits(prev, assoc):
    """Hit flags for a set-grouped stream given each access's previous
    occurrence (``-1`` for a first touch).

    Access ``j`` with previous occurrence ``q`` hits iff the window
    ``(q, j)`` holds fewer than ``assoc`` distinct pages; a position
    ``k`` in the window starts a new distinct page iff ``prev[k] <= q``.
    """
    first = prev < 0
    # Fewer accesses than ways in the window: distinct pages <= gap.
    gap = np.arange(len(prev)) - prev - 1
    hit = ~first & (gap < assoc)
    open_ = np.flatnonzero(~(first | hit))
    if open_.size == 0:
        return hit
    # At least `assoc` first touches inside the window: a miss.
    touched = np.cumsum(first)
    q = prev[open_]
    open_ = open_[touched[open_ - 1] - touched[q] < assoc]
    if open_.size:
        hit[open_] = ~_reaches(prev, prev[open_], open_, assoc)
    return hit


def _reaches(prev, q, j, assoc):
    """For each window ``(q, j)``: does it hold ``assoc`` distinct pages?

    Scans window prefixes whose width doubles each round, only over the
    windows still undecided, in row chunks of bounded size.
    """
    reached = np.zeros(len(q), dtype=bool)
    count = np.zeros(len(q), dtype=np.int64)
    start = q + 1
    live = np.arange(len(q))
    width = min(4 * assoc, int((j - start).max()))
    last = len(prev) - 1
    while live.size:
        rows = max(1, _CHUNK_ELEMENTS // width)
        cols = np.arange(width)
        for lo in range(0, live.size, rows):
            idx = live[lo:lo + rows]
            span = start[idx, None] + cols
            new = prev[np.minimum(span, last)] <= q[idx, None]
            new &= span < j[idx, None]
            count[idx] += np.count_nonzero(new, axis=1)
        start[live] += width
        reached[live] = count[live] >= assoc
        live = live[~reached[live] & (start[live] < j[live])]
        width *= 2
    return reached
