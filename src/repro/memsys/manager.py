"""Two-level memory management policies (Section II-B3).

The ENA's primary mode is software-controlled placement: the OS monitors
page hotness and migrates pages between in-package DRAM and external
memory to maximize the fraction of requests served in-package. This
module implements that machinery over synthetic access histograms:

* :class:`FirstTouchPolicy` — pages stay where first allocated
  (in-package until it fills, then external),
* :class:`HotnessMigrationPolicy` — periodic epoch-based migration of
  the hottest pages into in-package DRAM (the HMA-style approach of the
  paper's reference [27]),
* :class:`MemoryManager` — bookkeeping, placement queries, migration
  cost accounting, and the achieved in-package hit fraction that feeds
  the Fig. 8 performance model.

Two interchangeable engines drive the epoch loop, chosen per
:meth:`MemoryManager.run_batch` call:

``engine="event"``
    The original scalar path: :meth:`MemoryManager.epoch` builds a
    per-page count dict and delegates to the policy's ``place`` method,
    kept as the readable specification and test oracle.

``engine="array"`` (default)
    :meth:`MemoryManager.epoch_array` keeps the placement as two
    aligned arrays — the sorted known pages and an in-package flag per
    page — and runs each epoch as whole-array numpy work: ``np.unique``
    counts, ``searchsorted`` residency, ``np.insert`` of new pages,
    hotness ranking by ``np.lexsort`` (descending count, ascending page
    — exactly the order Python's stable ``sorted`` produces over the
    ascending ``np.unique`` keys), and the scalar promote/evict loop in
    closed form: promotions fill the free room, then each evicts the
    next victim in ``(count, page)`` order until the victims run out.
    The ``placement`` dict is built from the arrays on demand, so the
    two engines can be freely interleaved and produce identical
    placements, hit fractions, and migration counts.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Mapping, Protocol

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.engines import check_engine

__all__ = [
    "MemoryLevel",
    "PagePlacement",
    "PlacementPolicy",
    "FirstTouchPolicy",
    "HotnessMigrationPolicy",
    "MemoryManager",
    "ENGINES",
]

PAGE = 4096

ENGINES = ("array", "event")
"""Valid values for the ``engine`` selector (the first is the default)."""


class MemoryLevel(enum.Enum):
    """Which level a page lives in."""

    IN_PACKAGE = "in-package"
    EXTERNAL = "external"


@dataclass(frozen=True)
class PagePlacement:
    """Result of one placement epoch."""

    level_of_page: Mapping[int, MemoryLevel]
    migrated_pages: int


class PlacementPolicy(Protocol):
    """Strategy interface: choose which pages go in-package."""

    def place(
        self,
        access_counts: Mapping[int, int],
        current: Mapping[int, MemoryLevel],
        capacity_pages: int,
    ) -> PagePlacement:
        """Return the next epoch's placement."""
        ...  # pragma: no cover


class FirstTouchPolicy:
    """Pages keep their initial placement: earliest-allocated pages fill
    in-package DRAM; later pages spill to external memory. No migration
    ever happens — the paper's baseline for why management matters."""

    def place(
        self,
        access_counts: Mapping[int, int],
        current: Mapping[int, MemoryLevel],
        capacity_pages: int,
    ) -> PagePlacement:
        placement = dict(current)
        resident = sum(
            1 for lvl in placement.values() if lvl is MemoryLevel.IN_PACKAGE
        )
        for page in access_counts:
            if page in placement:
                continue
            if resident < capacity_pages:
                placement[page] = MemoryLevel.IN_PACKAGE
                resident += 1
            else:
                placement[page] = MemoryLevel.EXTERNAL
        return PagePlacement(level_of_page=placement, migrated_pages=0)


class HotnessMigrationPolicy:
    """Epoch-based hottest-pages-first placement.

    At each epoch the *capacity_pages* most-accessed pages are placed
    in-package; everything else goes external. ``migration_limit``
    caps per-epoch movement (migration consumes real bandwidth), so
    convergence to the ideal placement can take several epochs — the
    behaviour HMA-style managers exhibit.
    """

    def __init__(self, migration_limit: int | None = None):
        if migration_limit is not None and migration_limit < 0:
            raise ValueError("migration_limit must be non-negative")
        self.migration_limit = migration_limit

    def place(
        self,
        access_counts: Mapping[int, int],
        current: Mapping[int, MemoryLevel],
        capacity_pages: int,
    ) -> PagePlacement:
        ranked = sorted(
            access_counts, key=lambda p: access_counts[p], reverse=True
        )
        want_in = set(ranked[:capacity_pages])
        placement = dict(current)
        for page in access_counts:
            placement.setdefault(page, MemoryLevel.EXTERNAL)

        to_promote = [
            p
            for p in ranked[:capacity_pages]
            if placement.get(p) is not MemoryLevel.IN_PACKAGE
        ]
        if self.migration_limit is not None:
            to_promote = to_promote[: self.migration_limit]

        resident = {
            p for p, lvl in placement.items() if lvl is MemoryLevel.IN_PACKAGE
        }
        migrated = 0
        # Evictions pop the coldest resident page not in the wanted set,
        # ties broken on the page number so the choice does not depend
        # on set iteration order (keeps this oracle bit-identical to the
        # vectorized engine). The candidate set never grows during the
        # promote loop — promotions only add wanted pages, which are
        # excluded — and only shrinks by the popped victims, so one heap
        # built at the first eviction yields exactly the page a fresh
        # sort would have picked each iteration, without re-sorting the
        # whole resident set per eviction.
        evict_heap: list[tuple[int, int]] | None = None
        for page in to_promote:
            if len(resident) >= capacity_pages:
                if evict_heap is None:
                    evict_heap = [
                        (access_counts.get(p, 0), p)
                        for p in resident
                        if p not in want_in
                    ]
                    heapq.heapify(evict_heap)
                if not evict_heap:
                    break
                _, victim = heapq.heappop(evict_heap)
                placement[victim] = MemoryLevel.EXTERNAL
                resident.discard(victim)
            placement[page] = MemoryLevel.IN_PACKAGE
            resident.add(page)
            migrated += 1
        return PagePlacement(level_of_page=placement, migrated_pages=migrated)


class MemoryManager:
    """Drives a placement policy over access epochs and reports the
    achieved in-package service fraction.

    Parameters
    ----------
    capacity_bytes:
        In-package DRAM capacity.
    policy:
        Placement strategy; the array engine has vectorized paths for
        :class:`FirstTouchPolicy` and :class:`HotnessMigrationPolicy`
        and falls back to the scalar policy call for anything else.
    page_size:
        Placement grain.
    """

    def __init__(
        self,
        capacity_bytes: float,
        policy: PlacementPolicy,
        page_size: int = PAGE,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.capacity_pages = int(capacity_bytes // page_size)
        self.page_size = page_size
        self.policy = policy
        self.total_migrated = 0
        # The placement lives in exactly one of two forms: a page ->
        # level dict for the scalar path, or (sorted known pages,
        # aligned in-package flags) arrays for the array engine.
        self._levels: dict[int, MemoryLevel] | None = None
        self._pages: tuple[np.ndarray, np.ndarray] | None = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool),
        )

    @property
    def placement(self) -> dict[int, MemoryLevel]:
        """Page -> level for every page seen so far.

        Built on first use from the arrays an array epoch left; the
        returned dict is then the live state until the next array epoch.
        """
        if self._levels is None:
            pages, in_package = self._pages
            level = (MemoryLevel.EXTERNAL, MemoryLevel.IN_PACKAGE)
            self._levels = dict(
                zip(pages.tolist(), [level[f] for f in in_package.tolist()])
            )
            self._pages = None
        return self._levels

    @placement.setter
    def placement(self, levels: Mapping[int, MemoryLevel]) -> None:
        self._levels = dict(levels)
        self._pages = None

    def _take_pages(self) -> tuple[np.ndarray, np.ndarray]:
        """The (sorted pages, in-package flags) arrays, converting from
        the dict when the scalar path holds the state."""
        if self._pages is None:
            levels = self._levels
            pages = np.fromiter(levels, np.int64, len(levels))
            in_package = np.fromiter(
                (lvl is MemoryLevel.IN_PACKAGE for lvl in levels.values()),
                bool,
                len(levels),
            )
            order = np.argsort(pages)
            self._pages = (pages[order], in_package[order])
            self._levels = None
        return self._pages

    @staticmethod
    def _check_addresses(addresses) -> np.ndarray:
        """Validate one whole epoch before either engine mutates state."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and int(addresses.min()) < 0:
            raise ValueError("address must be non-negative")
        return addresses

    def epoch(self, addresses: np.ndarray) -> float:
        """Process one epoch of accesses; returns the fraction of them
        served in-package *under the placement in force during the
        epoch* (migration takes effect for the next epoch)."""
        addresses = self._check_addresses(addresses)
        if addresses.size == 0:
            return 1.0
        pages = addresses // self.page_size
        unique, counts = np.unique(pages, return_counts=True)
        access_counts = dict(zip(unique.tolist(), counts.tolist()))
        current = self.placement

        served_in = sum(
            int(c)
            for p, c in access_counts.items()
            if current.get(p) is MemoryLevel.IN_PACKAGE
        )
        hit_fraction = served_in / int(counts.sum())

        result = self.policy.place(
            access_counts, current, self.capacity_pages
        )
        self.placement = result.level_of_page
        self.total_migrated += result.migrated_pages
        return hit_fraction

    # ------------------------------------------------------------------
    # Array fast path
    # ------------------------------------------------------------------
    def epoch_array(self, addresses: np.ndarray) -> float:
        """Vectorized :meth:`epoch`: identical placements, hit
        fractions, and migration counts, computed as whole-epoch array
        operations over the sorted page state.

        Policies without a vectorized path fall back to the scalar
        :meth:`epoch` (exact policy types only, so subclasses that
        override ``place`` keep their semantics).
        """
        policy_type = type(self.policy)
        if policy_type not in (HotnessMigrationPolicy, FirstTouchPolicy):
            return self.epoch(addresses)
        addresses = self._check_addresses(addresses)
        if addresses.size == 0:
            return 1.0
        unique, counts = np.unique(
            addresses // self.page_size, return_counts=True
        )
        pages, in_package = self._take_pages()
        capacity = self.capacity_pages

        # Where each epoch page sits (or would be inserted) in the
        # known-page array, and which of them are known / resident.
        pos = np.searchsorted(pages, unique)
        known = pos < len(pages)
        known[known] = pages[pos[known]] == unique[known]
        resident = np.zeros(len(unique), dtype=bool)
        resident[known] = in_package[pos[known]]
        hit_fraction = int(counts[resident].sum()) / int(counts.sum())
        n_resident = int(np.count_nonzero(in_package))

        # New pages join the sorted state in ascending order: external
        # for hotness (the scalar setdefault sweep), first-touch fills
        # them in-package up to the free room.
        new = ~known
        if new.any():
            new_in = np.zeros(int(np.count_nonzero(new)), dtype=bool)
            if policy_type is FirstTouchPolicy:
                new_in[: max(0, capacity - n_resident)] = True
            pages = np.insert(pages, pos[new], unique[new])
            in_package = np.insert(in_package, pos[new], new_in)
            self._pages = (pages, in_package)
        if policy_type is FirstTouchPolicy:
            return hit_fraction

        # Rank by descending count, ascending page: np.lexsort's last
        # key is primary, and negating counts plus the ascending page
        # tiebreak reproduces the stable scalar sort exactly.
        where = np.searchsorted(pages, unique)
        wanted = where[np.lexsort((unique, -counts))[:capacity]]
        to_promote = wanted[~in_package[wanted]]
        limit = self.policy.migration_limit
        if limit is not None:
            to_promote = to_promote[:limit]

        # Promotions fill the free room first; each one past it evicts
        # the coldest resident page outside the wanted set, by (count,
        # page). Promotions only add wanted pages, so the victim order
        # is fixed for the epoch and the scalar loop's outcome is a
        # prefix of each list.
        free = max(0, capacity - n_resident)
        n_promote = len(to_promote)
        if n_promote > free:
            evictable = in_package.copy()
            evictable[wanted] = False
            victims = np.flatnonzero(evictable)
            epoch_counts = np.zeros(len(pages), dtype=np.int64)
            epoch_counts[where] = counts
            # flatnonzero is ascending in page, so a stable sort on the
            # count alone keeps the page tie-break.
            victims = victims[
                np.argsort(epoch_counts[victims], kind="stable")
            ]
            # The scalar loop's break on an empty victim list; it never
            # binds, as every wanted page outside the DRAM leaves a
            # resident page outside the wanted set.
            n_promote = min(n_promote, free + len(victims))
            in_package[victims[: n_promote - free]] = False
        in_package[to_promote[:n_promote]] = True
        self.total_migrated += n_promote
        return hit_fraction

    def run_batch(
        self, epochs: list[np.ndarray], engine: str = "array"
    ) -> list[float]:
        """Process several epoch arrays through one shared placement
        state; returns per-epoch in-package fractions.

        ``engine="array"`` (vectorized epochs) or ``"event"`` (the
        scalar oracle). Every epoch is validated first, so a rejected
        batch leaves the manager untouched on both engines.
        """
        check_engine(engine, ENGINES)
        epochs = [self._check_addresses(e) for e in epochs]
        total = sum(e.size for e in epochs)
        with obs_trace.span(
            "manager.run_batch", engine=engine, epochs=len(epochs),
            accesses=total,
        ):
            if engine == "event":
                fractions = [self.epoch(e) for e in epochs]
            else:
                fractions = [self.epoch_array(e) for e in epochs]
        obs_metrics.inc("memsys.manager.epochs", len(epochs))
        obs_metrics.inc("memsys.manager.accesses", total)
        return fractions

    def run(
        self, epochs: list[np.ndarray], engine: str = "array"
    ) -> list[float]:
        """Process several epochs; returns per-epoch in-package fractions."""
        return self.run_batch(epochs, engine=engine)

    @property
    def resident_pages(self) -> int:
        """Pages currently in in-package DRAM."""
        if self._pages is not None:
            return int(np.count_nonzero(self._pages[1]))
        return sum(
            1
            for lvl in self._levels.values()
            if lvl is MemoryLevel.IN_PACKAGE
        )

    def migration_traffic_bytes(self) -> float:
        """Total bytes moved by migrations so far."""
        return float(self.total_migrated * self.page_size)
