"""Row-buffer locality simulation for the HBM stacks.

The HBM service model (:class:`repro.memsys.dram.HBMStack`) needs a
row-buffer hit rate; this module measures one from an address stream.
Each bank holds one open row (open-page policy); an access to the open
row is a row hit, anything else closes and opens (row miss). Bank and
row mapping follow the standard address split.

Used by the trace-driven simulator and the memory-management ablation to
ground the analytic model's latency inputs in trace behaviour.

Two interchangeable engines execute the same semantics, chosen per
:meth:`RowBufferSim.run` call:

``engine="event"``
    The original one-access-at-a-time loop over :meth:`RowBufferSim.access`,
    kept verbatim as the readable specification and test oracle.

``engine="array"`` (default)
    A fully vectorized replay: bank and row columns are computed for the
    whole stream at once, a stable argsort by bank lays every per-bank
    substream out contiguously (CSR-style group offsets, the same trick
    the APU simulator's array engine uses for wavefront partitions), and
    each access's open-row-before-access is the previous row in its bank
    group — seeded from the carried ``_open_row`` state at group starts.
    Hits, misses and bank conflicts then fall out of whole-array
    comparisons, bit-identical to the scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.engines import check_engine

__all__ = ["RowBufferSim", "RowBufferStats", "ENGINES"]

ENGINES = ("array", "event")
"""Valid values for the ``engine`` selector (the first is the default)."""


@dataclass
class RowBufferStats:
    """Accumulated row-buffer outcomes."""

    hits: int = 0
    misses: int = 0
    bank_conflicts: int = 0

    @property
    def accesses(self) -> int:
        """Total simulated accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Row-buffer hit rate (0.0 when empty)."""
        return self.hits / self.accesses if self.accesses else 0.0


class RowBufferSim:
    """Open-page row-buffer tracker across the stack's banks.

    Parameters
    ----------
    n_banks:
        Banks in the stack (HBM: 16 per channel x 8 channels = 128).
    row_bytes:
        Row (page) size per bank.
    channel_interleave_bytes:
        Consecutive-address stride mapped to the same bank before
        rotating; smaller values spread streams across banks faster.
    """

    def __init__(
        self,
        n_banks: int = 128,
        row_bytes: int = 1024,
        channel_interleave_bytes: int = 256,
    ):
        if n_banks <= 0 or row_bytes <= 0 or channel_interleave_bytes <= 0:
            raise ValueError("geometry must be positive")
        self.n_banks = n_banks
        self.row_bytes = row_bytes
        self.interleave = channel_interleave_bytes
        self._open_row = np.full(n_banks, -1, dtype=np.int64)
        self._last_bank = -1
        self.stats = RowBufferStats()

    def _locate(self, address: int) -> tuple[int, int]:
        block = address // self.interleave
        bank = int(block % self.n_banks)
        row = int(address // (self.row_bytes * self.n_banks))
        return bank, row

    def access(self, address: int) -> bool:
        """Simulate one access; returns True on a row hit."""
        if address < 0:
            raise ValueError("address must be non-negative")
        bank, row = self._locate(address)
        hit = self._open_row[bank] == row
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if self._open_row[bank] >= 0 and self._last_bank == bank:
                self.stats.bank_conflicts += 1
            self._open_row[bank] = row
        self._last_bank = bank
        return bool(hit)

    def run(self, addresses, engine: str = "array") -> RowBufferStats:
        """Stream an address array; returns cumulative statistics.

        Continues from the tracker's current open-row state, exactly as
        repeated :meth:`access` calls would. ``engine="array"`` (fast
        path) or ``"event"`` (the scalar oracle).
        """
        check_engine(engine, ENGINES)
        addresses = np.asarray(addresses, dtype=np.int64)
        with obs_trace.span(
            "rowbuffer.run", engine=engine, accesses=int(addresses.size)
        ):
            if engine == "event":
                result = self._run_event(addresses)
            else:
                result = self._run_array(addresses)
        obs_metrics.inc("memsys.rowbuffer.runs")
        obs_metrics.inc("memsys.rowbuffer.accesses", int(addresses.size))
        return result

    # ------------------------------------------------------------------
    # Scalar oracle (the original implementation, kept verbatim)
    # ------------------------------------------------------------------
    def _run_event(self, addresses: np.ndarray) -> RowBufferStats:
        for addr in addresses.tolist():
            self.access(addr)
        return self.stats

    # ------------------------------------------------------------------
    # Array fast path
    # ------------------------------------------------------------------
    def _run_array(self, addresses: np.ndarray) -> RowBufferStats:
        n = addresses.size
        if n == 0:
            return self.stats
        if int(addresses.min()) < 0:
            raise ValueError("address must be non-negative")

        # Whole-stream bank/row columns (same arithmetic as _locate).
        banks = (addresses // self.interleave) % self.n_banks
        rows = addresses // (self.row_bytes * self.n_banks)

        # Per-bank substreams: stable argsort by bank keeps each bank's
        # accesses in program order; group starts are the CSR offsets.
        order = np.argsort(banks, kind="stable")
        sorted_banks = banks[order]
        sorted_rows = rows[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_banks)) + 1)
        )

        # Open row at access time: the previous access's row within the
        # bank group, seeded from the carried open-row state at starts.
        open_before = np.empty(n, dtype=np.int64)
        open_before[1:] = sorted_rows[:-1]
        open_before[starts] = self._open_row[sorted_banks[starts]]

        hit_sorted = open_before == sorted_rows
        valid_sorted = open_before >= 0
        hit = np.empty(n, dtype=bool)
        hit[order] = hit_sorted
        open_valid = np.empty(n, dtype=bool)
        open_valid[order] = valid_sorted

        # Bank conflict: a miss to a bank with an open row immediately
        # after an access to the same bank.
        prev_bank = np.empty(n, dtype=np.int64)
        prev_bank[0] = self._last_bank
        prev_bank[1:] = banks[:-1]
        conflicts = ~hit & open_valid & (prev_bank == banks)

        hits = int(np.count_nonzero(hit))
        self.stats.hits += hits
        self.stats.misses += n - hits
        self.stats.bank_conflicts += int(np.count_nonzero(conflicts))

        # Carry state forward: last row seen per touched bank (group
        # ends), and the final access's bank.
        ends = np.concatenate((starts[1:] - 1, [n - 1]))
        self._open_row[sorted_banks[ends]] = sorted_rows[ends]
        self._last_bank = int(banks[-1])
        return self.stats

    def reset(self) -> None:
        """Close all rows and zero statistics."""
        self._open_row.fill(-1)
        self._last_bank = -1
        self.stats = RowBufferStats()
