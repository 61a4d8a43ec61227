"""Trace-driven APU simulation: CUs + caches + DRAM service.

Runs a synthetic memory trace (from
:class:`~repro.workloads.traces.TraceGenerator`) through wavefronts on
CUs, a two-level cache, and a bandwidth-limited DRAM service queue. The
simulator reports achieved FLOP rate, CU utilization, measured cache hit
rates, and mean memory latency — the quantities the analytic model
abstracts — so the two can be compared on the same workload (the paper's
gem5-adjustment role).

Two interchangeable engines execute the same semantics, chosen per
:meth:`ApuSimulator.run` / :meth:`ApuSimulator.run_batch` call:

``engine="event"``
    The original discrete-event implementation on
    :class:`~repro.sim.engine.Simulator`: three scheduled callbacks per
    access (issue, begin-burst, finish-burst). It is the readable
    specification and the oracle the fast path is tested against.

``engine="array"`` (default)
    A flat-array replay of the identical schedule. The strided wavefront
    partitions are batched into contiguous numpy columns (line ids,
    per-level set/tag indices, burst durations) up front, and the run
    advances a merged frontier of two event streams over those columns:

    * *issue* events grant CU slots — each CU's issue slot is a
      cumulative free-at scalar advanced in grant order, so a burst's
      window is ``[max(ready, free), ...+duration)``;
    * *commit* events walk the set-associative hierarchy (precomputed
      set/tag columns, per-set recency state) and advance the serialized
      DRAM service queue's cumulative free-at time.

    The two streams touch disjoint state (per-CU slots vs cache+DRAM),
    so they commute; within each stream the frontier keys replay the
    event engine's ``(time, insertion)`` order exactly — issues by
    ``(ready, seq)``, commits by ``(finish, begin, ready, seq)``. Every
    shared result field is therefore bit-identical to the oracle, while
    the per-access cost drops from three heap-scheduled closures and a
    dict-of-OrderedDict cache walk to one tuple push/pop pair over
    precomputed integer columns.

Scale note: the simulator runs a scaled-down EHP (default 16 CUs) on a
scaled trace; the analytic comparison normalizes per-CU, which is valid
because both sides share the per-CU abstraction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.cache_sim import CacheLevel, CacheSim
from repro.sim.engine import Simulator, TupleEventHeap
from repro.sim.gpu_core import ComputeUnit, Wavefront, mean_utilization
from repro.util.engines import check_engine
from repro.util.units import NS
from repro.workloads.traces import MemoryTrace

__all__ = ["ApuSimConfig", "ApuSimResult", "ApuSimulator", "ENGINES"]

ENGINES = ("array", "event")
"""Valid values for the ``engine`` selector (the first is the default)."""


@dataclass(frozen=True)
class ApuSimConfig:
    """Scaled-down simulation parameters."""

    n_cus: int = 16
    freq_hz: float = 1.0e9
    flops_per_cu_cycle: float = 64.0
    wavefronts_per_cu: int = 8
    dram_bandwidth: float = 150.0e9  # scaled: ~per-chiplet share
    dram_latency: float = 350.0 * NS
    llc_latency: float = 40.0 * NS
    l1_latency: float = 4.0 * NS
    chiplet_extra_latency: float = 0.0
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.n_cus <= 0 or self.wavefronts_per_cu <= 0:
            raise ValueError("CU/wavefront counts must be positive")
        if min(self.freq_hz, self.dram_bandwidth, self.dram_latency) <= 0:
            raise ValueError("rates and latencies must be positive")
        if self.chiplet_extra_latency < 0:
            raise ValueError("chiplet_extra_latency must be non-negative")


@dataclass(frozen=True)
class ApuSimResult:
    """Measured outcome of one simulation."""

    elapsed: float
    total_flops: float
    total_accesses: int
    dram_accesses: int
    cu_utilization: float
    mean_memory_latency: float
    hit_rates: dict

    @property
    def flops_rate(self) -> float:
        """Achieved FLOP/s."""
        return self.total_flops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def dram_fraction(self) -> float:
        """Share of accesses that reached DRAM."""
        if self.total_accesses == 0:
            return 0.0
        return self.dram_accesses / self.total_accesses


class ApuSimulator:
    """Execution of a memory trace on the scaled APU.

    Parameters
    ----------
    config:
        Simulation parameters (defaults to :class:`ApuSimConfig`).
    """

    def __init__(self, config: ApuSimConfig | None = None):
        self.config = config or ApuSimConfig()

    def _build_cache(self) -> CacheSim:
        cfg = self.config
        return CacheSim(
            [
                CacheLevel("L1", cfg.n_cus * 16 * 1024, cfg.line_bytes, 8),
                CacheLevel("LLC", 4 * 1024 * 1024, cfg.line_bytes, 16),
            ]
        )

    def run(self, trace: MemoryTrace, engine: str = "array") -> ApuSimResult:
        """Execute *trace* split round-robin across all wavefronts.

        ``engine="array"`` (fast path) or ``"event"`` (the
        discrete-event oracle).
        """
        check_engine(engine, ENGINES)
        if len(trace) == 0:
            raise ValueError("empty trace")
        with obs_trace.span(
            "apu_sim.run", engine=engine, accesses=len(trace)
        ), obs_metrics.timed("sim.apu.run_seconds"):
            if engine == "event":
                result = self._run_event(trace)
            else:
                result = self._run_array(trace)
        obs_metrics.inc("sim.apu.runs")
        obs_metrics.inc("sim.apu.trace_rows", len(trace))
        obs_metrics.inc("sim.apu.dram_accesses", result.dram_accesses)
        return result

    def run_batch(
        self,
        traces: Iterable[MemoryTrace],
        engine: str = "array",
    ) -> list[ApuSimResult]:
        """Run several traces through one configuration.

        Each trace gets a cold cache hierarchy (identical to calling
        :meth:`run` per trace), but the config-derived setup — cache
        geometry, per-wavefront CU assignment, derived rates — is
        computed once and shared, which is what calibration sweeps over
        many traces of one kernel profile want. *engine* is as in
        :meth:`run`.
        """
        check_engine(engine, ENGINES)
        traces = list(traces)
        for trace in traces:
            if len(trace) == 0:
                raise ValueError("empty trace")
        total_rows = sum(len(trace) for trace in traces)
        with obs_trace.span(
            "apu_sim.run_batch", engine=engine, traces=len(traces),
            accesses=total_rows,
        ), obs_metrics.timed("sim.apu.run_seconds"):
            if engine == "event":
                results = [self._run_event(trace) for trace in traces]
            else:
                setup = self._array_setup()
                results = [self._run_array(trace, setup) for trace in traces]
        obs_metrics.inc("sim.apu.runs", len(traces))
        obs_metrics.inc("sim.apu.trace_rows", total_rows)
        obs_metrics.inc(
            "sim.apu.dram_accesses", sum(r.dram_accesses for r in results)
        )
        return results

    # ------------------------------------------------------------------
    # Event-driven oracle (the original implementation, kept verbatim)
    # ------------------------------------------------------------------
    def _run_event(self, trace: MemoryTrace) -> ApuSimResult:
        cfg = self.config
        sim = Simulator()
        cache = self._build_cache()
        cu_rate = cfg.flops_per_cu_cycle * cfg.freq_hz
        cus = [
            ComputeUnit(cu_id=i, flops_per_second=cu_rate,
                        max_wavefronts=cfg.wavefronts_per_cu)
            for i in range(cfg.n_cus)
        ]

        n_wfs = cfg.n_cus * cfg.wavefronts_per_cu
        # Partition the trace across wavefronts (strided, preserving the
        # interleaved-concurrency character of GPU execution).
        partitions = [
            (trace.addresses[w::n_wfs], trace.flops_between[w::n_wfs])
            for w in range(n_wfs)
        ]

        state = {
            "flops": 0.0,
            "accesses": 0,
            "dram": 0,
            "lat_sum": 0.0,
            "dram_free_at": 0.0,
        }
        # One issue slot per CU: compute bursts on the same CU serialize.
        cu_free_at = [0.0] * cfg.n_cus
        line_service = cfg.line_bytes / cfg.dram_bandwidth
        level_latency = {
            0: cfg.l1_latency,
            1: cfg.llc_latency,
        }

        def memory_latency(address: int) -> float:
            level = cache.access(int(address))
            if level < len(level_latency):
                return level_latency[level]
            state["dram"] += 1
            # Shared DRAM service queue: serialized line transfers.
            start = max(sim.now, state["dram_free_at"])
            state["dram_free_at"] = start + line_service
            queue_delay = start - sim.now
            return (
                queue_delay
                + line_service
                + cfg.dram_latency
                + cfg.chiplet_extra_latency
            )

        def step(cu: ComputeUnit, wf: Wavefront, addrs, flops, idx: int):
            if idx >= len(addrs):
                wf.state = "done"
                return
            burst_flops = float(flops[idx])
            # Wait for the CU's issue slot, then occupy it for the burst.
            start = max(sim.now, cu_free_at[cu.cu_id])
            duration = burst_flops / cu.flops_per_second
            cu_free_at[cu.cu_id] = start + duration

            def begin_burst():
                cu.start_compute(wf, sim.now)
                sim.schedule(duration, finish_burst)

            def finish_burst():
                cu.end_compute(wf, sim.now)
                state["flops"] += burst_flops
                state["accesses"] += 1
                latency = memory_latency(addrs[idx])
                state["lat_sum"] += latency
                sim.schedule(
                    latency, lambda: step(cu, wf, addrs, flops, idx + 1)
                )

            sim.schedule_at(start, begin_burst)

        wf_id = 0
        for cu in cus:
            for _ in range(cfg.wavefronts_per_cu):
                addrs, flops = partitions[wf_id]
                wf = Wavefront(
                    wf_id=wf_id,
                    remaining_accesses=len(addrs),
                    flops_per_burst=float(flops.mean()) if len(flops) else 0.0,
                )
                cu.add_wavefront(wf)
                if len(addrs):
                    step(cu, wf, addrs, flops, 0)
                else:
                    wf.state = "done"
                wf_id += 1

        elapsed = sim.run()
        if elapsed <= 0:
            elapsed = 1e-12
        utilization = mean_utilization(
            [cu.busy_time for cu in cus], elapsed
        )
        hit_rates = {
            level.name: level.stats.hit_rate for level in cache.levels
        }
        return ApuSimResult(
            elapsed=elapsed,
            total_flops=state["flops"],
            total_accesses=state["accesses"],
            dram_accesses=state["dram"],
            cu_utilization=utilization,
            mean_memory_latency=(
                state["lat_sum"] / state["accesses"]
                if state["accesses"]
                else 0.0
            ),
            hit_rates=hit_rates,
        )

    # ------------------------------------------------------------------
    # Array fast path
    # ------------------------------------------------------------------
    def _array_setup(self) -> dict:
        """Config-derived constants shared across traces of a batch."""
        cfg = self.config
        n_wfs = cfg.n_cus * cfg.wavefronts_per_cu
        cu_of = [w // cfg.wavefronts_per_cu for w in range(n_wfs)]
        # Geometry comes from the same hierarchy the oracle builds, so
        # the two engines can never disagree about set/tag layout. Only
        # the (stateless) geometry is shared; per-set recency state is
        # rebuilt cold for every run.
        return {
            "n_wfs": n_wfs,
            "cu_of": cu_of,
            "cu_rate": cfg.flops_per_cu_cycle * cfg.freq_hz,
            "levels": self._build_cache().levels,
            "line_service": cfg.line_bytes / cfg.dram_bandwidth,
        }

    def _run_array(self, trace: MemoryTrace, setup: dict | None = None) -> ApuSimResult:
        cfg = self.config
        setup = setup or self._array_setup()
        n = len(trace)
        n_wfs: int = setup["n_wfs"]
        cu_of: list[int] = setup["cu_of"]
        cu_rate: float = setup["cu_rate"]
        level1, level2 = setup["levels"]
        nsets1, assoc1 = level1.n_sets, level1.associativity
        nsets2, assoc2 = level2.n_sets, level2.associativity

        # ---- Batch the strided partitions into flat columns ----------
        # Wavefront w owns trace[w::n_wfs]; a stable sort by (index mod
        # n_wfs) lays every partition out contiguously, wavefront-major,
        # with CSR-style offsets. All address arithmetic (line, per-level
        # set index and tag) happens vectorized here, once.
        owner = np.arange(n, dtype=np.int64) % n_wfs
        order = np.argsort(owner, kind="stable")
        addresses = np.asarray(trace.addresses, dtype=np.int64)[order]
        flops = np.asarray(trace.flops_between, dtype=np.float64)[order]
        ptr = np.zeros(n_wfs + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n_wfs), out=ptr[1:])

        set1_a, tag1_a = level1.index_columns(addresses)
        set2_a, tag2_a = level2.index_columns(addresses)
        tag1, tag2 = tag1_a.tolist(), tag2_a.tolist()
        # Same scalar op the oracle applies per access: flops / cu_rate.
        dur = (flops / cu_rate).tolist()
        flops_l = flops.tolist()
        pos = ptr[:-1].tolist()
        end = ptr[1:].tolist()

        # ---- Mutable run state ---------------------------------------
        # Per-set recency state as plain dicts (insertion-ordered):
        # move-to-back is del+reinsert, LRU eviction pops the first key —
        # the same policy CacheSim's OrderedDicts implement, minus the
        # linked-list overhead. sets1/sets2 pre-resolve each access's
        # home set so the hot loop does one list index, not two.
        cu_free = [0.0] * cfg.n_cus  # cumulative issue-slot free-at
        cu_busy = [0.0] * cfg.n_cus
        l1_state: list[dict] = [{} for _ in range(nsets1)]
        llc_state: list[dict] = [{} for _ in range(nsets2)]
        sets1 = [l1_state[s] for s in set1_a.tolist()]
        sets2 = [llc_state[s] for s in set2_a.tolist()]
        dram_free = 0.0  # cumulative DRAM service free-at
        l1_lat = cfg.l1_latency
        llc_lat = cfg.llc_latency
        dram_lat = cfg.dram_latency
        extra_lat = cfg.chiplet_extra_latency
        line_service: float = setup["line_service"]
        hits1 = miss1 = hits2 = miss2 = dram = 0
        flops_sum = 0.0
        lat_sum = 0.0
        elapsed = 0.0

        # ---- Initial issue epoch: grant first bursts in wf order -----
        # Mirrors the oracle's setup pass at t=0: every wavefront's first
        # burst is granted inline, so same-CU wavefronts serialize
        # back-to-back from time zero. Commit keys are (finish, begin,
        # ready, seq); initial seqs are the wavefront ids, later issue
        # seqs continue the counter above them, reproducing the event
        # queue's insertion order.
        initial: list[tuple] = []
        for w in range(n_wfs):
            k = pos[w]
            if k == end[w]:
                continue
            c = cu_of[w]
            begin = cu_free[c]  # == max(0.0, free): free-at never negative
            finish = begin + dur[k]
            cu_free[c] = finish
            cu_busy[c] += finish - begin
            initial.append((finish, begin, 0.0, w, w))
        frontier = TupleEventHeap(initial)
        heap = frontier.heap
        # Bind the C heap primitives directly: the loop below runs twice
        # per access, so even one Python frame per push/pop matters.
        push = heapq.heappush
        pop = heapq.heappop
        seq = n_wfs

        # ---- Merged frontier loop ------------------------------------
        # Commit entries: (finish, begin, ready, seq, wf)  [5-tuple]
        # Issue entries:  (ready, seq, wf)                 [3-tuple]
        # The streams mutate disjoint state, so only intra-stream order
        # matters; the keys replay the oracle's ordering exactly.
        while heap:
            ev = pop(heap)
            if len(ev) == 5:  # commit: cache walk + DRAM queue
                finish = ev[0]
                w = ev[4]
                k = pos[w]
                flops_sum += flops_l[k]
                t = tag1[k]
                ways = sets1[k]
                if t in ways:
                    del ways[t]
                    ways[t] = None
                    hits1 += 1
                    lat = l1_lat
                else:
                    miss1 += 1
                    if len(ways) >= assoc1:
                        del ways[next(iter(ways))]
                    ways[t] = None
                    t = tag2[k]
                    ways = sets2[k]
                    if t in ways:
                        del ways[t]
                        ways[t] = None
                        hits2 += 1
                        lat = llc_lat
                    else:
                        miss2 += 1
                        if len(ways) >= assoc2:
                            del ways[next(iter(ways))]
                        ways[t] = None
                        dram += 1
                        start = finish if finish > dram_free else dram_free
                        dram_free = start + line_service
                        lat = (start - finish) + line_service \
                            + dram_lat + extra_lat
                lat_sum += lat
                ready = finish + lat
                k += 1
                pos[w] = k
                if k == end[w]:
                    # The oracle still schedules the final (empty) issue
                    # step; its timestamp is what the drained clock
                    # reports, so it defines elapsed.
                    if ready > elapsed:
                        elapsed = ready
                else:
                    seq += 1
                    push(heap, (ready, seq, w))
            else:  # issue: grant the CU slot at ready time
                ready = ev[0]
                w = ev[2]
                k = pos[w]
                c = cu_of[w]
                free = cu_free[c]
                begin = ready if ready > free else free
                finish = begin + dur[k]
                cu_free[c] = finish
                cu_busy[c] += finish - begin
                push(heap, (finish, begin, ready, ev[1], w))

        if elapsed <= 0:
            elapsed = 1e-12
        acc1 = hits1 + miss1
        acc2 = hits2 + miss2
        name1, name2 = level1.name, level2.name
        return ApuSimResult(
            elapsed=elapsed,
            total_flops=flops_sum,
            total_accesses=n,
            dram_accesses=dram,
            cu_utilization=mean_utilization(cu_busy, elapsed),
            mean_memory_latency=lat_sum / n,
            hit_rates={
                name1: hits1 / acc1 if acc1 else 0.0,
                name2: hits2 / acc2 if acc2 else 0.0,
            },
        )
