"""Request and response types of the serving front-end.

Four request kinds cover the traffic the ROADMAP's service absorbs:

:class:`PointRequest`
    One (profile, CU count, frequency, bandwidth) design point. The
    oracle for its answer is ``NodeModel.evaluate_grid`` on the
    singleton :class:`~repro.core.config.DesignSpace` holding exactly
    that point — the same tensor engine ``explore`` defaults to — so
    coalesced, degraded and cache-hit answers are all bit-identical.
:class:`SweepRequest`
    A small DSE sweep: profiles × a :class:`DesignSpace`, answered with
    the same optima :func:`repro.core.dse.select_optima` picks.
:class:`ExperimentRequest`
    One registered paper artifact by name (``fig8``, ``table2``, ...).
:class:`SimulateRequest`
    One trace-driven APU simulation, answered through the shared
    :class:`~repro.perf.evalcache.SimCache`.

Every request names a ``stream`` — responses within one stream are
released in admission order — and may carry a relative ``deadline_s``;
a request whose deadline cannot be met is *shed* with an explicit
:data:`SHED_DEADLINE` rejection rather than silently queued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.config import DesignSpace, EHPConfig
from repro.workloads.kernels import KernelProfile

__all__ = [
    "STATUSES",
    "OK",
    "SHED_QUEUE_FULL",
    "SHED_DEADLINE",
    "EXPIRED",
    "FAILED",
    "SHUTDOWN",
    "PointRequest",
    "SweepRequest",
    "ExperimentRequest",
    "SimulateRequest",
    "PointResult",
    "ServeResponse",
]

OK = "ok"
SHED_QUEUE_FULL = "shed-queue-full"
SHED_DEADLINE = "shed-deadline"
EXPIRED = "expired"
FAILED = "failed"
SHUTDOWN = "shutdown"

STATUSES = (OK, SHED_QUEUE_FULL, SHED_DEADLINE, EXPIRED, FAILED, SHUTDOWN)
"""Every terminal response status.

``ok``
    Answered; ``value`` holds the result.
``shed-queue-full``
    Rejected at admission: the bounded queue was full (backpressure).
``shed-deadline``
    Rejected at admission: the estimated completion time already
    overruns the request's deadline, so queueing it would only waste
    worker time on an answer nobody is waiting for.
``expired``
    Admitted, but its deadline passed while it waited; dropped at
    dispatch time without being evaluated.
``failed``
    Evaluation raised; ``error`` holds the exception.
``shutdown``
    The service closed while the request was still queued.
"""


@dataclass(frozen=True)
class PointRequest:
    """Evaluate one profile at one design point."""

    profile: KernelProfile
    n_cus: int
    gpu_freq: float
    bandwidth: float
    power_budget: float = 160.0
    stream: str = "default"
    deadline_s: float | None = None

    def to_space(self) -> DesignSpace:
        """The singleton grid holding exactly this design point."""
        return DesignSpace(
            cu_counts=(int(self.n_cus),),
            frequencies=(float(self.gpu_freq),),
            bandwidths=(float(self.bandwidth),),
            power_budget=float(self.power_budget),
        )

    @classmethod
    def from_config(
        cls, profile: KernelProfile, config: EHPConfig, **kwargs
    ) -> "PointRequest":
        """Build from an :class:`EHPConfig`'s swept axes."""
        return cls(
            profile=profile,
            n_cus=config.n_cus,
            gpu_freq=config.gpu_freq,
            bandwidth=config.bandwidth,
            **kwargs,
        )


@dataclass(frozen=True)
class SweepRequest:
    """A small DSE sweep over *profiles* × *space*."""

    profiles: tuple[KernelProfile, ...]
    space: DesignSpace
    stream: str = "default"
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ValueError("sweep needs at least one profile")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise ValueError("profile names must be unique")


@dataclass(frozen=True)
class ExperimentRequest:
    """Run one registered paper artifact by name."""

    name: str
    stream: str = "default"
    deadline_s: float | None = None


@dataclass(frozen=True)
class SimulateRequest:
    """One trace-driven APU simulation (SimCache-fronted)."""

    trace: Any
    config: Any = None
    stream: str = "default"
    deadline_s: float | None = None


@dataclass(frozen=True)
class PointResult:
    """Answer to a :class:`PointRequest` — one grid cell."""

    performance: float
    node_power: float
    feasible: bool


@dataclass(frozen=True)
class ServeResponse:
    """Terminal outcome of one request.

    ``path`` records how the answer was produced: ``"inline-cache"``
    (answered from EvalCache/SimCache without a worker round-trip),
    ``"coalesced"`` (merged into a multi-request tensor slab batch),
    ``"degraded"`` (evaluated as a solo grid call inside a batch),
    ``"solo"`` (experiment / simulate worker task), or ``""`` for
    requests that never reached evaluation.
    """

    status: str
    value: Any = None
    error: BaseException | None = None
    path: str = ""
    batch_id: int | None = None
    admitted_at: float = 0.0
    completed_at: float = 0.0
    extra: Mapping[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def latency_s(self) -> float:
        """Admission-to-completion wall time."""
        return max(0.0, self.completed_at - self.admitted_at)
