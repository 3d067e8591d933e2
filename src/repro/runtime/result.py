"""Run results: everything the paper's figures and tables are computed from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.graph import EdgeStats
from repro.memory.hierarchy import MemCounters
from repro.profiler.trace import CommRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import TraceRecorder


@dataclass
class RunResult:
    """Outcome of simulating one process (one MPI rank or a whole node).

    Time-breakdown semantics follow §2.3.1: *work* is time inside task
    bodies, *overhead* is time outside a body while ready tasks exist,
    *idleness* is time outside a body with no ready task; *discovery* is the
    producer thread's task-creation time, reported separately like the green
    dotted curves of Figs. 1/2.
    """

    #: Label of the simulated configuration.
    name: str
    #: Number of simulated OpenMP threads.
    n_threads: int
    #: Wall-clock (simulated) end time of the whole run.
    makespan: float
    #: Producer busy time spent creating/replaying tasks.
    discovery_busy: float
    #: (first creation start, last creation end) — Fig 1's definition.
    discovery_span: tuple[float, float]
    #: (first task schedule, last task completion) — Fig 1's "execution".
    execution_span: tuple[float, float]
    #: Per-thread cumulated work seconds.
    work: np.ndarray
    #: Per-thread cumulated scheduling overhead seconds.
    overhead: np.ndarray
    #: Tasks executed (stubs excluded).
    n_tasks: int
    #: Edge accounting from discovery.
    edges: EdgeStats
    #: Memory hierarchy counters.
    mem: MemCounters
    #: This rank's task spans, when the config asked for ``trace``.
    trace: Optional["TraceRecorder"] = None
    #: Traced MPI requests (sends + collectives, §4.1).
    comm: list[CommRecord] = field(default_factory=list)
    #: Free-form extras (per-app metrics, scheduler stats...).
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def work_total(self) -> float:
        """Cumulated work over all threads (Fig 7's right axis)."""
        return float(self.work.sum())

    @property
    def overhead_total(self) -> float:
        return float(self.overhead.sum())

    @property
    def idle(self) -> np.ndarray:
        """Per-thread idle time: makespan minus everything else.

        The producer's discovery time is accounted on thread 0 (the paper's
        single producer), so it is excluded from thread 0's idleness.
        """
        other = self.work + self.overhead
        other = other.copy()
        other[0] += self.discovery_busy
        return np.maximum(self.makespan - other, 0.0)

    @property
    def idle_total(self) -> float:
        return float(self.idle.sum())

    # ------------------------------------------------------------------
    @property
    def work_avg(self) -> float:
        """Work time averaged on threads (Fig 2c's y-axis)."""
        return self.work_total / self.n_threads

    @property
    def overhead_avg(self) -> float:
        return self.overhead_total / self.n_threads

    @property
    def idle_avg(self) -> float:
        return self.idle_total / self.n_threads

    @property
    def utilization(self) -> float:
        """Fraction of thread-seconds spent in task bodies.

        Reads identically at every fidelity tier: work_total over
        ``n_threads * makespan`` (0.0 for an empty run).
        """
        denom = self.n_threads * self.makespan
        return self.work_total / denom if denom > 0 else 0.0

    @property
    def discovery_wall(self) -> float:
        """Discovery span duration (first to last task creation)."""
        a, b = self.discovery_span
        return max(0.0, b - a)

    @property
    def execution_time(self) -> float:
        """First schedule to last completion (Fig 1's blue curve)."""
        a, b = self.execution_span
        return max(0.0, b - a)

    @property
    def work_per_task(self) -> float:
        """Average task grain (Fig 2b)."""
        return self.work_total / self.n_tasks if self.n_tasks else 0.0

    @property
    def overhead_per_task(self) -> float:
        return self.overhead_total / self.n_tasks if self.n_tasks else 0.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`.

        This is the stored document of the campaign result store: numpy
        arrays become lists (float repr round-trips doubles exactly), the
        optional trace serializes columnar, and ``extra`` passes through
        (campaign results keep it JSON-only).
        """
        return {
            "name": self.name,
            "n_threads": self.n_threads,
            "makespan": self.makespan,
            "discovery_busy": self.discovery_busy,
            "discovery_span": list(self.discovery_span),
            "execution_span": list(self.execution_span),
            "work": [float(v) for v in self.work],
            "overhead": [float(v) for v in self.overhead],
            "n_tasks": self.n_tasks,
            "edges": self.edges.to_dict(),
            "mem": self.mem.to_dict(),
            "trace": None if self.trace is None else self.trace.to_dict(),
            "comm": [r.to_dict() for r in self.comm],
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        from repro.obs.recorder import TraceRecorder

        return cls(
            name=data["name"],
            n_threads=int(data["n_threads"]),
            makespan=float(data["makespan"]),
            discovery_busy=float(data["discovery_busy"]),
            discovery_span=tuple(data["discovery_span"]),
            execution_span=tuple(data["execution_span"]),
            work=np.asarray(data["work"], dtype=float),
            overhead=np.asarray(data["overhead"], dtype=float),
            n_tasks=int(data["n_tasks"]),
            edges=EdgeStats.from_dict(data["edges"]),
            mem=MemCounters.from_dict(data["mem"]),
            trace=(
                None if data.get("trace") is None
                else TraceRecorder.from_dict(data["trace"])
            ),
            comm=[CommRecord.from_dict(r) for r in data.get("comm", [])],
            extra=dict(data.get("extra", {})),
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: makespan={self.makespan:.3f}s "
            f"work/thr={self.work_avg:.3f}s idle/thr={self.idle_avg:.3f}s "
            f"ovh/thr={self.overhead_avg:.3f}s disc={self.discovery_busy:.3f}s "
            f"tasks={self.n_tasks} edges={self.edges.created}"
        )
