"""Stock subscribers for the instrumentation bus.

Each class here is an observer of the bus: an event counter and
memory-counter sampling.  (Task spans, MPI request records and discovery
counters are recorded by :class:`repro.obs.recorder.TraceRecorder`.)  They
subscribe to :class:`~repro.sim.bus.InstrumentationBus` hooks, so a run
that doesn't want them pays nothing, and external tooling can write its
own observer the same way (any object with ``on_<hook>`` methods —
see the bus module docstring for hook signatures).
"""

from __future__ import annotations

import dataclasses


class EventCounter:
    """Count every bus emission (and nothing else).

    Deliberately side-effect-free: the determinism suite attaches it to
    prove that *having* subscribers does not perturb the simulation.
    """

    __slots__ = ("counts",)

    def __init__(self):
        from repro.sim.bus import HOOKS

        self.counts = {name: 0 for name in HOOKS}

    def on_task_ready(self, table, tid, time) -> None:
        self.counts["task_ready"] += 1

    def on_task_start(self, table, tid, worker, time) -> None:
        self.counts["task_start"] += 1

    def on_task_end(self, table, tid, worker, t_start, t_end) -> None:
        self.counts["task_end"] += 1

    def on_task_create(self, table, tid, res, cost, time) -> None:
        self.counts["task_create"] += 1

    def on_task_replay(self, table, tid, iteration, cost, time) -> None:
        self.counts["task_replay"] += 1

    def on_msg_post(self, record) -> None:
        self.counts["msg_post"] += 1

    def on_msg_complete(self, record) -> None:
        self.counts["msg_complete"] += 1

    def on_barrier(self, kind, time) -> None:
        self.counts["barrier"] += 1

    def on_register(self, table, rank) -> None:
        self.counts["register"] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class MemorySampler:
    """Snapshot memory-hierarchy counters at every barrier event.

    Gives phase-resolved cache/stall profiles (the PAPI-region analogue):
    one :class:`~repro.memory.hierarchy.MemCounters` copy per barrier,
    tagged with the barrier kind and simulated time.
    """

    __slots__ = ("memory", "samples")

    def __init__(self, memory):
        #: The :class:`~repro.memory.hierarchy.MemoryHierarchy` to sample.
        self.memory = memory
        #: ``(kind, time, MemCounters-copy)`` tuples in barrier order.
        self.samples: list[tuple[str, float, object]] = []

    def on_barrier(self, kind, time) -> None:
        self.samples.append(
            (kind, time, dataclasses.replace(self.memory.counters))
        )
