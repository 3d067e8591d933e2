"""The structured trace recorder: one subscriber, every event stream.

:class:`TraceRecorder` is the only span and counter recorder.  It
attaches to an
:class:`~repro.sim.InstrumentationBus` and records

- **task spans** (one per executed task body) in a struct-of-arrays
  column layout — parallel lists for tid, interned name id, loop id,
  iteration, rank, worker and start/end times, matching the
  :class:`~repro.sim.table.TaskTable` idiom so a million-span trace is a
  handful of lists, not a million objects;
- **barrier events** (taskwait / persistent-iteration / loop);
- **MPI request records** (the shared :class:`~repro.profiler.trace.CommRecord`
  objects — in-flight requests keep a NaN completion time until the
  matching ``msg_complete`` fires);
- **discovery counters** (an embedded
  :class:`~repro.obs.counters.DiscoveryCounters`).

Exporters (:mod:`repro.obs.export`), the measured critical-path
analysis (:mod:`repro.obs.critical_path`), the post-mortem profiler
(:mod:`repro.profiler`) and the ``repro_sim_*`` metric families
(:mod:`repro.metrics.sim`) read these columns; the recorder itself never
touches the simulation (observer neutrality).

A runtime whose config sets ``trace`` attaches a table-filtered recorder
to its own ``task_end`` hook and returns it as ``RunResult.trace``; that
recording serializes to the columnar ``tid/name/loop/iteration/worker/
start/end`` document of :meth:`TraceRecorder.to_dict`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs.counters import DiscoveryCounters
from repro.profiler.trace import CommRecord
from repro.util.interner import Interner


class TraceRecorder:
    """Record spans, barriers, comm records and counters from one bus.

    Attach before constructing the runtime(s)::

        bus = InstrumentationBus()
        rec = bus.attach(TraceRecorder())
        result = run_experiment(spec, bus=bus)

    On a shared multi-rank bus, ``register`` events map each runtime's
    task table to its rank; events from tables never registered are
    attributed to rank 0.  ``table`` restricts the table-carrying hooks
    (register, task end/create/replay) to that one task table: a per-rank
    recording on a shared bus must filter this way, or it would absorb
    every other rank's tasks.
    """

    __slots__ = (
        "sink",
        "table",
        "names",
        "span_tid",
        "span_name",
        "span_loop",
        "span_iteration",
        "span_rank",
        "span_worker",
        "span_start",
        "span_end",
        "barrier_kind",
        "barrier_time",
        "comm_records",
        "counters",
        "_rank_of",
        "ranks",
    )

    def __init__(self, sink=None, *, table=None) -> None:
        #: Optional streaming sink (:class:`repro.db.TraceDbWriter`): when
        #: set, recorded spans drain to it in batches mid-run instead of
        #: accumulating only in RAM; call ``sink.close(recorder)`` after
        #: the run to flush the tail plus barriers/comms/counters.
        self.sink = sink
        #: Only events of this task table are recorded (None: every table).
        self.table = table
        #: Interned task-name table (``names.keys[i]`` is name id ``i``).
        self.names = Interner()
        # -- task spans (parallel columns) ------------------------------
        self.span_tid: list[int] = []
        self.span_name: list[int] = []
        self.span_loop: list[int] = []
        self.span_iteration: list[int] = []
        self.span_rank: list[int] = []
        self.span_worker: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        # -- barriers ---------------------------------------------------
        self.barrier_kind: list[str] = []
        self.barrier_time: list[float] = []
        # -- MPI --------------------------------------------------------
        self.comm_records: list[CommRecord] = []
        # -- discovery counters ----------------------------------------
        self.counters = DiscoveryCounters()
        self._rank_of: dict[int, int] = {}
        #: Registered ranks in registration order.
        self.ranks: list[int] = []

    # -- hooks ---------------------------------------------------------
    def on_register(self, table, rank) -> None:
        if self.table is not None and table is not self.table:
            return
        if rank not in self.ranks:
            self.ranks.append(rank)
        if table is not None:
            self._rank_of[id(table)] = rank
        self.counters.on_register(table, rank)

    def on_task_end(self, table, tid, worker, t_start, t_end) -> None:
        if self.table is not None and table is not self.table:
            return
        self.span_tid.append(tid)
        self.span_name.append(self.names(table.name[tid]))
        self.span_loop.append(int(table.loop_id[tid]))
        self.span_iteration.append(int(table.iteration[tid]))
        self.span_rank.append(self._rank_of.get(id(table), 0))
        self.span_worker.append(worker)
        self.span_start.append(t_start)
        self.span_end.append(t_end)
        s = self.sink
        if s is not None and len(self.span_tid) - s.mark >= s.batch:
            s.drain(self)

    def on_task_create(self, table, tid, res, cost, time) -> None:
        if self.table is not None and table is not self.table:
            return
        self.counters.on_task_create(table, tid, res, cost, time)

    def on_task_replay(self, table, tid, iteration, cost, time) -> None:
        if self.table is not None and table is not self.table:
            return
        self.counters.on_task_replay(table, tid, iteration, cost, time)

    def on_msg_post(self, record: CommRecord) -> None:
        self.comm_records.append(record)

    def on_barrier(self, kind, time) -> None:
        self.barrier_kind.append(kind)
        self.barrier_time.append(time)

    # -- accessors -----------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.span_tid)

    def name_table(self) -> list[str]:
        """Interned names by id (first-seen order)."""
        return self.names.keys()

    def span_names(self) -> list[str]:
        """Task names, one per span (aligned with :meth:`arrays` rows)."""
        return list(map(self.name_table().__getitem__, self.span_name))

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns frozen to numpy arrays (post-mortem analysis)."""
        return {
            "tid": np.asarray(self.span_tid, dtype=np.int64),
            "loop": np.asarray(self.span_loop, dtype=np.int32),
            "iteration": np.asarray(self.span_iteration, dtype=np.int32),
            "worker": np.asarray(self.span_worker, dtype=np.int32),
            "start": np.asarray(self.span_start, dtype=np.float64),
            "end": np.asarray(self.span_end, dtype=np.float64),
        }

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """The spans as a columnar JSON-ready dict (``RunResult.trace``).

        Only the span columns serialize (ranks excepted: a result is one
        rank's); barriers, comm records and counters are recording-time
        state.  Inverse of :meth:`from_dict`.
        """
        return {
            "tid": list(self.span_tid),
            "name": self.span_names(),
            "loop": list(self.span_loop),
            "iteration": list(self.span_iteration),
            "worker": list(self.span_worker),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceRecorder":
        """Rebuild the span columns of a :meth:`to_dict` document
        (attributed to rank 0, which the document does not carry)."""
        rec = cls()
        rec.span_tid = [int(v) for v in data["tid"]]
        rec.span_name = [rec.names(str(v)) for v in data["name"]]
        rec.span_loop = [int(v) for v in data["loop"]]
        rec.span_iteration = [int(v) for v in data["iteration"]]
        rec.span_rank = [0] * len(rec.span_tid)
        rec.span_worker = [int(v) for v in data["worker"]]
        rec.span_start = [float(v) for v in data["start"]]
        rec.span_end = [float(v) for v in data["end"]]
        return rec

    def durations(
        self, *, rank: Optional[int] = None
    ) -> dict[tuple[int, int], float]:
        """Measured span durations keyed by ``(tid, iteration)``.

        Persistent replay executes the same tid once per iteration; the
        key keeps those spans distinct.  ``rank`` filters a multi-rank
        recording down to one runtime's tid space (tids collide across
        ranks).  When a (tid, iteration) somehow has several spans the
        last one wins — matching the table's own completion stamps.
        """
        out: dict[tuple[int, int], float] = {}
        tids, iters = self.span_tid, self.span_iteration
        starts, ends, ranks = self.span_start, self.span_end, self.span_rank
        for i in range(len(tids)):
            if rank is not None and ranks[i] != rank:
                continue
            out[tids[i], iters[i]] = ends[i] - starts[i]
        return out
