"""Determinism suite for the `repro.sim` kernel (all three engines).

Locks in two contracts:

1. **Reproducibility** — the same program and seed produce byte-identical
   traces, the same event count and the same final simulated time on every
   run, for the task runtime, the fork-join runtime and a coupled 2-rank
   cluster.
2. **Observer neutrality** — attaching bus subscribers never perturbs the
   simulation: results with and without observers are identical (the
   instrumentation bus is read-only by construction).
"""

from repro.cluster.cluster import Cluster
from repro.core import ProgramBuilder
from repro.core.program import CommKind, CommSpec
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.runtime.parallel_for import (
    ForIteration,
    ForProgram,
    LoopSpec,
    ParallelForRuntime,
)
from repro.obs import iter_ndjson
from repro.sim import EventCounter, InstrumentationBus, SimContext


def cfg(**kw):
    kw.setdefault("machine", tiny_test_machine(4))
    kw.setdefault("seed", 7)
    return RuntimeConfig(**kw)


def task_program(iterations=3, width=8):
    """A mixed-shape TDG: a source fan-out, chains, and a reduction."""
    b = ProgramBuilder("det", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            b.task("src", out=["x"], flops=400.0)
            for i in range(width):
                b.task(f"mid{i}", inp=["x"], out=[("y", i)],
                       flops=300.0 + 10.0 * i,
                       footprint=[(i, 2048)])
            b.task("sink", inp=[("y", i) for i in range(width)],
                   flops=500.0)
            b.taskwait()
    return b.build()


def for_program(iterations=3):
    its = []
    for _ in range(iterations):
        its.append(ForIteration(phases=[
            LoopSpec(name="calc", flops=50_000.0, bytes_streamed=1 << 16),
            LoopSpec(name="apply", flops=20_000.0, bytes_streamed=1 << 14,
                     footprint=((0, 4096), (1, 4096))),
        ]))
    return ForProgram(its, name="det-for")


def pingpong(rank):
    peer = 1 - rank
    b = ProgramBuilder(f"pp-r{rank}")
    for _ in range(3):
        with b.iteration():
            if rank == 0:
                b.task("send", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=0))
                b.task("recv", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=1))
            else:
                b.task("recv", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.IRECV, 256, peer=peer, tag=0))
                b.task("send", inout=["buf"], flops=100.0,
                       comm=CommSpec(CommKind.ISEND, 256, peer=peer, tag=1))
    return b.build()


def ndjson(trace):
    """A run's task trace as its NDJSON event log (one line per span)."""
    return "\n".join(iter_ndjson(trace))


def run_task(bus=None):
    rt = TaskRuntime(task_program(), cfg(trace=True), bus=bus)
    res = rt.run()
    return ndjson(res.trace), rt.engine.n_dispatched, res.makespan


def run_for(bus=None):
    rt = ParallelForRuntime(for_program(), cfg(), bus=bus)
    res = rt.run()
    return rt.engine.n_dispatched, res.makespan, tuple(res.work)


def run_cluster(bus=None):
    cluster = Cluster(2, ctx=SimContext(seed=7), bus=bus)
    res = cluster.run([pingpong(0), pingpong(1)],
                      [cfg(trace=True), cfg(trace=True)])
    traces = tuple(ndjson(r.trace) for r in res.results)
    return traces, res.n_events, res.makespan


class TestReproducibility:
    def test_task_runtime_bitwise_repeatable(self):
        assert run_task() == run_task()

    def test_parallel_for_bitwise_repeatable(self):
        assert run_for() == run_for()

    def test_cluster_bitwise_repeatable(self):
        assert run_cluster() == run_cluster()

    def test_seed_changes_stealing_runs(self):
        """Different seeds may reorder steals but never lose tasks."""
        a = TaskRuntime(task_program(), cfg(seed=1)).run()
        b = TaskRuntime(task_program(), cfg(seed=2)).run()
        assert a.n_tasks == b.n_tasks


class TestObserverNeutrality:
    def test_task_runtime_subscribers_do_not_perturb(self):
        bus = InstrumentationBus()
        counter = bus.attach(EventCounter())
        observed = run_task(bus=bus)
        assert observed == run_task()
        assert counter.counts["task_end"] > 0
        assert counter.counts["task_ready"] > 0
        assert counter.counts["barrier"] > 0

    def test_parallel_for_subscribers_do_not_perturb(self):
        bus = InstrumentationBus()
        counter = bus.attach(EventCounter())
        assert run_for(bus=bus) == run_for()
        assert counter.counts["barrier"] > 0

    def test_cluster_shared_bus_does_not_perturb(self):
        bus = InstrumentationBus()
        counter = bus.attach(EventCounter())
        assert run_cluster(bus=bus) == run_cluster()
        assert counter.counts["msg_post"] > 0
        assert counter.counts["msg_complete"] > 0

    def test_detached_subscriber_costs_nothing(self):
        bus = InstrumentationBus()
        counter = bus.attach(EventCounter())
        bus.detach(counter)
        assert bus.quiet
        run_task(bus=bus)
        assert all(v == 0 for v in counter.counts.values())


class TestRecorderNeutrality:
    """The full observability recorder is as neutral as any subscriber:
    attaching a :class:`repro.obs.TraceRecorder` leaves the DES trace
    byte-identical on every engine."""

    def test_task_runtime_recorder_neutral(self):
        from repro.obs import TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        assert run_task(bus=bus) == run_task()
        assert recorder.n_spans > 0
        assert recorder.counters.totals().tasks_created > 0

    def test_parallel_for_recorder_neutral(self):
        from repro.obs import TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        assert run_for(bus=bus) == run_for()
        assert recorder.barrier_kind  # fork-join barriers observed

    def test_cluster_recorder_neutral(self):
        from repro.obs import TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        assert run_cluster(bus=bus) == run_cluster()
        assert sorted(recorder.ranks) == [0, 1]
        assert recorder.comm_records  # MPI requests observed
        # Spans from both ranks, attributed via register events.
        assert {0, 1} <= set(recorder.span_rank)

    def test_run_trace_matches_bus_recorder_span_for_span(self):
        """Each rank's ``RunResult.trace`` holds exactly the spans a
        bus-wide recorder attributes to that rank, in the same order."""
        from repro.obs import TraceRecorder

        bus = InstrumentationBus()
        recorder = bus.attach(TraceRecorder())
        res = Cluster(2, ctx=SimContext(seed=7), bus=bus).run(
            [pingpong(0), pingpong(1)], [cfg(trace=True), cfg(trace=True)]
        )
        names = recorder.span_names()
        for rank, result in enumerate(res.results):
            rows = [i for i in range(recorder.n_spans)
                    if recorder.span_rank[i] == rank]
            assert rows
            assert result.trace.span_rank == [rank] * len(rows)
            assert result.trace.to_dict() == {
                "tid": [recorder.span_tid[i] for i in rows],
                "name": [names[i] for i in rows],
                "loop": [recorder.span_loop[i] for i in rows],
                "iteration": [recorder.span_iteration[i] for i in rows],
                "worker": [recorder.span_worker[i] for i in rows],
                "start": [recorder.span_start[i] for i in rows],
                "end": [recorder.span_end[i] for i in rows],
            }
