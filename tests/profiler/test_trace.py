"""Unit tests for the span columns a run's task trace records."""

import numpy as np

from repro.obs import TraceRecorder
from repro.profiler.comm_metrics import work_intervals_by_worker
from repro.profiler.trace import CommRecord


def recording(*spans):
    """A recorder holding ``(tid, name, loop, iteration, worker, start, end)``."""
    cols = dict(zip(
        ("tid", "name", "loop", "iteration", "worker", "start", "end"),
        map(list, zip(*spans)) if spans else [[] for _ in range(7)],
    ))
    return TraceRecorder.from_dict(cols)


class TestTaskTrace:
    def test_record_and_arrays(self):
        t = recording((0, "a", 1, 0, 2, 0.0, 1.0), (1, "b", 1, 0, 3, 1.0, 2.0))
        cols = t.arrays()
        assert list(cols["tid"]) == [0, 1]
        assert list(cols["worker"]) == [2, 3]
        assert t.span_names() == ["a", "b"]
        assert t.n_spans == 2

    def test_disabled_records_nothing(self):
        from repro.core import ProgramBuilder
        from repro.memory import tiny_test_machine
        from repro.runtime import RuntimeConfig, TaskRuntime
        from repro.sim import InstrumentationBus

        b = ProgramBuilder("p")
        with b.iteration():
            b.task("t", out=["y"], flops=1000.0)
        bus = InstrumentationBus()
        r = TaskRuntime(
            b.build(), RuntimeConfig(machine=tiny_test_machine(2)), bus=bus
        ).run()
        assert r.trace is None
        assert bus.quiet

    def test_work_intervals_sorted_per_worker(self):
        t = recording(
            (0, "a", 0, 0, 0, 5.0, 6.0),
            (1, "b", 0, 0, 0, 1.0, 2.0),
            (2, "c", 0, 0, 1, 3.0, 4.0),
        )
        ivs = work_intervals_by_worker(t, 2)
        assert np.allclose(ivs[0], [[1.0, 2.0], [5.0, 6.0]])
        assert np.allclose(ivs[1], [[3.0, 4.0]])

    def test_empty_arrays(self):
        t = TraceRecorder()
        cols = t.arrays()
        assert len(cols["start"]) == 0


class TestCommRecord:
    def test_duration(self):
        r = CommRecord("isend", 0, 1, 100, 2.0, 5.0)
        assert r.duration == 3.0
