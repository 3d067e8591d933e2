"""Round-trip tests for trace serialization and the NDJSON span export."""

import json

import numpy as np

from repro.obs import TraceRecorder, iter_ndjson


def sample_trace():
    return TraceRecorder.from_dict({
        "tid": [0, 1],
        "name": ["a[0]", "b[0]"],
        "loop": [1, 2],
        "iteration": [0, 1],
        "worker": [2, 3],
        "start": [0.0, 1.5],
        "end": [1.5, 2.25],
    })


def task_lines(recorder):
    return [
        json.loads(line) for line in iter_ndjson(recorder)
        if json.loads(line)["ev"] == "task"
    ]


class TestJsonLines:
    def test_round_trip(self):
        t = sample_trace()
        t2 = TraceRecorder.from_dict(json.loads(json.dumps(t.to_dict())))
        a, b = t.arrays(), t2.arrays()
        for k in a:
            assert np.array_equal(a[k], b[k]), k
        assert t.span_names() == t2.span_names()
        assert t2.to_dict() == t.to_dict()

    def test_one_line_per_record(self):
        assert len(task_lines(sample_trace())) == 2

    def test_empty_trace(self):
        empty = TraceRecorder()
        assert task_lines(empty) == []
        assert TraceRecorder.from_dict(empty.to_dict()).n_spans == 0

    def test_runtime_trace_exports(self):
        from repro.core import ProgramBuilder
        from repro.memory import tiny_test_machine
        from repro.runtime import RuntimeConfig, TaskRuntime

        b = ProgramBuilder("p")
        with b.iteration():
            for i in range(5):
                b.task(f"t{i}", out=[("y", i)], flops=1000.0)
        r = TaskRuntime(
            b.build(), RuntimeConfig(machine=tiny_test_machine(2), trace=True)
        ).run()
        lines = task_lines(r.trace)
        assert len(lines) == 5
        assert all("worker" in line for line in lines)
