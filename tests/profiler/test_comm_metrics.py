"""Unit tests for §4.1 communication metrics."""

import numpy as np
import pytest

from repro.profiler.comm_metrics import CommMetrics, _Coverage, comm_metrics
from repro.obs import TraceRecorder
from repro.profiler.trace import CommRecord


def trace_with(intervals_by_worker):
    spans = [
        (w, a, b) for w, ivs in enumerate(intervals_by_worker) for a, b in ivs
    ]
    n = len(spans)
    return TraceRecorder.from_dict({
        "tid": list(range(n)),
        "name": [f"t{tid}" for tid in range(n)],
        "loop": [0] * n,
        "iteration": [0] * n,
        "worker": [w for w, _, _ in spans],
        "start": [a for _, a, _ in spans],
        "end": [b for _, _, b in spans],
    })


class TestCoverage:
    def test_simple(self):
        cov = _Coverage(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert cov(0.5) == pytest.approx(0.5)
        assert cov(1.5) == pytest.approx(1.0)
        assert cov(2.5) == pytest.approx(1.5)
        assert cov(10.0) == pytest.approx(2.0)

    def test_overlap_window(self):
        cov = _Coverage(np.array([[0.0, 2.0], [3.0, 5.0]]))
        assert cov.overlap(1.0, 4.0) == pytest.approx(2.0)
        assert cov.overlap(4.0, 1.0) == 0.0

    def test_empty(self):
        cov = _Coverage(np.empty((0, 2)))
        assert cov(100.0) == 0.0


class TestCommMetrics:
    def test_full_overlap(self):
        trace = trace_with([[(0.0, 10.0)], [(0.0, 10.0)]])
        recs = [CommRecord("isend", 0, 1, 100, 2.0, 4.0)]
        m = comm_metrics(recs, trace, n_threads=2)
        assert m.comm_time == pytest.approx(2.0)
        assert m.overlapped_work == pytest.approx(4.0)
        assert m.overlap_ratio == pytest.approx(1.0)

    def test_zero_overlap(self):
        trace = trace_with([[(10.0, 20.0)], []])
        recs = [CommRecord("isend", 0, 1, 100, 0.0, 5.0)]
        m = comm_metrics(recs, trace, n_threads=2)
        assert m.overlap_ratio == 0.0

    def test_recv_requests_ignored(self):
        trace = trace_with([[(0.0, 10.0)]])
        recs = [
            CommRecord("irecv", 0, 1, 100, 0.0, 5.0),
            CommRecord("isend", 0, 1, 100, 0.0, 5.0),
        ]
        m = comm_metrics(recs, trace, n_threads=1)
        assert m.n_requests == 1

    def test_collective_vs_p2p_split(self):
        trace = trace_with([[(0.0, 10.0)]])
        recs = [
            CommRecord("iallreduce", 0, -1, 8, 0.0, 4.0),
            CommRecord("isend", 0, 1, 100, 0.0, 1.0),
        ]
        m = comm_metrics(recs, trace, n_threads=1)
        assert m.collective_time == pytest.approx(4.0)
        assert m.p2p_send_time == pytest.approx(1.0)

    def test_incomplete_requests_skipped(self):
        trace = trace_with([[(0.0, 1.0)]])
        recs = [CommRecord("isend", 0, 1, 100, 0.0, float("nan"))]
        m = comm_metrics(recs, trace, n_threads=1)
        assert m.n_requests == 0
        assert m.comm_time == 0.0

    def test_ratio_clamped_to_one(self):
        trace = trace_with([[(0.0, 100.0)], [(0.0, 100.0)], [(0.0, 100.0)]])
        recs = [CommRecord("isend", 0, 1, 8, 1.0, 1.001)]
        m = comm_metrics(recs, trace, n_threads=3)
        assert m.overlap_ratio <= 1.0

    def test_bad_threads_rejected(self):
        with pytest.raises(ValueError):
            comm_metrics([], TraceRecorder(), 0)

    def test_str_smoke(self):
        trace = trace_with([[(0.0, 1.0)]])
        m = comm_metrics([], trace, 1)
        assert "ratio" in str(m)
