"""Unit tests for the ASCII Gantt chart."""


from repro.obs import TraceRecorder
from repro.profiler.gantt import gantt_of


def trace_of(records):
    n = len(records)
    return TraceRecorder.from_dict({
        "tid": list(range(n)),
        "name": [f"t{tid}" for tid in range(n)],
        "loop": [0] * n,
        "iteration": [it for _, it, _, _ in records],
        "worker": [w for w, _, _, _ in records],
        "start": [a for _, _, a, _ in records],
        "end": [b for _, _, _, b in records],
    })


class TestGantt:
    def test_grid_shape(self):
        t = trace_of([(0, 0, 0.0, 1.0), (1, 0, 0.0, 1.0)])
        g = gantt_of(t, 2, width=10)
        assert g.grid.shape == (2, 10)

    def test_idle_is_minus_one(self):
        t = trace_of([(0, 0, 0.0, 0.5)])
        g = gantt_of(t, 2, width=10)
        assert (g.grid[1] == -1).all()
        assert (g.grid[0][:5] == 0).all()

    def test_iteration_glyphs(self):
        t = trace_of([(0, 0, 0.0, 1.0), (0, 1, 1.0, 2.0)])
        g = gantt_of(t, 1, width=10)
        assert (g.grid[0][:5] == 0).all()
        assert (g.grid[0][5:] == 1).all()

    def test_interleaving_detection(self):
        barrier = trace_of([(0, 0, 0.0, 1.0), (1, 0, 0.0, 1.0),
                            (0, 1, 1.0, 2.0), (1, 1, 1.0, 2.0)])
        g = gantt_of(barrier, 2, width=8)
        assert not g.iterations_interleaved()
        pipelined = trace_of([(0, 0, 0.0, 2.0), (1, 1, 1.0, 2.0)])
        g2 = gantt_of(pipelined, 2, width=8)
        assert g2.iterations_interleaved()

    def test_iteration_span(self):
        t = trace_of([(0, 0, 0.0, 1.0), (0, 1, 1.0, 2.0)])
        g = gantt_of(t, 1, width=10)
        lo, hi = g.iteration_span(1)
        assert lo >= 0.9 and hi <= 2.01

    def test_window_selection(self):
        t = trace_of([(0, 0, 0.0, 1.0), (0, 5, 5.0, 6.0)])
        g = gantt_of(t, 1, width=10, t0=4.5, t1=6.5)
        assert 5 in set(g.grid[0])
        assert 0 not in set(g.grid[0])

    def test_render_smoke(self):
        t = trace_of([(0, 0, 0.0, 1.0), (1, 1, 0.5, 1.5)])
        out = gantt_of(t, 2, width=20).render()
        assert "thr  0" in out
        assert "span" in out

    def test_empty_trace(self):
        g = gantt_of(TraceRecorder(), 2, width=10)
        assert (g.grid == -1).all()
