"""ASCII Gantt charts of task execution (the paper's Fig. 8).

One row per thread, one column per time bucket; the glyph encodes which
outer-loop *iteration* the tasks executed in that bucket belong to, so the
persistent-TDG implicit barrier shows up as clean vertical iteration
boundaries exactly as in the paper's bottom chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import TraceRecorder

#: Glyph cycle: iteration i renders as _GLYPHS[i % len].
_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass
class GanttChart:
    """Rendered Gantt data for one process."""

    n_threads: int
    t0: float
    t1: float
    width: int
    #: grid[thread][col] = iteration index shown, or -1 for idle.
    grid: np.ndarray

    # ------------------------------------------------------------------
    def render(self, *, show_axis: bool = True) -> str:
        """Render to a printable multi-line string."""
        lines = []
        for w in range(self.n_threads):
            row = "".join(
                "." if v < 0 else _GLYPHS[int(v) % len(_GLYPHS)]
                for v in self.grid[w]
            )
            lines.append(f"thr{w:>3} |{row}|")
        if show_axis:
            span = self.t1 - self.t0
            lines.append(
                f"       {self.t0:.4f}s{' ' * max(0, self.width - 16)}{self.t1:.4f}s"
                f"  (span {span:.4f}s)"
            )
        return "\n".join(lines)

    def iteration_span(self, iteration: int) -> tuple[float, float]:
        """Columns where ``iteration`` appears, as times (debug helper)."""
        cols = np.nonzero((self.grid == iteration).any(axis=0))[0]
        if len(cols) == 0:
            return (float("nan"), float("nan"))
        dt = (self.t1 - self.t0) / self.width
        return (self.t0 + cols[0] * dt, self.t0 + (cols[-1] + 1) * dt)

    def iterations_interleaved(self) -> bool:
        """Whether iterations overlap in time by more than one bucket.

        True for the normal TDG (iterations pipeline into each other),
        False with the persistent barrier (Fig. 8 bottom).  A single
        shared boundary column is tolerated: buckets quantize time, so
        the end of iteration n and the start of n+1 can land in the same
        column without any true overlap.
        """
        spans: dict[int, tuple[int, int]] = {}
        for col in range(self.width):
            for v in self.grid[:, col]:
                if v < 0:
                    continue
                it = int(v)
                lo, hi = spans.get(it, (col, col))
                spans[it] = (min(lo, col), max(hi, col))
        its = sorted(spans)
        for a, b in zip(its, its[1:]):
            if spans[a][1] > spans[b][0] + 1:
                return True
        return False


def gantt_of(
    trace: "TraceRecorder",
    n_threads: int,
    *,
    width: int = 100,
    t0: float | None = None,
    t1: float | None = None,
) -> GanttChart:
    """Build a Gantt chart from a recording's task spans.

    Buckets take the iteration of the latest-starting task covering them.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    cols = trace.arrays()
    if len(cols["start"]) == 0:
        return GanttChart(n_threads, 0.0, 0.0, width, -np.ones((n_threads, width)))
    lo = float(cols["start"].min()) if t0 is None else t0
    hi = float(cols["end"].max()) if t1 is None else t1
    if hi <= lo:
        hi = lo + 1e-9
    grid = -np.ones((n_threads, width), dtype=np.int64)
    scale = width / (hi - lo)
    for s, e, w, it in zip(cols["start"], cols["end"], cols["worker"], cols["iteration"]):
        if e < lo or s > hi or w >= n_threads:
            continue
        c0 = max(0, int((s - lo) * scale))
        c1 = min(width, max(c0 + 1, int(np.ceil((e - lo) * scale))))
        grid[w, c0:c1] = it
    return GanttChart(n_threads, lo, hi, width, grid)
