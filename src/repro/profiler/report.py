"""Post-mortem per-loop aggregation and full text reports.

The MPC-OMP profiler's post-mortem analyses (§2.3.1) answer "where does the
time go" at the loop level: which of LULESH's 33 loops dominates the work
time, which gets the worst grain, how the iteration timeline divides.  This
module reproduces those views from a recording's task spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - circular at runtime
    from repro.obs.recorder import TraceRecorder
    from repro.runtime.result import RunResult


@dataclass(frozen=True, slots=True)
class LoopProfile:
    """Aggregated execution profile of one loop (one ``taskloop`` strip)."""

    loop_id: int
    name: str
    n_tasks: int
    work_total: float
    grain_mean: float
    grain_min: float
    grain_max: float
    first_start: float
    last_end: float

    @property
    def span(self) -> float:
        """Wall span from the loop's first task start to its last end."""
        return self.last_end - self.first_start


def loop_profiles(
    trace: "TraceRecorder",
    *,
    names: Optional[dict[int, str]] = None,
) -> list[LoopProfile]:
    """Aggregate a recording's spans by loop id, ordered by descending work.

    ``names`` optionally maps loop ids to labels; otherwise the most common
    task-name prefix (up to ``[``) of each loop is used.
    """
    cols = trace.arrays()
    if len(cols["loop"]) == 0:
        return []
    task_names = trace.span_names()
    out = []
    for loop_id in np.unique(cols["loop"]):
        mask = cols["loop"] == loop_id
        durations = cols["end"][mask] - cols["start"][mask]
        if names is not None and int(loop_id) in names:
            label = names[int(loop_id)]
        else:
            first_idx = int(np.nonzero(mask)[0][0])
            label = task_names[first_idx].split("[")[0]
        out.append(
            LoopProfile(
                loop_id=int(loop_id),
                name=label,
                n_tasks=int(mask.sum()),
                work_total=float(durations.sum()),
                grain_mean=float(durations.mean()),
                grain_min=float(durations.min()),
                grain_max=float(durations.max()),
                first_start=float(cols["start"][mask].min()),
                last_end=float(cols["end"][mask].max()),
            )
        )
    out.sort(key=lambda p: p.work_total, reverse=True)
    return out


def iteration_spans(trace: "TraceRecorder") -> list[tuple[int, float, float]]:
    """(iteration, first start, last end) per outer iteration."""
    cols = trace.arrays()
    out = []
    for it in np.unique(cols["iteration"]):
        mask = cols["iteration"] == it
        out.append(
            (int(it), float(cols["start"][mask].min()), float(cols["end"][mask].max()))
        )
    return sorted(out)


def text_report(result: "RunResult", *, top: int = 10) -> str:
    """A complete human-readable report for one run.

    Includes the §2.3.1 breakdown, edge accounting, memory counters, the
    top-``top`` loops by work, and the iteration timeline.  Requires the
    run to have been traced.
    """
    # Imported here: repro.analysis imports runtime modules which import
    # the profiler package — a module-level import would be circular.
    from repro.analysis.tables import render_table

    lines = [f"=== run report: {result.name} ==="]
    lines.append(result.summary())
    e = result.edges
    lines.append(
        f"edges: {e.created} created, {e.pruned} pruned, "
        f"{e.duplicates_skipped} duplicates skipped, "
        f"{e.duplicates_created} duplicates materialized, "
        f"{e.redirect_nodes} redirect nodes"
    )
    m = result.mem
    lines.append(
        f"memory: L1DCM {m.l1_misses} L2DCM {m.l2_misses} L3CM {m.l3_misses}, "
        f"DRAM {m.bytes_dram / 1e6:.1f} MB, stalls {m.total_stall_cycles:.3g} cyc"
    )
    if result.trace is None or result.trace.n_spans == 0:
        lines.append("(no task trace recorded — run with trace=True for loop detail)")
        return "\n".join(lines)

    profiles = loop_profiles(result.trace)[:top]
    rows = [
        [p.name, p.n_tasks, f"{p.work_total * 1e3:.3f}",
         f"{p.grain_mean * 1e6:.1f}", f"{p.span * 1e3:.3f}"]
        for p in profiles
    ]
    lines.append(render_table(
        ["loop", "tasks", "work(ms)", "grain(us)", "span(ms)"],
        rows,
        title=f"top {len(profiles)} loops by cumulated work",
    ))
    spans = iteration_spans(result.trace)
    if len(spans) > 1:
        durs = [b - a for _, a, b in spans]
        lines.append(
            f"iterations: {len(spans)}, span mean {np.mean(durs) * 1e3:.3f} ms, "
            f"min {min(durs) * 1e3:.3f}, max {max(durs) * 1e3:.3f}"
        )
    if result.comm:
        total_c = sum(
            r.duration for r in result.comm
            if r.kind in ("isend", "iallreduce") and not np.isnan(r.complete_time)
        )
        lines.append(f"communication: {len(result.comm)} requests, "
                     f"send+collective time {total_c * 1e3:.3f} ms")
    return "\n".join(lines)
