"""Profiling and post-mortem analysis (the paper's §2.3.1/§4.1 methodology)."""

from repro.profiler.trace import CommRecord
from repro.profiler.breakdown import Breakdown, breakdown_of
from repro.profiler.comm_metrics import (
    CommMetrics,
    comm_metrics,
    work_intervals_by_worker,
)
from repro.profiler.gantt import GanttChart, gantt_of
from repro.profiler.report import (
    LoopProfile,
    iteration_spans,
    loop_profiles,
    text_report,
)

__all__ = [
    "CommRecord",
    "Breakdown",
    "breakdown_of",
    "CommMetrics",
    "comm_metrics",
    "GanttChart",
    "gantt_of",
    "LoopProfile",
    "iteration_spans",
    "loop_profiles",
    "text_report",
    "work_intervals_by_worker",
]
