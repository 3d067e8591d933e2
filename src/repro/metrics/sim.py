"""Simulation telemetry: ``repro_sim_*`` metric families of one recording.

:func:`sim_registry` reads a finished
:class:`~repro.obs.recorder.TraceRecorder` — its spans, MPI request
records, barriers, registered ranks and discovery counter totals — and
materializes per-run counts into a
:class:`~repro.metrics.registry.MetricsRegistry`: tasks executed/created/
replayed, dependency edges materialized, MPI posts/completions, barriers
by kind, and the share of simulated time the ranks spent in discovery
(creation + replay cost over the last task-end time).  Nothing observes
the bus a second time; every series is simulated-time-derived, hence
deterministic and persistable.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.metrics.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import TraceRecorder


def discovery_share(recorder: "TraceRecorder") -> float:
    """Discovery seconds over the last simulated task-end time.

    A per-rank-summed numerator over a makespan denominator, so the
    share can exceed the single-rank intuition on wide runs; what
    matters is that identical runs report identical shares.
    """
    t_last_end = max(recorder.span_end, default=0.0)
    if t_last_end <= 0:
        return 0.0
    tot = recorder.counters.totals()
    return (tot.creation_cost + tot.replay_cost) / t_last_end


def sim_registry(
    recorder: "TraceRecorder", registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Write a recording's counts into ``registry`` (or a new one)."""
    r = registry if registry is not None else MetricsRegistry()
    tot = recorder.counters.totals()
    r.counter(
        "repro_sim_tasks_total", "Task bodies executed"
    ).inc(recorder.n_spans)
    r.counter(
        "repro_sim_tasks_created_total",
        "Tasks whose depend clauses discovery resolved",
    ).inc(tot.tasks_created)
    r.counter(
        "repro_sim_tasks_replayed_total",
        "Template tasks re-stamped by persistent replay (opt p)",
    ).inc(tot.replay_stamps)
    r.counter(
        "repro_sim_edges_total", "Dependency edges materialized"
    ).inc(tot.edges_created)
    r.counter(
        "repro_sim_edges_avoided_total",
        "Edge creations avoided (deduplicated + pruned)",
    ).inc(tot.edges_skipped)
    r.counter(
        "repro_sim_redirect_nodes_total",
        "Redirect stub nodes inserted by discovery",
    ).inc(tot.redirect_nodes)
    msgs = r.counter(
        "repro_sim_msgs_total", "MPI request events by stage", ("stage",)
    )
    records = recorder.comm_records
    msgs.labels("posted").inc(len(records))
    msgs.labels("completed").inc(
        sum(1 for rec in records if not math.isnan(rec.complete_time))
    )
    barriers = r.counter(
        "repro_sim_barriers_total",
        "Synchronization points reached by kind",
        ("kind",),
    )
    for kind, n in sorted(Counter(recorder.barrier_kind).items()):
        barriers.labels(kind).inc(n)
    r.gauge(
        "repro_sim_ranks", "Runtimes registered on the bus"
    ).set(float(len(recorder.ranks)))
    r.gauge(
        "repro_sim_makespan_seconds",
        "Last simulated task-end time observed",
    ).set(max(recorder.span_end, default=0.0))
    r.gauge(
        "repro_sim_discovery_seconds",
        "Simulated seconds charged to dependency discovery",
    ).set(tot.creation_cost + tot.replay_cost)
    r.gauge(
        "repro_sim_discovery_share",
        "Discovery seconds over the simulated makespan",
    ).set(discovery_share(recorder))
    return r
