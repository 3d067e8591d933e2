"""One-call profiling: run a spec with full observability attached.

:func:`profile_spec` wires a :class:`~repro.obs.recorder.TraceRecorder`
onto the experiment bus, executes the spec through the campaign runner
(the same entrypoint every other caller uses — profiling changes nothing
about the run), compiles the profiled rank's TDG, and derives the
measured critical path.  The :class:`ProfileReport` it returns feeds the
``repro profile`` CLI: text report, counters JSON, Perfetto trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.counters import diff_counters
from repro.obs.critical_path import CriticalPathResult, measured_critical_path
from repro.obs.recorder import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import ExperimentSpec
    from repro.core.compiled import CompiledTDG
    from repro.runtime.result import RunResult


@dataclass
class ProfileReport:
    """Everything one profiled run produced."""

    spec: "ExperimentSpec"
    result: "RunResult"
    recorder: TraceRecorder
    #: Counters JSON document (versioned; see repro.obs.counters).
    counters: dict
    #: None for the fork-join engine (no TDG to compile).
    compiled: Optional["CompiledTDG"]
    cp: Optional[CriticalPathResult]
    #: The rank whose tid space ``compiled``/``cp`` describe.
    profiled_rank: int


def profile_spec(spec: "ExperimentSpec") -> ProfileReport:
    """Run ``spec`` with a recorder attached and analyze the recording.

    The recorder is the only observer, and the run is exactly what
    ``run_experiment(spec)`` executes — the bus subscriber observes
    without perturbing (the determinism suite's observer-neutrality
    contract), and the spec keeps its own key.
    """
    from repro.campaign.runner import build_programs, derive_config, run_experiment
    from repro.sim import InstrumentationBus

    cfg = derive_config(spec)
    bus = InstrumentationBus()
    recorder = bus.attach(TraceRecorder())
    result = run_experiment(spec, bus=bus)
    profiled_rank = result.extra.get("cluster", {}).get("profiled_rank", 0)

    compiled = None
    cp = None
    if spec.engine == "task":
        from repro.core.compiled import compile_program

        program = build_programs(spec)[profiled_rank]
        compiled = compile_program(program, cfg.opts, owner=profiled_rank)
        cp = measured_critical_path(
            compiled,
            recorder,
            flops_per_core=cfg.machine.flops_per_core,
            rank=profiled_rank,
        )
    return ProfileReport(
        spec=spec,
        result=result,
        recorder=recorder,
        counters=recorder.counters.to_dict(),
        compiled=compiled,
        cp=cp,
        profiled_rank=profiled_rank,
    )


# ======================================================================
# rendering
# ======================================================================
def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def text_report(report: ProfileReport) -> str:
    """The human-readable profile: breakdown, counters, critical path."""
    from repro.metrics.sim import discovery_share
    from repro.profiler.breakdown import breakdown_of

    lines: list[str] = []
    spec = report.spec
    lines.append(f"profile: {spec.label}")
    lines.append(f"spec key: {spec.key[:16]}")
    lines.append("")

    bd = breakdown_of(report.result)
    lines.append("time breakdown (§2.3.1, averaged on threads)")
    lines.append(f"  makespan   {bd.makespan:12.6f} s")
    lines.append(f"  work       {bd.work_avg:12.6f} s")
    lines.append(f"  idle       {bd.idle_avg:12.6f} s")
    lines.append(f"  overhead   {bd.overhead_avg:12.6f} s")
    lines.append(f"  discovery  {bd.discovery:12.6f} s (producer busy)")
    lines.append("")

    tot = report.counters["totals"]
    lines.append("discovery counters")
    lines.append(f"  tasks created          {tot['tasks_created']:>12}")
    lines.append(f"  depend addrs resolved  {tot['addrs_resolved']:>12}")
    lines.append(f"  edges created          {tot['edges_created']:>12}")
    lines.append(f"  duplicate edges skipped{tot['dup_edges_skipped']:>12}  (opt b)")
    lines.append(f"  duplicate edges made   {tot['dup_edges_created']:>12}")
    lines.append(f"  edges pruned           {tot['edges_pruned']:>12}")
    lines.append(
        f"  redirect nodes         {tot['redirect_nodes']:>12}  "
        f"(opt c; ~{tot['redirect_edges_saved']} edges saved)"
    )
    lines.append(f"  replay stamps          {tot['replay_stamps']:>12}  (opt p)")
    lines.append(
        f"  firstprivate copied    {_fmt_bytes(tot['fp_copy_bytes']):>12}"
    )
    lines.append("")

    if report.cp is not None:
        cp = report.cp
        lines.append("measured critical path")
        lines.append(f"  measured   {cp.length:12.6f} s")
        lines.append(f"  static T∞  {cp.static_t_inf:12.6f} s")
        lines.append(f"  inflation  {cp.inflation:12.3f}x")
        lines.append(
            f"  path tasks {cp.n_path_tasks:>7} of {cp.n_tasks} measured"
        )
        if cp.by_name:
            lines.append("  binding task names (seconds on path):")
            for name, secs in cp.by_name[:8]:
                lines.append(f"    {name:<28} {secs:12.6f} s")
    else:
        lines.append("measured critical path: n/a (no TDG for this engine)")

    n = report.recorder.n_spans
    lines.append("")
    lines.append(
        f"trace: {n} task spans, {len(report.recorder.barrier_kind)} "
        f"barriers, {len(report.recorder.comm_records)} MPI requests"
    )
    rec = report.recorder
    lines.append(
        f"sim metrics: discovery share {discovery_share(rec):.4f} "
        f"({tot['tasks_created']} created + {tot['replay_stamps']} replayed "
        f"over makespan {max(rec.span_end, default=0.0):.6f}s)"
    )
    return "\n".join(lines)


def render_diff(delta: dict) -> str:
    """Human-readable counter diff (see ``diff_counters``)."""
    if not delta:
        return "counters identical"
    width = max(len(k) for k in delta)
    lines = [f"{len(delta)} counter(s) differ:"]
    for key in sorted(delta):
        d = delta[key]
        lines.append(
            f"  {key:<{width}}  {d['a']} -> {d['b']}  ({d['delta']:+})"
        )
    return "\n".join(lines)


__all__ = [
    "ProfileReport",
    "profile_spec",
    "text_report",
    "render_diff",
    "diff_counters",
]
