"""Kernel hot-path microbenchmark: tasks/sec and events/sec of the DES core.

Times a LULESH TPL sweep point (default TPL=1152, the fine-grain regime
where per-task simulator overhead dominates) through the full task runtime:
TDG discovery, dependence resolution, scheduling and the memory hierarchy.
This measures *simulator* throughput — the Python hot path the `repro.sim`
kernel refactor targets — not the simulated application's performance.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py --tiny    # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py --save-baseline

Emits ``BENCH_kernel.json``.  When ``benchmarks/baseline_kernel.json``
exists (recorded pre-refactor with ``--save-baseline``), the report includes
the speedup ratio against it and ``--check`` fails below ``--min-speedup``.

The ``observability`` section measures what the `repro.obs` layer costs:
the same case run on the default quiet bus (every hook ``None``) vs with
a :class:`~repro.obs.TraceRecorder` attached, plus a microbenchmarked
estimate of the quiet-bus *hook-check* tax — the ``cbs = bus.hook; if
cbs:`` branch the discovery hot path pays per task even when nobody is
listening.  ``--check`` also gates that tax at ``--max-hook-overhead``
(default 5%) of the quiet wall time, and the recorder streaming into a
SQLite store at ``--max-db-overhead`` (default 1.15x quiet).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.calibration import scaled_llvm, scaled_mpc, scaled_skylake
from repro.apps.lulesh import LuleshConfig, build_task_program
from repro.obs import TraceRecorder
from repro.runtime.runtime import TaskRuntime
from repro.sim import InstrumentationBus

BASELINE_PATH = Path(__file__).parent / "baseline_kernel.json"


def run_case(name, s, iterations, tpl, make_config, repeats=1):
    """Build + run one configuration; return the best-of-``repeats`` timing."""
    prog = build_task_program(
        LuleshConfig(s=s, iterations=iterations, tpl=tpl, flops_per_item=25.0),
        opt_a=False,
    )
    best = None
    for _ in range(repeats):
        rt = TaskRuntime(prog, make_config())
        t0 = time.perf_counter()
        result = rt.run()
        wall = time.perf_counter() - t0
        n_events = rt.engine.n_dispatched
        rec = {
            "case": name,
            "s": s,
            "iterations": iterations,
            "tpl": tpl,
            "wall_s": wall,
            "n_tasks": result.n_tasks,
            "n_events": n_events,
            "tasks_per_sec": result.n_tasks / wall,
            "events_per_sec": n_events / wall,
            "makespan": result.makespan,
            "edges_created": result.edges.created,
        }
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    return best


def _hook_check_cost(loops: int = 200_000) -> float:
    """Seconds per quiet-bus hook check (``cbs = bus.hook; if cbs:``).

    This is the exact idiom every emission site in the runtime and the
    TDG compiler uses; on a quiet bus the attribute is ``None`` and the
    branch falls through.  Best of 5 timed loops, amortized per check.
    """
    bus = InstrumentationBus()
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(loops):
            cbs = bus.task_create
            if cbs:  # pragma: no cover - quiet bus: never taken
                pass
        best = min(best, time.perf_counter() - t0)
    return best / loops


def run_obs_case(name, s, iterations, tpl, make_config, repeats=1):
    """Quiet bus vs attached recorder on one configuration.

    Returns a record with the wall times, the recorder overhead ratio
    (informational — observers are expected to cost something), the
    streaming-store overhead ratio (recorder draining into a SQLite
    campaign store mid-run, including the final flush), and the
    estimated fraction of the *quiet* wall time spent on the new
    discovery-counter hook checks (``task_create``/``task_replay`` fire
    once per task created or replayed, so the check count ≈ ``n_tasks``).
    """
    from repro.db import CampaignDB, TraceDbWriter

    prog = build_task_program(
        LuleshConfig(s=s, iterations=iterations, tpl=tpl, flops_per_item=25.0),
        opt_a=False,
    )
    quiet = attached = streamed = None
    n_tasks = n_spans = n_db_rows = 0
    for _ in range(repeats):
        rt = TaskRuntime(prog, make_config())
        t0 = time.perf_counter()
        result = rt.run()
        wall = time.perf_counter() - t0
        n_tasks = result.n_tasks
        quiet = wall if quiet is None else min(quiet, wall)

        bus = InstrumentationBus()
        recorder = TraceRecorder()
        bus.attach(recorder)
        rt = TaskRuntime(prog, make_config(), bus=bus)
        t0 = time.perf_counter()
        rt.run()
        wall = time.perf_counter() - t0
        n_spans = recorder.n_spans
        attached = wall if attached is None else min(attached, wall)

        # Recorder + streaming SQLite sink: spans drain in batches
        # mid-run; the measured wall includes the final flush.
        with tempfile.TemporaryDirectory() as td:
            db = CampaignDB(Path(td) / "bench.sqlite")
            sink = TraceDbWriter(db, "bench")
            bus = InstrumentationBus()
            recorder = TraceRecorder(sink=sink)
            bus.attach(recorder)
            rt = TaskRuntime(prog, make_config(), bus=bus)
            t0 = time.perf_counter()
            rt.run()
            sink.close(recorder)
            wall = time.perf_counter() - t0
            n_db_rows = sink._spans.rows_written
            db.close()
        streamed = wall if streamed is None else min(streamed, wall)

    check_cost = _hook_check_cost()
    hook_overhead = check_cost * n_tasks / quiet if quiet > 0 else 0.0
    return {
        "case": name,
        "s": s,
        "iterations": iterations,
        "tpl": tpl,
        "n_tasks": n_tasks,
        "n_spans_recorded": n_spans,
        "n_db_spans_written": n_db_rows,
        "quiet_wall_s": quiet,
        "recorder_wall_s": attached,
        "db_wall_s": streamed,
        "recorder_overhead_ratio": attached / quiet if quiet > 0 else 0.0,
        "db_overhead_ratio": streamed / quiet if quiet > 0 else 0.0,
        "hook_check_cost_s": check_cost,
        "quiet_hook_overhead_frac": hook_overhead,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="CI smoke scale (seconds, not minutes)")
    ap.add_argument("--repeats", type=int, default=2,
                    help="timing repeats per case (best-of, default 2)")
    ap.add_argument("--json", default="BENCH_kernel.json",
                    help="output path (default BENCH_kernel.json)")
    ap.add_argument("--save-baseline", action="store_true",
                    help=f"also record results to {BASELINE_PATH.name}")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if speedup vs baseline < --min-speedup")
    ap.add_argument("--min-speedup", type=float, default=1.5)
    ap.add_argument("--min-replay-speedup", type=float, default=1.3,
                    help="gate for the persistent replay case (default 1.3)")
    ap.add_argument("--max-hook-overhead", type=float, default=0.05,
                    help="gate: quiet-bus hook-check tax as a fraction of "
                         "quiet wall time (default 0.05)")
    ap.add_argument("--max-db-overhead", type=float, default=1.15,
                    help="gate: recorder-with-SQLite-sink wall over quiet "
                         "wall (default 1.15; plain recorder baselines "
                         "around 1.08)")
    args = ap.parse_args(argv)

    machine = scaled_skylake()
    if args.tiny:
        cases = [
            ("lulesh-llvm-tpl64-tiny", 16, 2, 64,
             lambda: scaled_llvm(machine, name="llvm"), 1),
            ("lulesh-mpc-ptsg-tpl64-tiny", 16, 3, 64,
             lambda: scaled_mpc(machine, opts="abcp"), 1),
        ]
    else:
        cases = [
            # The headline case: TPL=1152 fine-grain sweep point, discovery
            # repeated every iteration (non-persistent LLVM-like runtime).
            ("lulesh-llvm-tpl1152", 48, 4, 1152,
             lambda: scaled_llvm(machine, name="llvm"), args.repeats),
            # Persistent replay hot path (MPC-OMP with opt (p)).
            ("lulesh-mpc-ptsg-tpl1152", 48, 6, 1152,
             lambda: scaled_mpc(machine, opts="abcp"), args.repeats),
        ]

    results = [run_case(name, s, i, tpl, mk, rep)
               for name, s, i, tpl, mk, rep in cases]

    # Observability cost: the headline case, quiet bus vs attached
    # recorder (tiny scale reuses the tiny LLVM point).
    if args.tiny:
        obs = run_obs_case("obs-lulesh-llvm-tpl64-tiny", 16, 2, 64,
                           lambda: scaled_llvm(machine, name="llvm"), 1)
    else:
        obs = run_obs_case("obs-lulesh-llvm-tpl1152", 48, 4, 1152,
                           lambda: scaled_llvm(machine, name="llvm"),
                           args.repeats)

    report = {
        "python": platform.python_version(),
        "scale": "tiny" if args.tiny else "full",
        "cases": results,
        "observability": obs,
    }

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_by_case = {c["case"]: c for c in baseline.get("cases", [])}
        for rec in results:
            base = base_by_case.get(rec["case"])
            if base is not None:
                rec["baseline_wall_s"] = base["wall_s"]
                rec["speedup_vs_baseline"] = base["wall_s"] / rec["wall_s"]

    Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    if args.save_baseline:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")

    for rec in results:
        line = (f"{rec['case']}: {rec['wall_s']:.3f}s  "
                f"{rec['tasks_per_sec']:,.0f} tasks/s  "
                f"{rec['events_per_sec']:,.0f} events/s")
        if "speedup_vs_baseline" in rec:
            line += f"  ({rec['speedup_vs_baseline']:.2f}x vs baseline)"
        print(line)
    print(f"{obs['case']}: quiet {obs['quiet_wall_s']:.3f}s  "
          f"recorder {obs['recorder_wall_s']:.3f}s  "
          f"({obs['recorder_overhead_ratio']:.2f}x, "
          f"{obs['n_spans_recorded']:,} spans)  "
          f"db sink {obs['db_wall_s']:.3f}s "
          f"({obs['db_overhead_ratio']:.2f}x)  "
          f"hook-check tax {obs['quiet_hook_overhead_frac']:.2%}")

    if args.check:
        # Two gates: the headline discovery-bound case (listed first; the
        # sim-kernel refactor's target, where per-task discovery work
        # dominates) and the persistent replay case (listed second; the
        # compiled-TDG replay path, which turns per-task PTSG re-arming
        # into bulk CSR array resets).  Both are best-of-``--repeats``
        # against the committed pre-refactor baseline.
        gates = [(results[0], args.min_speedup)]
        if len(results) > 1:
            gates.append((results[1], args.min_replay_speedup))
        for rec, floor in gates:
            ratio = rec.get("speedup_vs_baseline")
            if ratio is None:
                print("no baseline recorded; run --save-baseline first",
                      file=sys.stderr)
                return 1
            if ratio < floor:
                print(f"FAIL: {rec['case']} speedup {ratio:.2f}x < {floor}x",
                      file=sys.stderr)
                return 1
            print(f"OK: {rec['case']} speedup {ratio:.2f}x >= {floor}x")
        # Third gate: the counter hooks must stay ~free when nobody
        # listens.  The estimate is (microbenchmarked per-check cost) x
        # (one check per task) over the quiet wall time.
        frac = obs["quiet_hook_overhead_frac"]
        if frac > args.max_hook_overhead:
            print(f"FAIL: {obs['case']} quiet-bus hook-check tax "
                  f"{frac:.2%} > {args.max_hook_overhead:.0%}",
                  file=sys.stderr)
            return 1
        print(f"OK: {obs['case']} quiet-bus hook-check tax {frac:.2%} "
              f"<= {args.max_hook_overhead:.0%}")
        # Fourth gate: streaming the recording into a SQLite store must
        # stay close to the plain in-RAM recorder — the batched
        # executemany drains amortize to a list append per span.
        ratio = obs["db_overhead_ratio"]
        if ratio > args.max_db_overhead:
            print(f"FAIL: {obs['case']} streaming-store overhead "
                  f"{ratio:.2f}x > {args.max_db_overhead:.2f}x",
                  file=sys.stderr)
            return 1
        print(f"OK: {obs['case']} streaming-store overhead {ratio:.2f}x "
              f"<= {args.max_db_overhead:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
