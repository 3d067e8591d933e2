"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the main experiment flows:

- ``lulesh`` / ``hpcg`` / ``cholesky`` — run one workload configuration and
  print the §2.3.1 breakdown (plus communication metrics for cluster runs);
- ``sweep`` — a LULESH TPL sweep with the Fig-1-style curves
  (``--jobs N`` fans the points out over worker processes);
- ``campaign`` — execute a JSON spec file of experiment runs through the
  resumable campaign engine into its SQLite result store (``--cache-dir``
  names the store's directory, ``--db`` the store file);
- ``query`` — canned SQL reports (and ``--sql`` passthrough) over a
  campaign store: stored runs, critical tasks, slack by loop, discovery
  regressions between two campaign ids;
- ``profile`` — run one workload with the :mod:`repro.obs` recorder
  attached: text report, counters JSON, Perfetto trace, NDJSON log, and
  ``--diff`` between two counters snapshots;
- ``validate`` — the three numeric end-to-end validations;
- ``info`` — machine/network/cost-model presets, bus hook catalogue and
  verify rules (``--json`` for tooling).

Every run command builds an :class:`~repro.campaign.spec.ExperimentSpec`
and goes through :func:`~repro.campaign.runner.run_experiment` — the
same entrypoint the campaign engine, the sweeps and the benchmarks use.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.analysis.calibration import scale_costs, scaled_epyc, scaled_skylake
from repro.analysis.sweep import geometric_tpls, run_spec_sweep
from repro.analysis.tables import render_series, render_table
from repro.campaign.runner import (
    build_programs,
    run_experiment,
    run_experiment_cluster,
)
from repro.campaign.spec import ExperimentSpec
from repro.core.optimizations import OptimizationSet
from repro.profiler.breakdown import breakdown_of
from repro.profiler.comm_metrics import comm_metrics
from repro.runtime import presets


def _machine(name: str, n_threads: Optional[int]):
    from repro.memory.machine import epyc_7763_numa, skylake_8168, tiny_test_machine

    table = {
        "skylake": skylake_8168,
        "epyc": epyc_7763_numa,
        "scaled-skylake": scaled_skylake,
        "scaled-epyc": scaled_epyc,
        "tiny": tiny_test_machine,
    }
    if name not in table:
        raise SystemExit(f"unknown machine {name!r}; pick from {sorted(table)}")
    m = table[name]()
    return m


def _config(args) -> "RuntimeConfig":
    cfg = presets.mpc_omp(
        _machine(args.machine, args.threads),
        opts=OptimizationSet.parse(args.opts),
        n_threads=args.threads,
    )
    if args.cost_scale != 1.0:
        cfg = scale_costs(cfg, args.cost_scale)
    return cfg


def _add_runtime_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", default="scaled-skylake",
                   help="machine preset (default: scaled-skylake)")
    p.add_argument("--threads", type=int, default=None, help="OpenMP threads")
    p.add_argument("--opts", default="abcp",
                   help="discovery optimizations, letters from 'abcp' or 'none'")
    p.add_argument("--cost-scale", type=float, default=0.05,
                   help="per-task runtime cost scale (default 0.05, see calibration)")


def cmd_lulesh(args) -> int:
    params = {"s": args.s, "iterations": args.i, "tpl": args.tpl,
              "flops_per_item": args.flops}
    config = _config(args)
    if args.ranks > 1:
        from dataclasses import replace

        spec = ExperimentSpec(
            app="lulesh",
            config=replace(config, trace=True),
            params=params,
            ranks=args.ranks,
            seed=config.seed,
        )
        res = run_experiment_cluster(spec)
        pr = [r for r in res.results if r.extra.get("profiled")][0]
        print(f"cluster makespan: {res.makespan:.6f}s over {args.ranks} ranks")
        print(breakdown_of(pr))
        print("profiled rank comm:", comm_metrics(pr.comm, pr.trace, pr.n_threads))
        return 0
    if args.offload:
        from dataclasses import replace

        from repro.accel import AcceleratorSpec

        params["offload"] = True
        config = replace(
            config, accelerator=AcceleratorSpec().scaled(args.cost_scale)
        )
    spec = ExperimentSpec(
        app="lulesh", config=config, params=params, seed=config.seed
    )
    r = run_experiment(spec)
    print(breakdown_of(r))
    print(f"tasks={r.n_tasks} edges={r.edges.created} "
          f"pruned={r.edges.pruned} dup-skipped={r.edges.duplicates_skipped}")
    accel = r.extra.get("accelerator")
    if accel is not None:
        print(f"accelerator: {accel['kernels']} kernels, "
              f"{100 * accel['utilization']:.0f}% stream "
              f"utilization, {accel['h2d_bytes'] / 1e6:.1f} MB H2D")
    return 0


def cmd_hpcg(args) -> int:
    config = _config(args)
    spec = ExperimentSpec(
        app="hpcg",
        config=config,
        params={"n_rows": args.rows, "iterations": args.i, "tpl": args.tpl,
                "spmv_sub": args.spmv_sub},
        seed=config.seed,
    )
    r = run_experiment(spec)
    print(breakdown_of(r))
    print(f"tasks={r.n_tasks} edges={r.edges.created} "
          f"grain={r.work_per_task * 1e6:.1f}us")
    return 0


def cmd_cholesky(args) -> int:
    from repro.apps.cholesky import CholeskyConfig

    config = _config(args)
    spec = ExperimentSpec(
        app="cholesky",
        config=config,
        params={"n": args.n, "b": args.b, "iterations": args.i},
        seed=config.seed,
    )
    r = run_experiment(spec)
    ccfg = CholeskyConfig(n=args.n, b=args.b, iterations=args.i)
    print(breakdown_of(r))
    print(f"tasks={r.n_tasks} ({ccfg.n_tasks_one_factorization()} per "
          f"factorization), discovery {r.discovery_busy * 1e3:.3f}ms")
    return 0


def cmd_sweep(args) -> int:
    config = _config(args)
    tpls = geometric_tpls(args.tpl_min, args.tpl_max, args.points)
    base = ExperimentSpec(
        app="lulesh",
        config=config,
        params={"s": args.s, "iterations": args.i, "tpl": tpls[0],
                "flops_per_item": args.flops},
        seed=config.seed,
    )
    sweep = run_spec_sweep(
        base,
        tpls,
        jobs=args.jobs,
        cache=args.cache_dir,
        progress=args.jobs > 1,
        fidelity=args.fidelity,
    )
    rows = [
        [p.tpl, f"{p.total * 1e3:.3f}", f"{p.execution * 1e3:.3f}",
         f"{p.discovery * 1e3:.3f}", f"{p.grain * 1e6:.1f}"]
        for p in sweep.points
    ]
    print(render_table(
        ["TPL", "total(ms)", "execution(ms)", "discovery(ms)", "grain(us)"],
        rows, title=f"LULESH TPL sweep (s={args.s}, i={args.i}, opts={args.opts})",
    ))
    print(render_series(
        sweep.tpls,
        {"total": sweep.series("total"), "discovery": sweep.series("discovery")},
        x_label="TPL",
    ))
    best = sweep.best("total")
    print(f"best TPL={best.tpl} at {best.total * 1e3:.3f}ms; "
          f"discovery-bound from TPL={sweep.crossover_tpl()}")
    return 0


_EXAMPLE_CAMPAIGN = """\
A campaign spec file is a JSON list of experiment specs (or an object
with a "specs" list).  Generate one programmatically:

    from repro.campaign import ExperimentSpec, dump_specs
    from repro.runtime import presets
    base = ExperimentSpec(app="lulesh", config=presets.mpc_omp(),
                          params={"s": 16, "iterations": 2, "tpl": 8})
    specs = [base.with_params(tpl=t) for t in (8, 16, 32, 64)]
    print(dump_specs(specs))

then run it:

    python -m repro campaign specs.json --jobs 8 --cache-dir .campaign
"""


def cmd_campaign(args) -> int:
    from pathlib import Path

    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import dump_specs, load_specs
    from repro.util.serde import canonical_json

    if args.example:
        from repro.runtime import presets as _presets

        base = ExperimentSpec(
            app="lulesh",
            config=_presets.mpc_omp(n_threads=4),
            params={"s": 16, "iterations": 2, "tpl": 8},
        )
        # One DES ladder plus the same points at the replay tier — the
        # example exercises the fidelity axis end to end.
        specs = [base.with_params(tpl=t) for t in (8, 16, 32, 64)]
        specs += [s.with_fidelity("replay") for s in specs]
        specs.append(base.with_fidelity("analytic"))
        print(dump_specs(specs))
        print(f"\n# {_EXAMPLE_CAMPAIGN}".replace("\n", "\n# "), file=sys.stderr)
        return 0
    if args.specfile is None:
        print("error: SPECFILE required (or use --example)", file=sys.stderr)
        return 2
    if args.db and args.cache_dir:
        print("error: pass --db or --cache-dir, not both", file=sys.stderr)
        return 2
    text = (
        sys.stdin.read() if args.specfile == "-" else Path(args.specfile).read_text()
    )
    specs = load_specs(text)
    out = run_campaign(
        specs,
        jobs=args.jobs,
        cache=args.cache_dir,
        store=args.db,
        campaign=args.campaign_id,
        reuse_cache=args.resume,
        timeout=args.timeout,
        retries=args.retries,
        progress=not args.json and not args.live,
        live=args.live,
        snapshot_every=args.snapshot_every,
        fidelity=args.fidelity,
    )
    if args.json:
        print(canonical_json(out.to_dict()))
    else:
        for rec in out.records:
            state = "cached" if rec.cached else ("ok" if rec.ok else "FAILED")
            mk = "-" if rec.result is None else f"{rec.result.makespan:.6f}s"
            print(f"{rec.spec.key[:12]}  {state:>6}  {mk}  {rec.spec.label}")
        print(out.summary())
    return 0 if out.ok else 1


def cmd_validate(args) -> int:
    from repro.apps.cholesky import NumericCholesky, random_spd
    from repro.apps.hpcg import NumericCG, laplacian_27pt
    from repro.apps.lulesh import Hydro1D
    from repro.memory.machine import tiny_test_machine
    from repro.runtime.runtime import RuntimeConfig, TaskRuntime

    failures = 0
    cfg = RuntimeConfig(machine=tiny_test_machine(4),
                        opts=OptimizationSet.parse(args.opts),
                        execute_bodies=True)

    ref = Hydro1D(64, 8)
    ref.run_reference(30)
    h = Hydro1D(64, 8)
    TaskRuntime(h.build_program(30), cfg).run()
    ok = all(np.array_equal(getattr(h.st, f), getattr(ref.st, f))
             for f in ("x", "v", "e"))
    print(f"hydro1d bitwise equal: {ok}")
    failures += not ok

    a = laplacian_27pt(5, 5, 5)
    b = np.random.default_rng(0).normal(size=a.shape[0])
    cg = NumericCG(a, b, n_blocks=5)
    TaskRuntime(cg.build_program(20), cfg).run()
    res = cg.residual_norm() / np.linalg.norm(b)
    print(f"cg relative residual: {res:.2e}")
    failures += not (res < 1e-8)

    a0 = random_spd(96, seed=1)
    nc = NumericCholesky(a0, 24)
    TaskRuntime(nc.build_program(), cfg).run()
    ok = nc.check(a0)
    print(f"cholesky LL^T == A: {ok}")
    failures += not ok

    print("validation:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


def _lint_programs(args, config) -> list:
    """Build the (small, by default) programs the lint subcommand analyses
    — one per rank, with the same cubic neighbor layout cluster runs use."""
    if args.app == "lulesh":
        params = {"s": args.s, "iterations": args.i, "tpl": args.tpl}
    elif args.app == "hpcg":
        params = {"n_rows": args.rows, "iterations": args.i, "tpl": args.tpl}
    else:  # cholesky: a 2D rank grid; lint lays --ranks out as ranks x 1
        params = {"n": args.n, "b": args.b}
        if args.ranks > 1:
            params.update(pr=args.ranks, pc=1)
    spec = ExperimentSpec(
        app=args.app,
        config=config,
        params=params,
        ranks=args.ranks,
        seed=config.seed,
    )
    return build_programs(spec)


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.verify import (
        REGISTRY,
        Baseline,
        Severity,
        apply_policy,
        render_json,
        render_sarif,
        render_text,
        verify_cluster,
        verify_program,
    )

    try:
        threshold = Severity.parse(args.fail_on)
    except ValueError as err:
        print(f"error: --fail-on: {err}", file=sys.stderr)
        return 2

    config = _config(args)
    programs = _lint_programs(args, config)
    if args.ranks > 1:
        report = verify_cluster(
            programs,
            config.opts,
            machine=config.machine,
            threads=args.threads,
            costs=config.discovery,
        )
    else:
        report = verify_program(
            programs[0],
            config.opts,
            machine=config.machine,
            threads=args.threads,
            costs=config.discovery,
        )

    baseline = Baseline.load(args.baseline) if args.baseline else None
    apply_policy(report, baseline=baseline)
    if args.write_baseline:
        Baseline.from_report(report).save(args.write_baseline)
        print(
            f"wrote baseline ({len(report.findings) + len(report.suppressed)}"
            f" fingerprints) to {args.write_baseline}",
            file=sys.stderr,
        )
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(report, REGISTRY) + "\n")

    print(render_json(report) if args.json else render_text(report))
    return 1 if report.at_least(threshold) else 0


def cmd_profile(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import (
        check_counters_doc,
        diff_counters,
        profile_spec,
        render_diff,
        text_report,
        to_perfetto,
        write_ndjson,
        write_perfetto,
    )
    from repro.util.serde import canonical_json

    if args.diff:
        a = check_counters_doc(json.loads(Path(args.diff[0]).read_text()))
        b = check_counters_doc(json.loads(Path(args.diff[1]).read_text()))
        delta = diff_counters(a, b)
        print(canonical_json(delta) if args.json else render_diff(delta))
        return 1 if delta else 0

    config = _config(args)
    if args.app == "lulesh":
        params = {"s": args.s, "iterations": args.i, "tpl": args.tpl}
        ranks = args.ranks
    elif args.app == "hpcg":
        params = {"n_rows": args.rows, "iterations": args.i, "tpl": args.tpl}
        ranks = args.ranks
    else:  # cholesky: ranks are fixed by the tile grid (1x1 here)
        params = {"n": args.n, "b": args.b, "iterations": args.i}
        ranks = 1
    spec = ExperimentSpec(
        app=args.app,
        config=config,
        params=params,
        engine=args.engine,
        ranks=ranks,
        seed=config.seed,
    )
    report = profile_spec(spec)
    if report.cp is not None:
        # The structural invariants (measured >= static T-inf, slack
        # consistency) hold by construction; fail loudly if they don't.
        report.cp.check()

    written: list[str] = []
    if args.counters:
        Path(args.counters).write_text(canonical_json(report.counters) + "\n")
        written.append(args.counters)
    if args.trace:
        edges = report.cp.path_edges() if report.cp is not None else None
        write_perfetto(
            args.trace,
            to_perfetto(
                report.recorder, edges=edges, edge_rank=report.profiled_rank
            ),
        )
        written.append(args.trace)
    if args.ndjson:
        write_ndjson(args.ndjson, report.recorder)
        written.append(args.ndjson)
    if args.db:
        from repro.db import CampaignDB, store_profile

        with CampaignDB(args.db) as db:
            run = store_profile(db, report, campaign=args.campaign_id)
        written.append(f"{args.db} (run {run[:12]})")

    if args.json:
        doc = {
            "spec_key": spec.key,
            "label": spec.label,
            "makespan": report.result.makespan,
            "counters": report.counters,
            "critical_path": (
                None if report.cp is None else report.cp.to_dict()
            ),
        }
        print(canonical_json(doc))
    else:
        print(text_report(report))
        for path in written:
            print(f"wrote {path}")
    return 0


def cmd_query(args) -> int:
    import sqlite3

    from repro.db import REPORTS, CampaignDB, SchemaError

    with CampaignDB(args.db) as db:
        try:
            if args.sql:
                columns, rows = db.query(args.sql)
            else:
                report = REPORTS[args.report]
                kwargs = {}
                if report.takes == "run":
                    if args.run:
                        kwargs["run"] = args.run
                    if args.report == "top-critical-tasks":
                        kwargs["limit"] = args.limit
                elif report.takes == "pair":
                    if not (args.a and args.b):
                        print(
                            f"error: {args.report} compares two campaign "
                            "ids; pass --a and --b",
                            file=sys.stderr,
                        )
                        return 2
                    kwargs = {"a": args.a, "b": args.b}
                elif report.takes == "campaign" and args.campaign:
                    kwargs["campaign"] = args.campaign
                columns, rows = report.func(db, **kwargs)
        except (SchemaError, ValueError, sqlite3.Error) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    if args.json:
        from repro.util.serde import canonical_json

        print(canonical_json(
            {"columns": columns, "rows": [list(r) for r in rows]}
        ))
    elif args.csv:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        cells = [
            ["-" if v is None else str(v) for v in row] for row in rows
        ]
        print(render_table(columns, cells))
        print(f"{len(rows)} row(s)")
    return 0


def cmd_metrics(args) -> int:
    from repro.db.store import CampaignDB, read_metrics
    from repro.metrics.prometheus import CONTENT_TYPE, render_prometheus

    db = CampaignDB(args.db)
    if args.action == "export":
        try:
            rows = read_metrics(db, args.campaign, args.snapshot)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = render_prometheus(rows)
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            from pathlib import Path

            Path(args.out).write_text(text)
            print(f"wrote {args.out} ({len(rows)} samples)", file=sys.stderr)
        return 0

    # serve: a stdlib scrape endpoint re-reading the store per request,
    # so a campaign writing snapshots concurrently is scraped live.
    import http.server

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            try:
                body = render_prometheus(
                    read_metrics(db, args.campaign, args.snapshot)
                ).encode()
            except ValueError as exc:
                self.send_error(503, str(exc))
                return
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *log_args):  # quiet by default
            pass

    server = http.server.HTTPServer((args.host, args.port), Handler)
    print(
        f"serving metrics from {args.db} on "
        f"http://{args.host}:{server.server_address[1]}/metrics "
        "(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_report(args) -> int:
    from repro.db.store import CampaignDB
    from repro.metrics.report import write_report

    db = CampaignDB(args.db)
    try:
        db.read
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = write_report(db, args.out, campaign=args.campaign)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_info(args) -> int:
    from repro.campaign.bus import HOOK_DOCS as CAMPAIGN_HOOK_DOCS
    from repro.db import SCHEMA_VERSION as DB_SCHEMA_VERSION
    from repro.db import table_inventory
    from repro.memory.machine import epyc_7763_numa, skylake_8168
    from repro.mpi.network import bxi_like
    from repro.runtime.costs import DiscoveryCosts, SchedulerCosts
    from repro.sim import HOOK_DOCS
    from repro.verify import PASSES, RULES

    machines = [skylake_8168(), epyc_7763_numa(), scaled_skylake(), scaled_epyc()]
    n = bxi_like()
    d = DiscoveryCosts()
    s = SchedulerCosts()

    if args.json:
        from repro.util.serde import canonical_json

        doc = {
            "machines": [m.to_dict() for m in machines],
            "network": n.to_dict(),
            "discovery_costs": d.to_dict(),
            "scheduler_costs": s.to_dict(),
            "bus_hooks": {
                name: {"signature": sig, "description": desc}
                for name, (sig, desc) in HOOK_DOCS.items()
            },
            "campaign_hooks": {
                name: {"signature": sig, "description": desc}
                for name, (sig, desc) in CAMPAIGN_HOOK_DOCS.items()
            },
            "verify_passes": list(PASSES),
            "verify_rules": dict(RULES),
            "db": {
                "schema_version": DB_SCHEMA_VERSION,
                "tables": table_inventory(),
            },
        }
        print(canonical_json(doc))
        return 0

    for m in machines:
        print(f"{m.name:>18}: {m.n_cores} cores, L1 {m.l1_bytes // 1024}K, "
              f"L2 {m.l2_bytes // 1024}K, L3 {m.l3_bytes // 1024}K, "
              f"DRAM {m.dram_bw / 1e9:.0f} GB/s")
    print(f"\nnetwork: latency {n.latency * 1e6:.1f}us, "
          f"bw {n.bandwidth / 1e9:.1f} GB/s, eager <= {n.eager_threshold}B")
    print(f"discovery costs: task {d.c_task * 1e6:.2f}us, "
          f"dep {d.c_dep * 1e6:.2f}us, edge {d.c_edge * 1e6:.2f}us, "
          f"replay {d.c_replay * 1e6:.2f}us")
    print(f"scheduler costs: pop {s.c_pop * 1e6:.2f}us, "
          f"steal {s.c_steal * 1e6:.2f}us, complete {s.c_complete * 1e6:.2f}us")

    print("\ninstrumentation bus hooks (subscribe with on_<hook> methods, "
          "see repro.sim.bus):")
    for name, (sig, desc) in HOOK_DOCS.items():
        print(f"  {name:>13}{sig}: {desc}")

    print("\ncampaign bus hooks (repro.campaign.bus; observers: "
          "ProgressPrinter, CampaignMetrics, LiveRenderer):")
    for name, (sig, desc) in CAMPAIGN_HOOK_DOCS.items():
        print(f"  {name:>13}{sig}: {desc}")

    print(f"\nverify passes ({', '.join(PASSES)}) — `repro lint` rules:")
    for rule, desc in RULES.items():
        print(f"  {rule:>14}: {desc}")

    inventory = table_inventory()
    print(f"\nresults store (repro.db): schema version {DB_SCHEMA_VERSION}, "
          f"WAL SQLite, {len(inventory)} tables — query with `repro query`:")
    for name, cols in inventory.items():
        print(f"  {name:>9}: {', '.join(cols)}")
    print("\nanalysis: graphtools (TDG shape/width), sweep (TPL curves), "
          "calibration (scaled presets), distributed (cluster runs); "
          "obs: `repro profile` (trace/counters/critical path)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICPP'23 TDG-discovery reproduction — simulation CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lulesh", help="run the LULESH proxy")
    _add_runtime_args(p)
    p.add_argument("-s", type=int, default=32, help="edge elements per rank")
    p.add_argument("-i", type=int, default=4, help="iterations")
    p.add_argument("--tpl", type=int, default=64, help="tasks per loop")
    p.add_argument("--flops", type=float, default=25.0, help="flops per item")
    p.add_argument("--ranks", type=int, default=1, help="MPI ranks (cube)")
    p.add_argument("--offload", action="store_true",
                   help="offload element loops to the simulated accelerator")
    p.set_defaults(fn=cmd_lulesh)

    p = sub.add_parser("hpcg", help="run the HPCG proxy")
    _add_runtime_args(p)
    p.add_argument("--rows", type=int, default=65_536, help="local rows")
    p.add_argument("-i", type=int, default=4, help="CG iterations")
    p.add_argument("--tpl", type=int, default=32, help="vector blocks")
    p.add_argument("--spmv-sub", type=int, default=4, help="SpMV sub-blocks")
    p.set_defaults(fn=cmd_hpcg)

    p = sub.add_parser("cholesky", help="run the tile Cholesky proxy")
    _add_runtime_args(p)
    p.add_argument("-n", type=int, default=2048, help="matrix dimension")
    p.add_argument("-b", type=int, default=256, help="tile size")
    p.add_argument("-i", type=int, default=4, help="factorizations")
    p.set_defaults(fn=cmd_cholesky)

    p = sub.add_parser("sweep", help="LULESH TPL sweep (Fig 1/6 style)")
    _add_runtime_args(p)
    p.add_argument("-s", type=int, default=32)
    p.add_argument("-i", type=int, default=4)
    p.add_argument("--tpl-min", type=int, default=4)
    p.add_argument("--tpl-max", type=int, default=256)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--flops", type=float, default=25.0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep points (default 1)")
    p.add_argument("--cache-dir", default=None,
                   help="campaign store directory (holds campaign.sqlite; "
                        "points already stored are not re-run)")
    p.add_argument("--fidelity", default=None,
                   choices=("analytic", "replay", "des"),
                   help="simulation tier for every point (default: des); "
                        "'replay' list-schedules the compiled TDG ~10x "
                        "faster, 'analytic' computes work/span bounds")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="run a JSON spec file through the cached campaign engine",
    )
    p.add_argument("specfile", nargs="?", default=None,
                   help="JSON spec file ('-' for stdin); see --example")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--cache-dir", default=None,
                   help="campaign store directory: results land in "
                        "<dir>/campaign.sqlite (query with `repro query`)")
    p.add_argument("--db", default=None, metavar="STORE.sqlite",
                   help="persist results into this SQLite campaign store "
                        "file (same store as --cache-dir, named directly)")
    p.add_argument("--campaign-id", default="", metavar="NAME",
                   help="campaign id tagged onto store rows (lets "
                        "`repro query discovery-regressions` compare two "
                        "campaigns in one store)")
    p.add_argument("--resume", dest="resume", action="store_true", default=True,
                   help="skip runs already in the cache (default)")
    p.add_argument("--no-resume", dest="resume", action="store_false",
                   help="re-execute every run, overwriting cache entries")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts after a worker death/timeout (default 1)")
    p.add_argument("--json", action="store_true",
                   help="print a deterministic JSON campaign summary")
    p.add_argument("--live", action="store_true",
                   help="in-place live status line (progress bar, ETA, "
                        "busy workers, hit rate) instead of line-per-run "
                        "progress; with --db, deterministic metric "
                        "snapshots also land in the store's metrics table")
    p.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                   help="with --live and --db: persist an intermediate "
                        "metrics snapshot every N settled runs "
                        "(default 0: final snapshot only)")
    p.add_argument("--example", action="store_true",
                   help="print an example spec file and exit")
    p.add_argument("--fidelity", default=None,
                   choices=("analytic", "replay", "des"),
                   help="rewrite every spec to this simulation tier "
                        "(default: each spec's own fidelity field)")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("validate", help="numeric end-to-end validation")
    p.add_argument("--opts", default="abcp")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "lint", help="static verification: races, depend lint, cost prediction"
    )
    _add_runtime_args(p)
    p.add_argument("app", choices=("lulesh", "hpcg", "cholesky"),
                   help="task program to verify")
    p.add_argument("-s", type=int, default=16, help="LULESH edge elements")
    p.add_argument("-i", type=int, default=2, help="iterations")
    p.add_argument("--tpl", type=int, default=16, help="tasks per loop")
    p.add_argument("--rows", type=int, default=8192, help="HPCG local rows")
    p.add_argument("-n", type=int, default=512, help="Cholesky dimension")
    p.add_argument("-b", type=int, default=128, help="Cholesky tile size")
    p.add_argument("--ranks", type=int, default=1,
                   help="verify a whole cluster of this many ranks: MPI "
                        "matching/deadlock analysis plus cross-rank races "
                        "(default: 1, single-program verification)")
    p.add_argument("--fail-on", default="error", metavar="SEVERITY",
                   help="exit 1 when a non-baselined finding at or above "
                        "this severity exists: info, warning or error "
                        "(default: error); unknown values exit 2")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="suppress findings whose fingerprints this baseline "
                        "JSON accepts (they stop affecting --fail-on)")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="accept every current finding: write the baseline "
                        "JSON and exit per --fail-on as usual")
    p.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write the report as SARIF 2.1.0")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "profile",
        help="run with the observability recorder attached "
             "(report, counters JSON, Perfetto trace)",
    )
    _add_runtime_args(p)
    p.add_argument("app", nargs="?", default="lulesh",
                   choices=("lulesh", "hpcg", "cholesky"),
                   help="workload to profile (default: lulesh)")
    p.add_argument("-s", type=int, default=16, help="LULESH edge elements")
    p.add_argument("-i", type=int, default=3, help="iterations")
    p.add_argument("--tpl", type=int, default=32, help="tasks per loop")
    p.add_argument("--rows", type=int, default=8192, help="HPCG local rows")
    p.add_argument("-n", type=int, default=512, help="Cholesky dimension")
    p.add_argument("-b", type=int, default=128, help="Cholesky tile size")
    p.add_argument("--ranks", type=int, default=1, help="MPI ranks (cube)")
    p.add_argument("--engine", choices=("task", "forloop"), default="task",
                   help="execution engine (default: task)")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="write a Perfetto/Chrome trace (open in "
                        "ui.perfetto.dev)")
    p.add_argument("--counters", default=None, metavar="OUT.json",
                   help="write the discovery-counters JSON snapshot")
    p.add_argument("--ndjson", default=None, metavar="OUT.ndjson",
                   help="write the NDJSON event log")
    p.add_argument("--db", default=None, metavar="STORE.sqlite",
                   help="write the trace, counters and result into a "
                        "campaign store (spans annotated with critical-"
                        "path slack; query with `repro query`)")
    p.add_argument("--campaign-id", default="", metavar="NAME",
                   help="campaign id tagged onto the stored run")
    p.add_argument("--diff", nargs=2, default=None, metavar=("A", "B"),
                   help="compare two counters JSON snapshots and exit "
                        "(nonzero when they differ)")
    p.add_argument("--json", action="store_true",
                   help="print a deterministic JSON summary instead of text")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "query",
        help="canned SQL reports over a campaign store "
             "(see `repro campaign --db` / `repro profile --db`)",
    )
    from repro.db.queries import REPORTS as _REPORTS

    p.add_argument("db", metavar="STORE.sqlite", help="campaign store file")
    p.add_argument("report", nargs="?", default="runs",
                   choices=sorted(_REPORTS),
                   help="canned report (default: runs); "
                        + "; ".join(f"{k}: {v.help}" for k, v in
                                    sorted(_REPORTS.items())))
    p.add_argument("--run", default=None, metavar="KEY",
                   help="run key for per-run reports (default: the "
                        "store's single traced run)")
    p.add_argument("--a", default=None, metavar="CAMPAIGN",
                   help="baseline campaign id (discovery-regressions)")
    p.add_argument("--b", default=None, metavar="CAMPAIGN",
                   help="comparison campaign id (discovery-regressions)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="filter the runs report to one campaign id")
    p.add_argument("--limit", type=int, default=20,
                   help="row cap for top-critical-tasks (default 20)")
    p.add_argument("--sql", default=None, metavar="SELECT...",
                   help="run an arbitrary statement on the read-only "
                        "connection instead of a canned report")
    p.add_argument("--json", action="store_true",
                   help="emit {columns, rows} as canonical JSON")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "metrics",
        help="export or serve campaign telemetry snapshots "
             "(Prometheus text format)",
    )
    p.add_argument("action", choices=("export", "serve"),
                   help="export: write the exposition document; "
                        "serve: stdlib HTTP scrape endpoint (/metrics)")
    p.add_argument("db", metavar="STORE.sqlite", help="campaign store file")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="export output file (default: stdout)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="campaign id (default: the store's only one)")
    p.add_argument("--snapshot", type=int, default=None, metavar="N",
                   help="snapshot id (default: the latest)")
    p.add_argument("--host", default="127.0.0.1", help="serve bind host")
    p.add_argument("--port", type=int, default=9464,
                   help="serve port (default 9464; 0 picks a free one)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "report",
        help="render a campaign store into a single-file HTML report",
    )
    p.add_argument("db", metavar="STORE.sqlite", help="campaign store file")
    p.add_argument("-o", "--out", default="report.html", metavar="FILE",
                   help="output HTML file (default: report.html)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="restrict to one campaign id (default: all rows)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "info", help="print presets, cost model and the bus hook catalogue"
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable preset/hook/rule dump")
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
