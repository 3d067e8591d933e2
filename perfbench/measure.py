"""Passes, phases, metrics and the report of one benchmark run.

A *pass* is one campaign over a workload's generated specs (or one
profile loop); a *phase* is the passes of one timed stretch.  Importing
this module imports every layer a user's process imports before its
first dispatch, which is what the set-up probes time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import checks
import tracing
import workloads
from repro.api import run_campaign, run_experiment
from repro.campaign.bus import CampaignBus
from repro.core.compiled import CompiledGraphCache
from repro.db.store import CampaignDB, DbResultStore, store_profile
from repro.obs.profile import profile_spec

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_build" / "perfbench"

#: Set-up probes per run (fresh interpreters); setup_s is their median.
SETUP_PROBES = 5


# ======================================================================
# one pass = one campaign (or one profile loop) over the workload's specs
# ======================================================================
@dataclass
class PassResult:
    #: Host seconds of the timed part of the pass.
    wall: float
    #: Per executed spec: bus run_start -> run_done wall, or one
    #: profile_spec + store_profile call.
    spec_walls: list[float]
    attempted: int
    failed: int
    #: (spec, RunResult) of every spec the pass produced, cached included;
    #: emptied by :func:`check_pass`.
    pairs: list = field(default_factory=list)
    #: Bytes of compiled-graph artifact files after the pass.
    cache_bytes: int = 0
    #: Check violations: found while tearing the pass down, then by
    #: :func:`check_pass`.
    violations: list = field(default_factory=list)
    #: Set by :func:`check_pass`: the max replay error (ladders) and the
    #: sim digest of the pass's results.
    worst: Optional[float] = None
    digest: str = ""


class _Walls:
    """Campaign-bus subscriber: per-spec wall clock and failures."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.failed = 0

    def on_run_done(self, index, spec, result, wall) -> None:
        self.walls.append(wall)

    def on_run_failed(self, index, spec, error) -> None:
        self.failed += 1


class _FirstDispatch(Exception):
    pass


class _StopAtFirstDispatch:
    """Set-up probe subscriber: note the time, then abort the campaign."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def on_run_start(self, index, spec, attempt) -> None:
        self.at = time.monotonic()
        raise _FirstDispatch


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """Specs from a seed, an optional untimed fixture, and the checks."""

    name = ""
    jobs = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.specs = self.make_specs()

    def make_specs(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed fixture preparation (none by default)."""

    def probe_fixture(self, d: Path) -> None:
        """Untimed per-probe fixture (none by default)."""

    def check(self, pairs, reference) -> tuple[list[str], Optional[float]]:
        """Violations, and the max replay error where there is one."""
        return checks.check_des(pairs, reference), None


class CampaignWorkload(Workload):
    """A ``run_campaign`` over the specs into a fresh store."""

    def store_dir(self, index: int) -> Path:
        d = self.work / f"pass{index}"
        d.mkdir(parents=True)
        return d

    def release(self, d: Path) -> None:
        shutil.rmtree(d)

    def run_pass(self, index: int) -> PassResult:
        d = self.store_dir(index)
        store = DbResultStore(d / "campaign.sqlite", campaign=self.name)
        walls = _Walls()
        bus = CampaignBus()
        bus.attach(walls)
        t = perf_counter()
        out = run_campaign(self.specs, jobs=self.jobs, store=store, bus=bus)
        wall = perf_counter() - t
        store.db.close()
        compiled = d / CompiledGraphCache.SUBDIR
        res = PassResult(
            wall=wall,
            spec_walls=walls.walls,
            attempted=len(walls.walls) + walls.failed,
            failed=walls.failed,
            pairs=[(r.spec, r.result) for r in out.records if r.ok],
            cache_bytes=_dir_bytes(compiled) if compiled.exists() else 0,
        )
        self.release(d)
        return res

    def first_dispatch(self, d: Path) -> float:
        """Set-up probe: open the store, start the campaign, stop at the
        first dispatch and return its ``time.monotonic()``."""
        store = DbResultStore(d / "campaign.sqlite", campaign=self.name)
        stop = _StopAtFirstDispatch()
        bus = CampaignBus()
        bus.attach(stop)
        try:
            run_campaign(self.specs, jobs=self.jobs, store=store, bus=bus)
        except _FirstDispatch:
            pass
        finally:
            store.db.close()
        if stop.at is None:
            raise RuntimeError("the campaign dispatched no spec")
        return stop.at


class DesSweep(CampaignWorkload):
    name = "des_sweep"

    def make_specs(self) -> list:
        return workloads.des_sweep_specs(self.seed)


class LadderCold(CampaignWorkload):
    name = "ladder_cold"

    def make_specs(self) -> list:
        return workloads.ladder_specs(self.seed)

    def check(self, pairs, reference):
        return checks.check_ladder(pairs, reference)


class LadderResumeJ2(LadderCold):
    """The ladder at ``jobs=2`` against a half-populated store whose
    compiled cache already holds every artifact."""

    name = "ladder_resume_j2"
    jobs = 2

    @property
    def fixture(self) -> Path:
        return self.work / "fixture"

    def prepare(self) -> None:
        d = self.fixture
        d.mkdir(parents=True)
        store = DbResultStore(d / "campaign.sqlite", campaign=self.name)
        half = workloads.resume_half(self.seed, len(self.specs))
        out = run_campaign([self.specs[i] for i in half], jobs=1, store=store)
        store.db.close()
        if not out.ok:
            raise RuntimeError(f"fixture campaign failed: {out.summary()}")
        self.prefilled = len(half)
        compiled = CompiledGraphCache.for_campaign(d)
        for spec in self.specs:
            if spec.fidelity == "replay":
                # Compiles and stores the artifact when the half lacked
                # it; an alias hit otherwise.
                run_experiment(
                    spec.with_fidelity("analytic"), compiled_cache=compiled
                )
        shutil.copyfile(d / "campaign.sqlite", d / "pristine.sqlite")

    def _reset_store(self, d: Path) -> None:
        for suffix in ("-wal", "-shm"):
            (d / f"campaign.sqlite{suffix}").unlink(missing_ok=True)
        shutil.copyfile(self.fixture / "pristine.sqlite", d / "campaign.sqlite")

    def store_dir(self, index: int) -> Path:
        self._reset_store(self.fixture)
        return self.fixture

    def release(self, d: Path) -> None:
        """The fixture outlives the pass (its artifacts are read-only)."""

    def run_pass(self, index: int) -> PassResult:
        res = super().run_pass(index)
        expected = len(self.specs) - self.prefilled
        if res.attempted != expected:
            res.violations.append(
                f"resume executed {res.attempted} specs, expected {expected}"
            )
        return res

    def probe_fixture(self, d: Path) -> None:
        self._reset_store(d)


class ProfileStore(Workload):
    """Sequential ``profile_spec`` -> ``store_profile`` into one store
    (the ``repro profile --db`` path)."""

    name = "profile_store"

    def make_specs(self) -> list:
        return workloads.profile_specs(self.seed)

    def run_pass(self, index: int) -> PassResult:
        d = self.work / f"pass{index}"
        db = CampaignDB(d / "profiles.sqlite")
        db.conn  # noqa: B018 - open the store before the clock starts
        walls, pairs, n_spans = [], [], 0
        t = perf_counter()
        for spec in self.specs:
            t0 = perf_counter()
            report = profile_spec(spec)
            store_profile(db, report, campaign=self.name)
            walls.append(perf_counter() - t0)
            pairs.append((report.spec, report.result))
            n_spans += report.recorder.n_spans
        wall = perf_counter() - t
        ((stored,),) = db.query("SELECT COUNT(*) FROM spans")[1]
        ((annotated,),) = db.query(
            "SELECT COUNT(*) FROM spans WHERE on_path IS NOT NULL"
        )[1]
        db.close()
        shutil.rmtree(d)
        violations = []
        if stored != n_spans:
            violations.append(f"store holds {stored} spans, recorded {n_spans}")
        if annotated != n_spans:
            violations.append(
                f"{annotated} of {n_spans} stored spans carry critical-path slack"
            )
        return PassResult(
            wall=wall, spec_walls=walls, attempted=len(walls), failed=0,
            pairs=pairs, violations=violations,
        )

    def first_dispatch(self, d: Path) -> float:
        db = CampaignDB(d / "profiles.sqlite")
        db.conn  # noqa: B018 - store open is part of set-up
        at = time.monotonic()
        db.close()
        return at


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (DesSweep, LadderCold, LadderResumeJ2, ProfileStore)
}


# ======================================================================
# phases and checks
# ======================================================================
@dataclass
class Phase:
    passes: list[PassResult]

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.passes)

    @property
    def spec_walls(self) -> list[float]:
        return [w for p in self.passes for w in p.spec_walls]

    @property
    def executed(self) -> int:
        return sum(p.attempted - p.failed for p in self.passes)

    @property
    def specs_per_s(self) -> float:
        """Median over passes of executed specs per timed second: a slow
        stretch of the shared host that spans a pass or two moves it
        little."""
        return statistics.median(
            (p.attempted - p.failed) / p.wall for p in self.passes
        )

    @property
    def spec_wall_p50(self) -> float:
        """Median over passes of each pass's median spec wall."""
        return statistics.median(
            statistics.median(p.spec_walls) for p in self.passes
        )


def run_phase(workload, seconds: float, reference) -> Phase:
    """Passes until the timed total is closest to ``seconds`` (>= 1).

    Each pass is checked, untimed, as soon as it ends, and garbage is
    collected before the next, so that no pass pays for another's.
    """
    passes: list[PassResult] = []
    while True:
        gc.collect()
        passes.append(workload.run_pass(len(passes)))
        check_pass(workload, passes[-1], reference)
        elapsed = sum(p.wall for p in passes)
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return Phase(passes)


def check_pass(workload, p: PassResult, reference) -> None:
    """Run the output checks on one pass, then drop its results, so that
    the run's memory does not grow with its number of passes."""
    bad, p.worst = workload.check(p.pairs, reference)
    p.violations += bad
    if len(p.pairs) != len(workload.specs):
        p.violations.append(
            f"pass produced {len(p.pairs)} of {len(workload.specs)} results"
        )
    p.digest = checks.sim_digest(checks.result_row(s, r) for s, r in p.pairs)
    p.pairs = []


def check_phase(phase: Phase) -> tuple[list[str], Optional[float], str]:
    """The checked passes of a phase together: the violations, the max
    replay error (ladders) and the sim digest, which must be the same on
    every pass."""
    violations = [v for p in phase.passes for v in p.violations]
    errors = [p.worst for p in phase.passes if p.worst is not None]
    worst = max(errors) if errors else None
    digests = [p.digest for p in phase.passes]
    if len(set(digests)) != 1:
        violations.append(f"sim_digest differs between passes: {digests}")
    return violations, worst, digests[0]


# ======================================================================
# end-to-end extras: memory and set-up
# ======================================================================
def peak_rss_mb() -> float:
    """Peak RSS of this process and of its (reaped) workers, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(args, work: Path, workload) -> float:
    """Median over fresh interpreters of process start -> first dispatch."""
    samples = []
    for i in range(SETUP_PROBES):
        d = work / f"probe{i}"
        d.mkdir()
        workload.probe_fixture(d)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup", str(d)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
        shutil.rmtree(d)
    return statistics.median(samples)


def probe_setup(args) -> int:
    """Child side of :func:`measure_setup`: print the first-dispatch time."""
    d = Path(args.probe_setup)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, d)
    print(f"first-dispatch {workload.first_dispatch(d)!r}")
    return 0


def end_to_end_metrics(phase: Phase, setup: float, rss: float) -> dict:
    """The ``--trace 0`` metrics: name -> (value, unit)."""
    return {
        "specs_per_s": (phase.specs_per_s, "specs/s"),
        "spec_wall_p50_s": (phase.spec_wall_p50, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


# ======================================================================
# per-layer metrics (traced phase)
# ======================================================================
def layer_metrics(
    workload, phase: Phase, spans, untraced_rate: float
) -> tuple[dict, dict]:
    """Per-layer metrics, per pass, from the traced phase's spans, and
    the per-span summary they were computed from."""
    s = tracing.summarize(spans)
    n = len(phase.passes)

    def get(name: str, field_: str) -> float:
        return s.get(name, {}).get(field_, 0.0)

    def self_s(*names: str) -> float:
        return sum(get(x, "self") for x in names) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache_lookups = get("compiled.cache_get", "calls") + (
        get("compiled.alias_get", "calls") - get("compiled.alias_get", "value")
    )
    is_campaign = isinstance(workload, CampaignWorkload)
    bus_wall = sum(phase.spec_walls)
    in_worker = get("runner.run_experiment", "total")
    return {
        "apps.build_s": (self_s("apps.build"), "s"),
        "compiled.signature_s": (self_s("compiled.signature"), "s"),
        "compiled.signature_calls": (get("compiled.signature", "calls") / n, "count"),
        "compiled.compile_s": (self_s("compiled.compile"), "s"),
        "compiled.cache_get_s": (
            self_s("compiled.cache_get", "compiled.alias_get"), "s"),
        "compiled.cache_put_s": (self_s("compiled.cache_put"), "s"),
        "compiled.cache_hit_ratio": (
            ratio(get("compiled.cache_get", "value"), cache_lookups), "1"),
        "compiled.cache_bytes": (
            sum(p.cache_bytes for p in phase.passes) / n, "B"),
        "serde.canonical_json_s": (self_s("serde.canonical_json"), "s"),
        "serde.canonical_json_calls": (
            get("serde.canonical_json", "calls") / n, "count"),
        "tiers.replay_s": (self_s("tiers.replay"), "s"),
        "tiers.analytic_s": (self_s("tiers.analytic"), "s"),
        "runtime.des_s": (self_s("runtime.des"), "s"),
        "runtime.tasks_per_s": (
            ratio(get("runtime.des", "value"), get("runtime.des", "self")), "1/s"),
        "cluster.run_s": (self_s("cluster.run"), "s"),
        "engine.dispatch_s": (
            (bus_wall - in_worker) / n if is_campaign else 0.0, "s"),
        "engine.worker_busy_ratio": (
            ratio(in_worker, workload.jobs * phase.wall) if is_campaign else 0.0,
            "1"),
        "db.result_get_s": (self_s("db.result_get"), "s"),
        "db.result_hit_ratio": (
            ratio(get("db.result_get", "value"), get("db.result_get", "calls")),
            "1"),
        "db.result_put_s": (self_s("db.result_put"), "s"),
        "db.result_puts": (get("db.result_put", "calls") / n, "count"),
        "obs.profile_run_s": (self_s("obs.profile_run"), "s"),
        "obs.critical_path_s": (self_s("obs.critical_path"), "s"),
        "obs.spans": (get("obs.profile_run", "value") / n, "count"),
        "db.trace_write_s": (self_s("db.trace_write"), "s"),
        "db.annotate_s": (self_s("db.annotate"), "s"),
        "db.annotate_rows": (get("db.annotate", "value") / n, "count"),
        "trace.overhead_ratio": (ratio(untraced_rate, phase.specs_per_s), "1"),
    }, s


def print_self_table(summary: dict, n: int) -> None:
    print(f"self time per layer (per pass, {n} traced pass(es)):")
    print(f"  {'span':<24} {'self_s':>10} {'total_s':>10} {'calls':>10}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self"]):
        print(
            f"  {name:<24} {row['self'] / n:>10.4f} {row['total'] / n:>10.4f} "
            f"{row['calls'] / n:>10.0f}"
        )


# ======================================================================
# one run
# ======================================================================
def main(args) -> int:
    """Run one workload as ``run.py`` describes; return the exit code."""
    if args.probe_setup:
        return probe_setup(args)
    if args.write_reference:
        print(f"wrote {checks.write_reference()} reference makespans")
        return 0
    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # Keep every temporary file (SQLite sorts, tempfile users) in the
    # checkout; set-up probes inherit this.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(work)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
    reference = checks.load_reference()
    generated = checks.complete_reference(reference, workload.specs)
    workload.prepare()

    # One untimed (but checked) pass first, so that lazy imports and
    # first-call costs land in no timed pass.
    warmup = run_phase(workload, 0.0, reference)
    if args.trace:
        untraced = run_phase(workload, args.seconds / 2, reference)
        tracer = tracing.Tracer(work / "spans")
        tracer.install()
        try:
            phase = run_phase(workload, args.seconds / 2, reference)
        finally:
            tracer.uninstall()
        spans = tracer.collect()
        metrics, summary = layer_metrics(
            workload, phase, spans, untraced.specs_per_s
        )
        spans_file = WORK / f"{workload.name}-seed{args.seed}-spans.json"
        with open(spans_file, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "passes": len(phase.passes), "processes": spans}, fh)
        phases = [warmup, untraced, phase]
    else:
        phase = run_phase(workload, args.seconds, reference)
        phases = [warmup, phase]
        rss = peak_rss_mb()
        metrics = end_to_end_metrics(
            phase, measure_setup(args, work, workload), rss
        )

    every_pass = Phase([p for ph in phases for p in ph.passes])
    violations, worst, digest = check_phase(every_pass)
    attempted = sum(p.attempted for p in every_pass.passes)
    failed = sum(p.failed for p in every_pass.passes)

    print(
        f"workload {workload.name}  seed {args.seed}  jobs {workload.jobs}  "
        f"{len(workload.specs)} specs/pass  passes "
        + "+".join(str(len(ph.passes)) for ph in phases)
        + "  pass walls "
        + "/".join(f"{p.wall:.2f}" for p in every_pass.passes) + "s"
        + (f"  ({generated} reference makespans simulated)" if generated else "")
    )
    if args.trace:
        print(f"spans written to {spans_file}")
        print_self_table(summary, len(phase.passes))
        print(
            f"tracing overhead: untraced {untraced.specs_per_s:.3f} specs/s, "
            f"traced {phase.specs_per_s:.3f} specs/s "
            f"(x{metrics['trace.overhead_ratio'][0]:.3f})"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    walls = phases[-1].spec_walls
    tail = checks.p90(walls)
    print(
        "  spec_wall_p90_s            "
        + (f"{tail:>14.6g} s" if tail is not None else f"{'n/a':>14}")
        + f"  (n={len(walls)}; reported from {checks.P90_MIN_SAMPLES} samples)"
    )
    print(f"  fail_ratio                 {failed / max(attempted, 1):>14.6g} 1")
    if worst is not None:
        print(f"  replay_rel_err_max         {worst:>14.6g} 1")
    print(f"  sim_digest                 {digest}")
    for v in violations:
        print(f"CHECK FAILED: {v}")
    correct = not violations and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
