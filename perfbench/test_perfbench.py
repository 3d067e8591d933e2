"""The campaign benchmark's own tests, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

import checks
import measure
import run
import tracing
import workloads
from repro.analysis.calibration import scaled_mpc
from repro.api import ExperimentSpec


# ----------------------------------------------------------------------
# spec generation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "gen",
    [workloads.des_sweep_specs, workloads.ladder_specs, workloads.profile_specs],
)
def test_generation_is_deterministic_per_seed_and_seeds_differ(gen):
    a, b, c = gen(3), gen(3), gen(4)
    assert [s.key for s in a] == [s.key for s in b]
    assert [s.key for s in a] != [s.key for s in c]
    # A seed changes which simulation seeds run, never the work.
    assert sorted(s.label for s in a) == sorted(s.label for s in c)


def test_profile_order_is_the_same_for_every_seed():
    # store_profile scans the spans stored before it, so the order is
    # part of the work.
    a, b = workloads.profile_specs(3), workloads.profile_specs(4)
    assert [s.label for s in a] == [s.label for s in b]


def test_workload_shapes():
    des = workloads.des_sweep_specs(0)
    assert len(des) >= 100
    assert {s.engine for s in des} == {"task", "forloop"}
    assert any(s.ranks > 1 for s in des)
    ladder = workloads.ladder_specs(0)
    n = len(ladder) // 2
    assert {s.fidelity for s in ladder[:n]} == {"replay"}
    assert {s.fidelity for s in ladder[n:]} == {"analytic"}
    half = workloads.resume_half(0, len(ladder))
    assert len(half) == len(ladder) // 2 == len(set(half))
    assert half != workloads.resume_half(1, len(ladder))


def test_reference_covers_every_seed():
    reference = checks.load_reference()
    for seed in (0, 7, 12345):
        for gen in (workloads.des_sweep_specs, workloads.ladder_specs,
                    workloads.profile_specs):
            assert all(checks.des_key(s) in reference for s in gen(seed))


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_span_tree():
    #   a [0, 10]
    #   ├── b [1, 4]
    #   │   └── c [2, 3]
    #   └── d [5, 9]
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, 7.0],
        ["d", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    other = [["c", 0.0, 0.5, -1, 1.0]]
    s = tracing.summarize([spans, other])
    assert s["c"] == {"self": 1.5, "total": 1.5, "calls": 2.0, "value": 8.0}
    assert s["a"]["self"] == 3.0 and s["a"]["total"] == 10.0


def test_tracer_records_nesting_and_values(tmp_path):
    tracer = tracing.Tracer(tmp_path)

    def inner(x):
        return x * 2

    wrapped_inner = tracer.wrap("inner", inner, float)

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    wrapped_outer = tracer.wrap("outer", outer, None)
    assert wrapped_outer(1) == 6
    (spans,) = tracer.collect()
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("outer", -1, None), ("inner", 0, 2.0), ("inner", 0, 4.0)
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(
        (spans[0][2] - spans[0][1]) - sum(s[2] - s[1] for s in spans[1:])
    )


# ----------------------------------------------------------------------
# the p90 rule
# ----------------------------------------------------------------------
def test_p90_needs_100_samples():
    assert checks.p90([float(i) for i in range(99)]) is None
    tail = checks.p90([float(i) for i in range(100)])
    assert tail is not None and 88.0 < tail < 91.0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _spec(**kw):
    return ExperimentSpec(
        app="hpcg", config=scaled_mpc(opts="abc"),
        params={"n_rows": 4096, "iterations": 1, "tpl": 4}, **kw,
    )


def _result(makespan, bounds=None):
    return SimpleNamespace(makespan=makespan, extra={"bounds": bounds})


def test_des_check_fails_on_a_perturbed_makespan():
    spec = _spec()
    reference = {spec.key: 1.0}
    assert checks.check_des([(spec, _result(1.0))], reference) == []
    bad = checks.check_des([(spec, _result(1.0 + 1e-12))], reference)
    assert len(bad) == 1 and "reference" in bad[0]


def test_ladder_check_fails_on_a_broken_bracket():
    spec = _spec()
    reference = {spec.key: 1.0}
    ok_bounds = {"makespan_lower": 0.9, "makespan_upper": 1.2}
    pairs = [
        (spec.with_fidelity("replay"), _result(1.1)),
        (spec.with_fidelity("analytic"), _result(1.0, ok_bounds)),
    ]
    bad, worst = checks.check_ladder(pairs, reference)
    assert bad == [] and worst == pytest.approx(0.1)
    broken = {"makespan_lower": 0.9, "makespan_upper": 1.05}
    pairs[1] = (spec.with_fidelity("analytic"), _result(1.0, broken))
    bad, _ = checks.check_ladder(pairs, reference)
    assert len(bad) == 1 and "bracket" in bad[0]
    # A replay result without its analytic partner is a violation too.
    bad, _ = checks.check_ladder(pairs[:1], reference)
    assert len(bad) == 1


def test_sim_digest_is_order_free_and_value_sensitive():
    rows = [("k1", 1.0, None, None), ("k2", 2.0, 0.5, 3.0)]
    assert checks.sim_digest(rows) == checks.sim_digest(rows[::-1])
    assert checks.sim_digest(rows) != checks.sim_digest(
        [rows[0], ("k2", 2.0000001, 0.5, 3.0)]
    )


# ----------------------------------------------------------------------
# one tiny pass per campaign shape, traced
# ----------------------------------------------------------------------
def _tiny_ladder():
    bases = [replace(_spec(), seed=1), replace(_spec(), seed=2)]
    return [b.with_fidelity("replay") for b in bases] + [
        b.with_fidelity("analytic") for b in bases
    ]


class TinyCold(measure.LadderCold):
    def make_specs(self):
        return _tiny_ladder()


class TinyResume(measure.LadderResumeJ2):
    def make_specs(self):
        return _tiny_ladder()


@pytest.mark.parametrize("cls", [TinyCold, TinyResume])
def test_one_traced_pass(cls, tmp_path):
    w = cls(0, tmp_path)
    reference = {}
    checks.complete_reference(reference, w.specs)
    w.prepare()
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        phase = measure.run_phase(w, 0.0, reference)
    finally:
        tracer.uninstall()
    violations, worst, digest = measure.check_phase(phase)
    assert violations == [] and worst is not None and len(digest) == 64
    executed = 4 if cls is TinyCold else 2
    assert phase.executed == executed
    metrics, summary = measure.layer_metrics(w, phase, tracer.collect(), 1.0)
    # The benchmark's own call into the engine is traced too.
    assert summary["engine.run_campaign"]["calls"] == 1
    # Worker spans (jobs=2) are merged with the parent's.
    assert summary["runner.run_experiment"]["calls"] == executed
    assert metrics["tiers.analytic_s"][0] > 0
    assert metrics["db.result_puts"][0] == executed
    if cls is TinyCold:
        assert metrics["compiled.signature_calls"][0] == 2
        assert metrics["compiled.cache_hit_ratio"][0] == 0.5
    else:
        assert metrics["compiled.compile_s"][0] == 0
        assert metrics["compiled.cache_hit_ratio"][0] == 1.0


class TinyProfile(measure.ProfileStore):
    def make_specs(self):
        return [_spec()]


def test_one_traced_profile_pass(tmp_path):
    w = TinyProfile(0, tmp_path)
    reference = {}
    checks.complete_reference(reference, w.specs)
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        phase = measure.run_phase(w, 0.0, reference)
    finally:
        tracer.uninstall()
    violations, worst, _ = measure.check_phase(phase)
    assert violations == [] and worst is None
    metrics, _ = measure.layer_metrics(w, phase, tracer.collect(), 1.0)
    assert metrics["obs.spans"][0] > 0
    assert metrics["db.annotate_rows"][0] >= metrics["obs.spans"][0]
    assert metrics["db.annotate_s"][0] > 0 and metrics["runtime.des_s"][0] > 0


def test_metrics_match_benchmark_json():
    with open(measure.HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    phase = measure.Phase([measure.PassResult(
        wall=1.0, spec_walls=[0.5, 0.5], attempted=2, failed=0
    )])
    e2e = measure.end_to_end_metrics(phase, 1.0, 100.0)
    layers, _ = measure.layer_metrics(
        TinyCold(0, measure.HERE), phase, [], 2.0
    )
    for produced, listed in ((e2e, bench["end_to_end"]),
                             (layers, bench["per_layer"])):
        assert {k: u for k, (_, u) in produced.items()} == {
            m["name"]: m["unit"] for m in listed
        }


def test_phase_timings_are_medians_over_passes():
    def one(wall, walls):
        return measure.PassResult(
            wall=wall, spec_walls=walls, attempted=len(walls), failed=0
        )

    # Rates 4, 2 and 0.4 specs/s: a slow pass does not pull the median.
    phase = measure.Phase([
        one(1.0, [0.1, 0.2, 0.3, 0.4]),
        one(2.0, [0.2, 0.4, 0.6, 0.8]),
        one(10.0, [1.0, 2.0, 3.0, 4.0]),
    ])
    assert phase.specs_per_s == pytest.approx(2.0)
    assert phase.spec_wall_p50 == pytest.approx(0.5)


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def test_cli_names_every_workload():
    assert set(run.WORKLOADS) == set(measure.WORKLOAD_CLASSES)
    with open(measure.HERE.parent / "BENCHMARK.json") as fh:
        listed = {w["name"] for w in json.load(fh)["workloads"]}
    assert listed <= set(run.WORKLOADS)


def test_missing_sources_exit_2_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    argv = ["--workload", "des_sweep", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no repro sources" in out.err
