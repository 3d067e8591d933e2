"""repro_sim_* families: derived from a finished TraceRecorder."""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.metrics.prometheus import (
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from repro.metrics.sim import discovery_share, sim_registry
from repro.obs import TraceRecorder
from repro.profiler.trace import CommRecord

FIXTURES = Path(__file__).parent / "fixtures"


def res(n_edges=0, n_skipped=0, n_redirects=0):
    return SimpleNamespace(
        n_addrs=0, n_edges=n_edges, n_skipped=n_skipped, n_dup_skipped=0,
        n_dup_created=0, n_pruned=0, n_redirects=n_redirects,
    )


#: A stand-in task table: the columns the recorder's hooks read.
TABLE = SimpleNamespace(
    name=["t0", "t1"], loop_id=[0, 0], iteration=[0, 0], fp_bytes=[0, 0]
)


def comm(complete=1.0):
    return CommRecord("isend", 0, 1, 8, 0.0, complete)


class TestHookAccounting:
    def test_task_end_tracks_latest_end_time(self):
        rec = TraceRecorder()
        rec.on_task_end(TABLE, 0, 0, 0.0, 2.0)
        rec.on_task_end(TABLE, 1, 1, 0.5, 1.0)  # earlier end must not win
        r = sim_registry(rec)
        assert r.get("repro_sim_tasks_total").value == 2
        assert r.get("repro_sim_makespan_seconds").value == 2.0

    def test_task_create_accumulates_discovery_counters(self):
        rec = TraceRecorder()
        rec.on_task_create(TABLE, 0, res(3, 1, 0), cost=0.25, time=0.0)
        rec.on_task_create(TABLE, 1, res(2, 2, 1), cost=0.5, time=0.1)
        r = sim_registry(rec)
        assert r.get("repro_sim_tasks_created_total").value == 2
        assert r.get("repro_sim_edges_total").value == 5
        assert r.get("repro_sim_edges_avoided_total").value == 3
        assert r.get("repro_sim_redirect_nodes_total").value == 1
        assert r.get("repro_sim_discovery_seconds").value == pytest.approx(0.75)

    def test_replay_charges_discovery_only(self):
        rec = TraceRecorder()
        rec.on_task_replay(TABLE, 0, 1, cost=0.1, time=0.0)
        r = sim_registry(rec)
        assert r.get("repro_sim_tasks_replayed_total").value == 1
        assert r.get("repro_sim_discovery_seconds").value == pytest.approx(0.1)
        assert r.get("repro_sim_edges_total").value == 0

    def test_msgs_and_barriers(self):
        rec = TraceRecorder()
        rec.on_msg_post(comm(1.0))
        rec.on_msg_post(comm(math.nan))  # still in flight
        rec.on_barrier("iteration", 1.0)
        rec.on_barrier("iteration", 2.0)
        rec.on_barrier("taskwait", 2.0)
        r = sim_registry(rec)
        msgs = r.get("repro_sim_msgs_total")
        assert msgs.labels("posted").value == 2
        assert msgs.labels("completed").value == 1
        barriers = r.get("repro_sim_barriers_total")
        assert barriers.labels("iteration").value == 2
        assert barriers.labels("taskwait").value == 1

    def test_discovery_share(self):
        rec = TraceRecorder()
        assert discovery_share(rec) == 0.0  # no makespan yet
        rec.on_task_end(TABLE, 0, 0, 0.0, 4.0)
        rec.on_task_create(TABLE, 0, res(), cost=1.0, time=0.0)
        assert discovery_share(rec) == pytest.approx(0.25)


class TestFillRegistry:
    def test_counts_materialize_as_families(self):
        rec = TraceRecorder()
        rec.on_register(TABLE, 0)
        rec.on_task_end(TABLE, 0, 0, 0.0, 2.0)
        rec.on_task_create(TABLE, 0, res(3, 1, 0), cost=0.5, time=0.0)
        rec.on_msg_post(comm())
        rec.on_barrier("loop", 1.0)
        r = sim_registry(rec)
        assert r.get("repro_sim_tasks_total").value == 1
        assert r.get("repro_sim_edges_total").value == 3
        assert r.get("repro_sim_msgs_total").labels("posted").value == 1
        assert r.get("repro_sim_barriers_total").labels("loop").value == 1
        assert r.get("repro_sim_ranks").value == 1.0
        assert r.get("repro_sim_makespan_seconds").value == 2.0
        assert r.get("repro_sim_discovery_share").value == pytest.approx(0.25)

    def test_registry_renders_as_valid_exposition(self):
        rec = TraceRecorder()
        rec.on_task_end(TABLE, 0, 0, 0.0, 1.0)
        rec.on_barrier("iteration", 0.5)
        fams = validate_exposition(render_prometheus(sim_registry(rec)))
        assert "repro_sim_tasks_total" in fams


def lulesh_spec(**params):
    from repro.campaign.spec import ExperimentSpec
    from repro.memory.machine import tiny_test_machine
    from repro.runtime import presets

    return ExperimentSpec(
        app="lulesh",
        config=presets.mpc_omp(tiny_test_machine(4), n_threads=4),
        params={"s": 6, "tpl": 2, **params},
    )


def recorded(spec):
    from repro.campaign.runner import run_experiment
    from repro.sim import InstrumentationBus

    bus = InstrumentationBus()
    rec = bus.attach(TraceRecorder())
    return rec, run_experiment(spec, bus=bus)


class TestIntegration:
    def test_attached_run_counts_match_result(self):
        rec, result = recorded(lulesh_spec(iterations=2))
        r = sim_registry(rec)
        assert r.get("repro_sim_tasks_total").value == result.n_tasks
        t_last_end = r.get("repro_sim_makespan_seconds").value
        # The makespan extends past the last task end by the closing
        # barrier, so t_last_end is a tight lower bound, not equal.
        assert 0.0 < t_last_end <= result.makespan
        assert t_last_end == pytest.approx(result.makespan, rel=0.05)
        assert r.get("repro_sim_tasks_created_total").value > 0
        assert 0.0 < discovery_share(rec)

    def test_two_identical_runs_report_identical_counts(self):
        def counts():
            rec, _ = recorded(lulesh_spec(iterations=1))
            return render_prometheus(sim_registry(rec))

        assert counts() == counts()


def parity_specs():
    from repro.campaign.spec import ExperimentSpec
    from repro.memory.machine import tiny_test_machine
    from repro.runtime import presets

    def cfg(opts):
        return presets.mpc_omp(tiny_test_machine(4), n_threads=4, opts=opts)

    return {
        "sim_lulesh.prom": ExperimentSpec(
            app="lulesh", config=cfg("abcp"),
            params={"s": 6, "iterations": 2, "tpl": 4},
        ),
        "sim_cholesky_2rank.prom": ExperimentSpec(
            app="cholesky", config=cfg("abc"),
            params={"n": 256, "b": 64, "pr": 2, "pc": 1}, ranks=2,
        ),
    }


class TestParityWithObserver:
    """The families equal the committed exposition the removed counting
    observer produced for the same runs: counters exactly, float gauges
    to 1e-12 relative (discovery seconds are summed per iteration row
    rather than in event order)."""

    @pytest.mark.parametrize("fixture", sorted(parity_specs()))
    def test_families_match_committed_exposition(self, fixture):
        rec, _ = recorded(parity_specs()[fixture])
        got = parse_exposition(render_prometheus(sim_registry(rec)))
        want = parse_exposition((FIXTURES / fixture).read_text())
        assert sorted(got) == sorted(want)
        for name, fam in want.items():
            assert got[name]["type"] == fam["type"], name
            assert got[name]["help"] == fam["help"], name
            got_samples = samples(got[name])
            assert sorted(got_samples) == sorted(samples(fam)), name
            for key, value in samples(fam).items():
                if fam["type"] == "counter":
                    assert got_samples[key] == value, (name, key)
                else:
                    assert got_samples[key] == pytest.approx(
                        value, rel=1e-12, abs=0.0), (name, key)


def samples(family):
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in family["samples"]
    }
