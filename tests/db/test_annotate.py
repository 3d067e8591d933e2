"""annotate_critical_path: every stored span carries its measured slack."""

from __future__ import annotations

import pytest

from repro.campaign.spec import ExperimentSpec
from repro.db import CampaignDB, annotate_critical_path, run_id, store_profile
from repro.memory.machine import tiny_test_machine
from repro.obs.profile import profile_spec
from repro.runtime import presets


def spec(opts: str) -> ExperimentSpec:
    return ExperimentSpec(
        app="lulesh",
        config=presets.mpc_omp(tiny_test_machine(4), n_threads=4, opts=opts),
        params={"s": 8, "iterations": 3, "tpl": 8},
    )


def expected_stamps(cp) -> dict:
    """(tid, iteration) or tid -> (slack, on_path), later iterations win."""
    out = {}
    for itcp in cp.iterations:
        path = set(itcp.path)
        for t, slack in enumerate(itcp.slack):
            key = (t, itcp.iteration) if cp.persistent else t
            out[key] = (slack, int(t in path))
    return out


@pytest.mark.parametrize("opts,persistent", [("abcp", True), ("abc", False)])
def test_every_span_matches_the_analysis(tmp_path, opts, persistent):
    report = profile_spec(spec(opts))
    cp = report.cp
    assert cp is not None and cp.persistent is persistent
    with CampaignDB(tmp_path / "p.sqlite") as db:
        run = store_profile(db, report)
        rows = db.query(
            "SELECT tid, iteration, slack, on_path FROM spans "
            "WHERE run = ? AND rank = ? ORDER BY seq",
            (run_id(run), report.profiled_rank),
        )[1]
        # Re-annotating reports one stamp per analysed task, as before.
        n = annotate_critical_path(db, run, cp, rank=report.profiled_rank)
    assert n == sum(len(itcp.slack) for itcp in cp.iterations)
    assert len(rows) == report.recorder.n_spans
    stamps = expected_stamps(cp)
    on_path = 0
    for tid, iteration, slack, flag in rows:
        want_slack, want_flag = stamps[(tid, iteration) if persistent else tid]
        assert slack == want_slack
        assert flag == want_flag
        on_path += flag
    assert on_path > 0
