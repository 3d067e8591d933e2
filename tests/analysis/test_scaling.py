"""Tests for the Table 3 weak/strong scaling model."""

import pytest

from repro.analysis.scaling import (
    dynamic_tpl,
    lulesh_scaling,
    weak_scaling_efficiency,
)


class TestDynamicTpl:
    def test_floor(self):
        assert dynamic_tpl(100, min_tpl=4, nodes_per_task=4096) == 4

    def test_rule(self):
        assert dynamic_tpl(8192 * 10, min_tpl=4, nodes_per_task=4096) == 20


class TestWeakScaling:
    def test_weak_rows(self):
        pts = lulesh_scaling([1, 8, 27], mode="weak", s_weak=12,
                             sim_iterations=2, report_iterations=8, fixed_tpl=8)
        assert [p.n_ranks for p in pts] == [1, 8, 27]
        assert all(p.s_local == 12 for p in pts)
        assert all(p.time_task > 0 and p.time_for > 0 for p in pts)

    def test_weak_efficiency_high(self):
        """Weak scaling stays near-flat (paper: >95% efficiency)."""
        pts = lulesh_scaling([1, 8, 64], mode="weak", s_weak=12,
                             sim_iterations=2, report_iterations=8, fixed_tpl=8)
        eff = weak_scaling_efficiency(pts)
        assert all(e > 0.9 for e in eff)

    def test_task_beats_for_weak(self):
        """Paper Table 3: task-based faster than parallel-for weak-scaled.

        Needs a mesh whose field groups exceed the scaled L3 so the
        fork-join version has no inter-loop reuse (the paper's regime).
        """
        pts = lulesh_scaling([8], mode="weak", s_weak=40,
                             sim_iterations=2, report_iterations=8, fixed_tpl=96)
        assert pts[0].time_task < pts[0].time_for


class TestStrongScaling:
    def test_local_size_shrinks(self):
        pts = lulesh_scaling([1, 8, 64], mode="strong", s_strong_global=48,
                             sim_iterations=2, report_iterations=8)
        assert [p.s_local for p in pts] == [48, 24, 12]

    def test_tpl_follows_rule(self):
        pts = lulesh_scaling([1, 64], mode="strong", s_strong_global=48,
                             sim_iterations=2, report_iterations=8)
        assert pts[0].tpl >= pts[1].tpl

    def test_strong_times_decrease_then_flatten(self):
        pts = lulesh_scaling([1, 8, 64], mode="strong", s_strong_global=48,
                             sim_iterations=2, report_iterations=8)
        assert pts[1].time_task < pts[0].time_task


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            lulesh_scaling([1], mode="diagonal")

    def test_non_cube_ranks(self):
        with pytest.raises(ValueError, match="cube"):
            lulesh_scaling([5], mode="weak", sim_iterations=1, report_iterations=1)

    def test_empty_efficiency(self):
        assert weak_scaling_efficiency([]) == []


class TestProbeStore:
    def test_sqlite_locator_is_a_store_file(self, tmp_path):
        from repro.db import CampaignDB

        path = tmp_path / "x.sqlite"
        kw = dict(mode="weak", s_weak=8, sim_iterations=1,
                  report_iterations=2, fixed_tpl=4)
        first = lulesh_scaling([1], cache=str(path), **kw)
        assert path.is_file()
        with CampaignDB(path) as db:
            before = db.table_counts()
        assert before["runs"] > 0
        # A second study reads every probe back and stores nothing new.
        assert lulesh_scaling([1], cache=path, **kw) == first
        with CampaignDB(path) as db:
            assert db.table_counts() == before

    def test_directory_locator_holds_one_store(self, tmp_path):
        from repro.db import STORE_FILENAME

        lulesh_scaling([1], mode="weak", s_weak=8, sim_iterations=1,
                       report_iterations=2, fixed_tpl=4, cache=tmp_path)
        assert (tmp_path / STORE_FILENAME).is_file()
        assert not list(tmp_path.glob("*/*.json"))
