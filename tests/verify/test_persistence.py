"""Persistence-safety checker: structural invariance proofs and refutations."""

import pytest

from repro.core.optimizations import OptimizationSet
from repro.core.program import ProgramBuilder
from repro.runtime.costs import DiscoveryCosts
from repro.core.persistent import first_divergence
from repro.verify import verify_program
from repro.verify.persistence import check_persistence


def varying_program(*, candidate, vary="count"):
    """Two iterations whose structure diverges in a controlled way."""
    b = ProgramBuilder("vary", persistent_candidate=candidate)
    with b.iteration():
        b.task("a", out=["x"])
        b.task("b", inp=["x"])
    with b.iteration():
        if vary == "count":
            b.task("a", out=["x"])
            b.task("b", inp=["x"])
            b.task("extra", inp=["x"])  # mesh refinement between iterations
        elif vary == "deps":
            b.task("a", out=["x"])
            b.task("b", inp=["x"], out=["y"])
        elif vary == "barrier":
            b.task("a", out=["x"])
            b.taskwait()
            b.task("b", inp=["x"])
        else:
            raise AssertionError(vary)
    return b.build()


def invariant_program(*, candidate, iterations=3):
    b = ProgramBuilder("stable", persistent_candidate=candidate)
    for _ in range(iterations):
        with b.iteration():
            b.task("a", out=["x"])
            b.task("b", inp=["x"])
    return b.build()


OPTS_P = OptimizationSet.parse("abcp")
OPTS_NO_P = OptimizationSet.parse("abc")


class TestUnsafe:
    def test_task_count_divergence(self):
        prog = varying_program(candidate=True, vary="count")
        findings = check_persistence(prog, OPTS_P)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "V-PTSG-UNSAFE"
        assert f.severity.name == "ERROR"
        assert f.iteration == 1
        assert "3 tasks" in f.data["divergence"]

    def test_dep_divergence_names_the_task(self):
        prog = varying_program(candidate=True, vary="deps")
        [f] = check_persistence(prog, OPTS_P)
        assert "'b'" in f.data["divergence"]
        assert "depend" in f.data["divergence"]

    def test_barrier_position_divergence(self):
        prog = varying_program(candidate=True, vary="barrier")
        [f] = check_persistence(prog, OPTS_P)
        assert "taskwait positions" in f.data["divergence"]

    @pytest.mark.parametrize("vary", ["count", "deps", "barrier"])
    def test_verify_program_reports_instead_of_raising(self, vary):
        # Static discovery cannot replay a diverging program; it falls
        # back to resolving every iteration and the pass reports why.
        report = verify_program(varying_program(candidate=True, vary=vary), "abcp")
        assert "V-PTSG-UNSAFE" in {f.rule for f in report.findings}
        assert report.summary["persistent"] is False

    def test_varying_but_not_claimed_is_silent(self):
        prog = varying_program(candidate=False, vary="count")
        assert check_persistence(prog, OPTS_P) == []


class TestMissed:
    def test_invariant_not_candidate(self):
        prog = invariant_program(candidate=False)
        [f] = check_persistence(prog, OPTS_P)
        assert f.rule == "V-PTSG-MISSED"
        assert f.severity.name == "INFO"
        assert "persistent_candidate" in f.hint

    def test_invariant_candidate_but_opt_p_off(self):
        prog = invariant_program(candidate=True)
        [f] = check_persistence(prog, OPTS_NO_P)
        assert f.rule == "V-PTSG-MISSED"
        assert "optimization (p)" in f.hint

    def test_sound_and_enabled_is_silent(self):
        prog = invariant_program(candidate=True)
        assert check_persistence(prog, OPTS_P) == []

    def test_single_iteration_is_silent(self):
        prog = invariant_program(candidate=False, iterations=1)
        assert check_persistence(prog, OPTS_P) == []

    def test_costs_annotate_replay_saving(self):
        prog = invariant_program(candidate=False)
        [f] = check_persistence(prog, OPTS_P, costs=DiscoveryCosts())
        assert f.data["template_tasks"] == 2
        assert f.data["replay_cost_per_iteration"] > 0


class TestFirstDivergence:
    def test_identical_is_none(self):
        prog = invariant_program(candidate=False, iterations=2)
        assert first_divergence(prog.iterations[0], prog.iterations[1]) is None

    def test_shipped_apps_are_invariant(self):
        from repro.apps.hpcg import HpcgConfig, build_task_program
        from repro.apps.lulesh import LuleshConfig
        from repro.apps.lulesh import build_task_program as bl

        for prog in (
            bl(LuleshConfig(s=8, iterations=3, tpl=8), opt_a=True),
            build_task_program(HpcgConfig(n_rows=4096, iterations=3, tpl=8)),
        ):
            assert prog.persistent_candidate
            assert check_persistence(prog, OPTS_P) == []
