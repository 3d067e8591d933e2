"""Unit tests for PersistentRegion (the PTSG data structure) and the
template check every later iteration passes."""

import pytest

from repro.core.graph import TaskGraph
from repro.core.persistent import (
    PersistentRegion,
    PersistentStructureError,
    check_iteration,
)
from repro.core.program import IterationSpec, TaskSpec
from repro.core.task import DepMode, TaskState


def make_specs(n=3):
    return [TaskSpec(name=f"t{i}", depends=((0, DepMode.INOUT),)) for i in range(n)]


def make_region(n=3):
    g = TaskGraph(persistent=True)
    specs = make_specs(n)
    tasks = [g.new_task(name=s.name) for s in specs]
    for a, b in zip(tasks, tasks[1:]):
        g.add_edge(a, b, dedup=False)
    for t in tasks:
        t.npred_initial = t.npred
    return PersistentRegion(graph=g, template=specs, user_tasks=tasks), g, specs, tasks


class TestValidation:
    def _check(self, specs, tasks):
        check_iteration(
            IterationSpec(index=0, tasks=specs), IterationSpec(index=1, tasks=tasks)
        )

    def test_identical_iteration_ok(self):
        specs = make_specs()
        self._check(specs, list(specs))

    def test_task_count_mismatch(self):
        specs = make_specs()
        with pytest.raises(PersistentStructureError, match="submits"):
            self._check(specs, specs[:-1])

    def test_dependence_mismatch(self):
        specs = make_specs()
        bad = list(specs)
        bad[1] = TaskSpec(name="t1", depends=((99, DepMode.IN),))
        with pytest.raises(PersistentStructureError, match="diverged"):
            self._check(specs, bad)

    def test_name_mismatch(self):
        specs = make_specs()
        bad = list(specs)
        bad[0] = TaskSpec(name="other", depends=specs[0].depends)
        with pytest.raises(PersistentStructureError):
            self._check(specs, bad)

    def test_body_change_allowed(self):
        # firstprivate payloads (bodies) may change between iterations.
        specs = make_specs()
        changed = [
            TaskSpec(name=s.name, depends=s.depends, body=(lambda: None))
            for s in specs
        ]
        self._check(specs, changed)

    def test_template_task_length_mismatch_rejected(self):
        g = TaskGraph(persistent=True)
        with pytest.raises(ValueError, match="mismatch"):
            PersistentRegion(graph=g, template=[TaskSpec(name="t")], user_tasks=[])


class TestRearm:
    def test_rearm_resets_all_tasks(self):
        region, g, specs, tasks = make_region()
        for t in tasks:
            t.state = TaskState.COMPLETED
            t.npred = 0
        region.rearm()
        for t in tasks:
            assert t.state == TaskState.CREATED
            assert t.npred == t.npred_initial

    def test_counters(self):
        region, g, specs, tasks = make_region(4)
        assert region.n_tasks == 4
        assert region.n_edges == 3
