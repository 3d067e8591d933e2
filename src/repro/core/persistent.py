"""Persistent Task Sub-Graph (PTSG) — optimization (p), §3.2.

On the first iteration of an annotated loop the runtime discovers the TDG as
usual but marks tasks persistent (never destroyed on completion) and creates
*every* edge — no pruning, since edges are not recreated on later iterations.
On subsequent iterations the producer only copies each task's firstprivate
data (8–100 bytes in LULESH); dependence processing, descriptor allocation
and ICV management are skipped entirely.  An implicit barrier at the end of
each iteration guarantees all tasks completed before being re-armed, which
also removes inter-iteration edges (the resolver is reset at the barrier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.graph import TaskGraph
from repro.core.program import IterationSpec, TaskSpec
from repro.core.task import Task


class PersistentStructureError(RuntimeError):
    """An iteration's task structure diverged from the cached graph.

    The persistent TDG assumes dependences constant over iterations (§3.2
    "Applicability"); a mesh refinement between iterations would raise this,
    signalling that the graph must be rediscovered.
    """


def _signature(spec: TaskSpec) -> tuple:
    """Structural identity of a task spec for replay validation.

    firstprivate payloads and bodies may change between iterations (that is
    the point of the extension); names, loop ids and dependences may not.
    """
    return (spec.name, spec.loop_id, spec.depends)


def first_divergence(
    template: IterationSpec, iteration: IterationSpec
) -> Optional[str]:
    """Describe the first structural divergence from ``template``, if any.

    ``taskwait`` markers create no tasks, but their *positions* are part
    of the structure.
    """
    ref_barriers = [i for i, s in enumerate(template.tasks) if s.barrier]
    got_barriers = [i for i, s in enumerate(iteration.tasks) if s.barrier]
    if ref_barriers != got_barriers:
        return (
            f"taskwait positions changed: {got_barriers} vs template "
            f"{ref_barriers}"
        )
    ref = [s for s in template.tasks if not s.barrier]
    got = [s for s in iteration.tasks if not s.barrier]
    if len(got) != len(ref):
        return (
            f"submits {len(got)} tasks where the template submits {len(ref)}"
        )
    for pos, (g, r) in enumerate(zip(got, ref)):
        if _signature(g) != _signature(r):
            if g.name != r.name:
                what = f"task name {g.name!r} vs {r.name!r}"
            elif g.depends != r.depends:
                what = f"task {g.name!r}: depend clauses changed"
            else:
                what = f"task {g.name!r}: loop id changed"
            return f"position {pos}: {what}"
    return None


def check_iteration(template: IterationSpec, iteration: IterationSpec) -> None:
    """Raise :class:`PersistentStructureError` if ``iteration`` diverges.

    Iterations sharing the template's spec list (the
    :meth:`~repro.core.program.Program.from_template` layout) are
    identical by construction and skip the compare.
    """
    if iteration.tasks is template.tasks:
        return
    why = first_divergence(template, iteration)
    if why is not None:
        raise PersistentStructureError(
            f"iteration {iteration.index} diverged from the persistent "
            f"template: {why}"
        )


@dataclass
class PersistentRegion:
    """The cached graph of one ``#pragma omp ptsg`` region.

    Attributes
    ----------
    graph:
        The TDG discovered on the first iteration (prune-free).
    template:
        The first iteration's specs (later iterations are checked against
        the program's first iteration with :func:`check_iteration`).
    user_tasks:
        Tasks corresponding 1:1 to ``template`` (stubs excluded).
    """

    graph: TaskGraph
    #: The raw first-iteration specs, *including* any taskwait markers.
    template: list[TaskSpec]
    user_tasks: list[Task]

    def __post_init__(self) -> None:
        n_real = sum(1 for s in self.template if not s.barrier)
        if n_real != len(self.user_tasks):
            raise ValueError(
                "template/user_tasks mismatch: "
                f"{n_real} task specs vs {len(self.user_tasks)} tasks"
            )

    # ------------------------------------------------------------------
    def rearm(self) -> None:
        """Reset all tasks (user tasks and stubs) for the next iteration."""
        self.graph.reset_for_replay()

    @property
    def n_tasks(self) -> int:
        return self.graph.n_tasks

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges
