"""Span tracing around the public functions of each layer.

:meth:`Tracer.install` wraps the layer entry points in :data:`LAYER_POINTS`
from the outside: the wrapper replaces the function on its class, or in
every loaded module that binds it (the benchmark's own modules
included), so calls through any import path are timed.  Nothing in
``src/`` changes.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index
of the enclosing span in the same process (-1 at top level) and
``value`` an optional number taken from the call's result (a hit flag,
a task or row count).  Spans stay in memory.  A forked campaign worker
inherits the wrappers; on its first span it drops the parent's spans
and, each time its outermost span closes, appends its own to a
per-process JSON-lines file that :meth:`Tracer.collect` merges.

A span's *self time* is its duration minus the durations of its direct
children (spans nest strictly within one process).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional


def _hit(result) -> float:
    return float(result is not None)


def _n_tasks(result) -> float:
    return float(result.n_tasks)


def _n_spans(report) -> float:
    return float(report.recorder.n_spans)


#: (span name, module, attribute path, value extractor) per layer entry.
LAYER_POINTS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("apps.build", "repro.apps.lulesh.taskbased", "build_task_program", None),
    ("apps.build", "repro.apps.lulesh.forloop", "build_for_program", None),
    ("apps.build", "repro.apps.hpcg.taskbased", "build_task_program", None),
    ("apps.build", "repro.apps.hpcg.forloop", "build_for_program", None),
    ("apps.build", "repro.apps.cholesky.taskbased", "build_task_programs", None),
    ("compiled.signature", "repro.core.compiled", "structural_signature", None),
    ("compiled.compile", "repro.core.compiled", "compile_program", None),
    ("compiled.cache_get", "repro.core.compiled", "CompiledGraphCache.get", _hit),
    ("compiled.alias_get", "repro.core.compiled", "CompiledGraphCache.get_alias",
     _hit),
    ("compiled.cache_put", "repro.core.compiled", "CompiledGraphCache.put", None),
    ("compiled.cache_put", "repro.core.compiled", "CompiledGraphCache.put_alias",
     None),
    ("serde.canonical_json", "repro.util.serde", "canonical_json", None),
    ("tiers.replay", "repro.sim.tiers", "ReplaySimulator.simulate", None),
    ("tiers.analytic", "repro.sim.tiers", "AnalyticSimulator.simulate", None),
    ("runtime.des", "repro.runtime.runtime", "TaskRuntime.run", _n_tasks),
    ("runtime.des", "repro.runtime.parallel_for", "ParallelForRuntime.run",
     None),
    ("cluster.run", "repro.cluster.cluster", "Cluster.run", None),
    ("engine.run_campaign", "repro.campaign.engine", "run_campaign", None),
    ("runner.run_experiment", "repro.campaign.runner", "run_experiment", None),
    ("db.result_get", "repro.db.store", "DbResultStore.get", _hit),
    ("db.result_put", "repro.db.store", "DbResultStore.put", None),
    ("db.trace_write", "repro.db.store", "write_trace", None),
    ("db.annotate", "repro.db.store", "annotate_critical_path", float),
    ("db.store_profile", "repro.db.store", "store_profile", None),
    ("obs.profile_run", "repro.obs.profile", "profile_spec", _n_spans),
    ("obs.critical_path", "repro.obs.critical_path", "measured_critical_path",
     None),
)


class Tracer:
    """In-memory span recorder for the wrappers :meth:`install` sets."""

    def __init__(self, sink_dir: Path) -> None:
        self.sink_dir = Path(sink_dir)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = self._owner = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, value: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._forked()
            stack = tracer._stack
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if value is not None:
                span[4] = value(out)
            if not stack and tracer._pid != tracer._owner:
                tracer._flush()
            return out

        return wrapper

    def _forked(self) -> None:
        """First span in a forked worker: keep only this process's spans."""
        self._pid = os.getpid()
        self.spans, self._stack = [], []

    def _flush(self) -> None:
        """Append this worker's finished span trees as one JSON line."""
        with open(self.sink_dir / f"spans-{self._pid}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    # -- install / uninstall -------------------------------------------
    def install(self, points=LAYER_POINTS) -> None:
        """Wrap every layer entry point; workers forked later inherit them."""
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        for name, module, attr, value in points:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth], value))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, value)
            for other in list(sys.modules.values()):
                # The module dict, not getattr: lazy module __getattr__
                # hooks must not fire.
                if getattr(other, "__dict__", {}).get(attr) is orig:
                    self._set(other, attr, wrapped)

    def _set(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- collection ------------------------------------------------------
    def collect(self) -> list[list[list]]:
        """This process's spans plus every worker flush, then reset.

        Each element is one span list whose parent indices refer to
        that list.
        """
        out = [self.spans]
        for path in sorted(self.sink_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh)
            path.unlink()
        self.spans = []
        return out


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus its direct children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(sets: Iterable[list[list]]) -> dict[str, dict[str, float]]:
    """Per span name: total self time, total duration, calls, value sum."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "calls": 0.0, "value": 0.0}
    )
    for spans in sets:
        for span, own in zip(spans, self_times(spans)):
            row = out[span[0]]
            row["self"] += own
            row["total"] += span[2] - span[1]
            row["calls"] += 1
            if span[4] is not None:
                row["value"] += span[4]
    return dict(out)
