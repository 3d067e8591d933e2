"""Compiled-TDG campaign cache smoke check (CI).

Runs one persistent-mode LULESH spec at the ``replay`` tier and then at
the ``analytic`` tier against the same campaign cache directory.  The
two specs have different result keys, so the *result* store misses both
times, while the compiled-graph alias — which leaves the tier out — is
identical.  Asserts:

1. the replay run stores its compiled CSR artifact under
   ``<cache>/compiled/`` (or hits one a previous invocation stored);
2. the analytic run reports a compiled-graph cache **hit** for the same
   key;
3. the artifact on disk equals a from-scratch ``compile_program`` of
   the same program.

Usage: ``python benchmarks/bench_compiled_cache.py [cache-dir]``
(temporary directory when omitted; run as a script, not under pytest).
"""

from __future__ import annotations

import sys
import tempfile

from repro.campaign import ExperimentSpec, run_campaign
from repro.core.compiled import CompiledGraphCache, compile_program
from repro.runtime import presets

PARAMS = {"s": 12, "iterations": 3, "tpl": 64}


def build_spec(fidelity: str) -> ExperimentSpec:
    return ExperimentSpec(
        app="lulesh",
        config=presets.mpc_omp(n_threads=4, opts="abcp"),
        params=PARAMS,
        fidelity=fidelity,
    )


def run_once(spec: ExperimentSpec, cache_dir: str) -> dict:
    # A pre-warmed cache dir (re-invocation) hits the result store; the
    # stored result still carries the compiled-TDG info of its run.
    out = run_campaign([spec], cache=cache_dir)
    assert out.ok, out.failures[0].error
    return out.records[0].result.extra["compiled_tdg"]


def main(cache_dir: str | None = None) -> int:
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-compiled-")
        cache_dir = tmp.name
    try:
        cache = CompiledGraphCache.for_campaign(cache_dir)
        first = run_once(build_spec("replay"), cache_dir)
        status = "hit" if first["cache_hit"] else "stored"
        print(f"replay run:   cache={status}  key={first['key'][:12]}…  "
              f"tasks={first['n_tasks']}")
        art = cache.get(first["key"])
        assert art is not None and art.persistent, "first run must store"

        second = run_once(build_spec("analytic"), cache_dir)
        print(f"analytic run: cache_hit={second['cache_hit']}  "
              f"key={second['key'][:12]}…")
        assert second["cache_hit"] is True, (
            "expected a compiled-graph hit across tiers"
        )
        assert second["key"] == first["key"]

        from repro.apps.lulesh import LuleshConfig, build_task_program

        spec = build_spec("replay")
        opts = spec.config.opts
        static = compile_program(
            build_task_program(LuleshConfig(**PARAMS), opt_a=opts.a),
            opts,
            costs=spec.config.discovery,
        )
        assert art.to_dict() == static.to_dict(), (
            "cached artifact diverges from compile_program"
        )
        print(f"OK: compiled-TDG artifact reused across tiers "
              f"({art.n_tasks} tasks, {art.n_edges} edges)")
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
