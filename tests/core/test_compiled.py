"""Tests for the compiled TDG artifact, its signature, and its cache."""

import pytest

from repro.core import (
    CompiledGraphCache,
    CompiledTDG,
    IterationSpec,
    OptimizationSet,
    Program,
    ProgramBuilder,
    compile_program,
    structural_signature,
)
from repro.core.compiled import COMPILED_FORMAT
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig, TaskRuntime
from repro.runtime.costs import DiscoveryCosts
from repro.sim import InstrumentationBus


def chain_program(n=4, iterations=3, *, persistent=True, name="chain"):
    b = ProgramBuilder(name, persistent_candidate=persistent)
    for _ in range(iterations):
        with b.iteration():
            for i in range(n):
                b.task(
                    f"t{i}", inp=["x"] if i else [], inout=["x"],
                    flops=10.0, fp_bytes=16,
                )
    return b.build()


def redirect_program(iterations=2):
    """inoutset group with two readers: opt (c) inserts a redirect stub."""
    b = ProgramBuilder("redir", persistent_candidate=True)
    for _ in range(iterations):
        with b.iteration():
            for i in range(3):
                b.task(f"acc{i}", inoutset=["s"], flops=1.0)
            b.task("r0", inp=["s"], flops=1.0)
            b.task("r1", inp=["s"], flops=1.0)
    return b.build()


ABCP = OptimizationSet.parse("abcp")


class TestStructuralSignature:
    def test_stable_across_builds(self):
        a = structural_signature(chain_program(), ABCP)
        b = structural_signature(chain_program(), ABCP)
        assert a == b

    def test_opts_change_the_key(self):
        prog = chain_program()
        assert structural_signature(prog, ABCP) != structural_signature(
            prog, OptimizationSet.parse("ab")
        )

    def test_structure_change_changes_the_key(self):
        assert structural_signature(chain_program(4), ABCP) != (
            structural_signature(chain_program(5), ABCP)
        )

    def test_shared_and_unshared_iteration_lists_hash_equal(self):
        """from_template shares spec lists; a content-equal program with
        per-iteration copies must produce the same key."""
        shared = chain_program(3, iterations=3)
        tpl = list(shared.iterations[0].tasks)
        unshared = Program(
            [
                IterationSpec(index=it.index, tasks=list(tpl))
                for it in shared.iterations
            ],
            persistent_candidate=True,
            name="chain",
        )
        assert structural_signature(shared, ABCP) == structural_signature(
            unshared, ABCP
        )


class TestCompileProgram:
    def test_chain_csr(self):
        c = compile_program(chain_program(3, iterations=1), OptimizationSet.parse("ab"))
        assert isinstance(c, CompiledTDG)
        assert c.n_tasks == 3
        assert c.n_edges == 2
        assert c.successors(0) == [1]
        assert c.successors(1) == [2]
        assert c.successors(2) == []
        assert c.indegree == [0, 1, 1]
        assert c.unique_edges() == {(0, 1), (1, 2)}

    def test_persistent_compiles_template_only(self):
        c = compile_program(chain_program(3, iterations=4), ABCP)
        assert c.persistent
        assert c.n_tasks == 3
        assert c.iteration == [0, 0, 0]

    def test_non_persistent_compiles_every_iteration(self):
        c = compile_program(
            chain_program(3, iterations=2, persistent=False),
            OptimizationSet.parse("ab"),
        )
        assert c.n_tasks == 6
        assert c.iteration == [0, 0, 0, 1, 1, 1]

    def test_stub_columns(self):
        c = compile_program(redirect_program(), ABCP)
        assert c.n_stubs == 1
        (stub,) = c.stub_tids
        assert c.spec_pos[stub] == -1
        assert c.stats.redirect_nodes == 1

    def test_iteration_costs_filled_with_cost_model(self):
        costs = DiscoveryCosts()
        c = compile_program(chain_program(3, iterations=3), ABCP, costs=costs)
        assert len(c.iteration_costs) == 3
        # Replay iterations only pay firstprivate copies.
        assert c.iteration_costs[1] == c.iteration_costs[2]
        assert 0 < c.iteration_costs[1] < c.iteration_costs[0]

    def test_replay_costs_column(self):
        costs = DiscoveryCosts()
        c = compile_program(redirect_program(), ABCP)
        rc = c.replay_costs(costs)
        assert len(rc) == c.n_tasks
        (stub,) = c.stub_tids
        assert rc[stub] == 0.0
        user = c.user_tids[0]
        assert rc[user] == pytest.approx(
            costs.c_replay + costs.c_fp_byte * c.fp_bytes[user]
        )

    def test_keep_graph_returns_live_views(self):
        c, graph = compile_program(
            chain_program(3, iterations=1), ABCP, keep_graph=True
        )
        assert graph.n_tasks == c.n_tasks
        assert [t.name for t in graph.tasks] == c.name

    def test_round_trip_dict(self):
        c = compile_program(redirect_program(), ABCP, costs=DiscoveryCosts())
        back = CompiledTDG.from_dict(c.to_dict())
        assert back.to_dict() == c.to_dict()


def _disc_rows(bus):
    """Subscribe a task_create recorder: tid -> resolution counts."""
    rows: dict[int, tuple[int, int, int, int]] = {}

    def on_create(table, tid, res, cost, now):
        rows[tid] = (res.n_addrs, res.n_edges, res.n_skipped, res.n_redirects)

    bus.subscribe("task_create", on_create)
    return rows


class TestRuntimeSnapshotEquality:
    """The DES discovers exactly the graph ``compile_program`` freezes:
    same CSR, indegrees, columns, edge accounting and per-task
    resolution counts — the DES table checked against the one producer
    of compiled artifacts."""

    def _check(self, make_prog, opts, **cfg):
        opts = OptimizationSet.parse(opts)
        des_bus = InstrumentationBus()
        des_rows = _disc_rows(des_bus)
        rt = TaskRuntime(
            make_prog(),
            RuntimeConfig(machine=tiny_test_machine(4), opts=opts, **cfg),
            bus=des_bus,
        )
        rt.run()
        static_bus = InstrumentationBus()
        static_rows = _disc_rows(static_bus)
        art = compile_program(make_prog(), opts, bus=static_bus)

        table = rt.table
        assert table.build_csr() == (art.succ_offsets, art.succ_targets)
        assert list(table.npred_initial) == art.indegree
        assert list(table.name) == art.name
        assert list(table.loop_id) == art.loop_id
        assert list(table.is_stub) == art.is_stub
        assert list(table.flops) == art.flops
        assert list(table.fp_bytes) == art.fp_bytes
        assert table.stats.to_dict() == art.stats.to_dict()
        assert des_rows == static_rows
        assert des_rows == {
            t: (
                art.disc_addrs[t], art.disc_edges[t],
                art.disc_skips[t], art.disc_redirects[t],
            )
            for t in art.user_tids
        }
        return art

    @pytest.mark.parametrize("make_prog", [chain_program, redirect_program])
    def test_persistent_snapshot_equals_static_compile(self, make_prog):
        assert self._check(make_prog, "abcp").persistent

    def test_non_persistent_snapshot_equals_static_compile(self):
        # Non-overlapped mode: no task completes during discovery, so no
        # pruning — the exact precondition for static equality.
        art = self._check(
            lambda: chain_program(4, iterations=2, persistent=False),
            "ab",
            non_overlapped=True,
        )
        assert not art.persistent

    def test_lulesh_snapshot_equality(self):
        from repro.apps.lulesh import LuleshConfig, build_task_program

        cfg = LuleshConfig(s=8, iterations=3, tpl=16)
        art = self._check(lambda: build_task_program(cfg), "abcp")
        assert art.n_stubs > 0

    def test_hpcg_snapshot_equality(self):
        from repro.apps.hpcg import HpcgConfig, build_task_program

        cfg = HpcgConfig(n_rows=2048, iterations=2, tpl=8)
        self._check(lambda: build_task_program(cfg), "abcp")

    def test_cholesky_snapshot_equality(self):
        from repro.apps.cholesky import CholeskyConfig, build_task_programs

        cfg = CholeskyConfig(n=512, b=128)
        self._check(
            lambda: build_task_programs(cfg)[0], "abc", non_overlapped=True
        )


class TestCompiledGraphCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        path = cache.put(c)
        assert path.is_file()
        got = cache.get(c.key)
        assert got is not None
        assert got.to_dict() == c.to_dict()

    def test_miss_returns_none(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_len_and_keys(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        a = compile_program(chain_program(3), ABCP)
        b = compile_program(chain_program(5), ABCP)
        cache.put(a)
        cache.put(b)
        assert len(cache) == 2
        assert cache.keys() == sorted([a.key, b.key])

    def test_for_campaign_nests_under_cache_root(self, tmp_path):
        cache = CompiledGraphCache.for_campaign(tmp_path)
        assert cache.root == tmp_path / CompiledGraphCache.SUBDIR
        # The directory appears with the first artifact, not before.
        assert not cache.root.exists() and len(cache) == 0
        cache.put(compile_program(chain_program(), ABCP))
        assert len(cache) == 1

    def test_stale_format_misses(self, tmp_path):
        cache = CompiledGraphCache(tmp_path)
        c = compile_program(chain_program(), ABCP)
        path = cache.put(c)
        doc = path.read_text().replace(f'"format":{COMPILED_FORMAT}', '"format":0', 1)
        path.write_text(doc)
        assert cache.get(c.key) is None


class TestRuntimeCachePublication:
    """Only the cheap tiers read and write the compiled cache: the DES
    publishes nothing, so its results do not depend on one."""

    def _config(self, opts="abcp"):
        return RuntimeConfig(
            machine=tiny_test_machine(4), opts=OptimizationSet.parse(opts)
        )

    def _spec(self, opts="abcp"):
        from repro.api import ExperimentSpec

        return ExperimentSpec(
            app="lulesh",
            config=self._config(opts),
            params={"s": 8, "iterations": 3, "tpl": 8},
        )

    def test_no_cache_no_extra_key(self):
        rt = TaskRuntime(chain_program(), self._config())
        res = rt.run()
        assert "compiled_tdg" not in res.extra

    def test_non_persistent_run_does_not_publish(self, tmp_path):
        from repro.api import run_experiment

        cache = CompiledGraphCache(tmp_path)
        res = run_experiment(self._spec("abc"), compiled_cache=cache)
        assert len(cache) == 0
        assert "compiled_tdg" not in res.extra

    def test_des_result_independent_of_compiled_cache(self, tmp_path):
        from repro.api import run_campaign, run_experiment
        from repro.util.serde import canonical_json

        spec = self._spec()
        bare = canonical_json(run_experiment(spec).to_dict())
        cache = CompiledGraphCache(tmp_path / "compiled")
        cached = run_experiment(spec, compiled_cache=cache)
        assert canonical_json(cached.to_dict()) == bare
        assert len(cache) == 0
        out = run_campaign([spec], cache=tmp_path / "campaign")
        assert canonical_json(out.results[0].to_dict()) == bare
        # Nothing is compiled for a DES-only campaign, so its directory
        # holds the store alone.
        assert sorted(p.name for p in (tmp_path / "campaign").iterdir()) == [
            "campaign.sqlite"
        ]
