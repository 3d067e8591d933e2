"""Property-based tests: the fidelity ladder orders correctly.

For random small (footprint-free) task programs the ladder's defining
inequalities must hold within tolerance:

    analytic.T_inf <= replay(N=inf) <= replay(N) ~= des(N)

and the analytic certified bracket ``makespan_lower <= x <=
makespan_upper`` must contain both the replay and the DES makespan.
Replay is a model of DES, not a bound on it, so the last link is an
agreement check (the cross-check tolerance), not an ordering.

The analytic tier walks the artifact's topological order, not tid
order: on graphs with opt-(c) redirect stubs (whose tids are larger than
the tasks they feed) its depth and graph T∞ must equal the shape metrics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.crosscheck import golden_specs
from repro.campaign.runner import build_programs, derive_config
from repro.core import OptimizationSet
from repro.core.compiled import compile_program
from repro.core.graph_stats import shape_from_csr
from repro.core.program import IterationSpec, Program, TaskSpec
from repro.core.task import DepMode
from repro.memory import tiny_test_machine
from repro.runtime import RuntimeConfig
from repro.sim.tiers import ReplaySimulator, _spans, simulate, tier_weights

N_ADDRS = 4
#: Replay-vs-DES agreement on adversarial random graphs.  The campaign
#: cross-check holds the real workloads to 8%; random programs this
#: small are dominated by single-task scheduling accidents, so the
#: property keeps a wider guard band while still catching model breaks.
AGREEMENT = 0.25
EPS = 1e-9

dep_mode = st.sampled_from(
    [DepMode.IN, DepMode.OUT, DepMode.INOUT, DepMode.INOUTSET]
)
task_deps = st.lists(
    st.tuples(st.integers(0, N_ADDRS - 1), dep_mode),
    min_size=1,
    max_size=4,
    unique_by=lambda d: d[0],
)
program_shape = st.lists(task_deps, min_size=1, max_size=20)


def build_program(shape) -> Program:
    specs = [
        TaskSpec(name=f"t{i}", depends=tuple(deps), flops=2000.0 + 100.0 * i)
        for i, deps in enumerate(shape)
    ]
    return Program([IterationSpec(index=0, tasks=specs)])


class TestLadderOrdering:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=program_shape,
        opts=st.sampled_from(["", "a", "abc"]),
        threads=st.integers(1, 4),
        sched=st.sampled_from(["lifo-df", "fifo-bf"]),
    )
    def test_span_then_workers_then_des(self, shape, opts, threads, sched):
        prog = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse(opts),
            scheduler=sched,
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)

        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        ideal = ReplaySimulator(workers_override=4096).simulate(art, cfg)
        replay = simulate(art, cfg, fidelity="replay")
        des = simulate(art, cfg, fidelity="des", program=prog)

        # T_inf <= replay(N=inf): no schedule beats the critical path.
        assert bounds["t_inf"] <= ideal.makespan + EPS
        # replay(N=inf) <= replay(N): workers never hurt a list schedule
        # of frozen durations fed by the same producer clock.
        assert ideal.makespan <= replay.makespan + EPS
        # replay(N) ~= des(N): agreement within the guard band.
        assert abs(replay.makespan - des.makespan) <= AGREEMENT * des.makespan
        # The certified bracket contains both event-accurate makespans.
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        for x in (replay.makespan, des.makespan):
            assert lo <= x * (1 + EPS)
            assert x <= hi * (1 + EPS)
        # All tiers agree on the task count.
        assert replay.n_tasks == des.n_tasks == len(shape)

    @settings(max_examples=25, deadline=None)
    @given(shape=program_shape, threads=st.integers(1, 4))
    def test_non_overlapped_ordering(self, shape, threads):
        prog = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse("abc"),
            non_overlapped=True,
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        replay = simulate(art, cfg, fidelity="replay")
        des = simulate(art, cfg, fidelity="des", program=prog)
        assert abs(replay.makespan - des.makespan) <= AGREEMENT * des.makespan
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        for x in (replay.makespan, des.makespan):
            assert lo <= x * (1 + EPS)
            assert x <= hi * (1 + EPS)

    @settings(max_examples=25, deadline=None)
    @given(shape=program_shape, iters=st.integers(2, 4))
    def test_persistent_ordering(self, shape, iters):
        prog = Program.from_template(
            [
                TaskSpec(name=f"t{i}", depends=tuple(deps), flops=2000.0)
                for i, deps in enumerate(shape)
            ],
            iters,
        )
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=4,
            opts=OptimizationSet.parse("abcp"),
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
        assert bounds["rounds"] == iters
        replay = simulate(art, cfg, fidelity="replay")
        des = simulate(art, cfg, fidelity="des", program=prog)
        assert replay.n_tasks == des.n_tasks == len(shape) * iters
        assert abs(replay.makespan - des.makespan) <= AGREEMENT * des.makespan
        lo, hi = bounds["makespan_lower"], bounds["makespan_upper"]
        for x in (replay.makespan, des.makespan):
            assert lo <= x * (1 + EPS)
            assert x <= hi * (1 + EPS)


def check_analytic_walk(art, cfg) -> dict:
    """Every edge goes forward in ``art.order``, and the analytic depth
    and graph T∞ equal the shape metrics under the nominal weights."""
    offsets, targets = art.succ_offsets, art.succ_targets
    pos = [0] * art.n_tasks
    for i, t in enumerate(art.order):
        pos[t] = i
    assert sorted(art.order) == list(range(art.n_tasks))
    for p in range(art.n_tasks):
        for s in targets[offsets[p]:offsets[p + 1]]:
            assert pos[p] < pos[s]

    bounds = simulate(art, cfg, fidelity="analytic").extra["bounds"]
    tw = tier_weights(art, cfg)
    nominal = tw.body + tw.mem_shared * cfg.threads
    shape = shape_from_csr(offsets, targets, nominal.tolist())
    _, _, _, t_inf_graph, depth = _spans(art, nominal, tw.body_lo, tw.body_hi)
    assert bounds["depth"] == depth == shape.depth
    assert t_inf_graph == shape.critical_path_weight
    assert bounds["t_inf"] >= shape.critical_path_weight * bounds["rounds"]
    return bounds


REDIRECT_GOLDEN = [s for s in golden_specs() if s.config.opts.c]


class TestAnalyticWalksTopologicalOrder:
    def test_stub_feeding_an_earlier_tid(self):
        # t0, t1 form an inoutset group; t2 closes it, so the redirect
        # stub (tid 3) is created after the task it feeds.
        prog = build_program([
            [(0, DepMode.INOUTSET)], [(0, DepMode.INOUTSET)], [(0, DepMode.IN)],
        ])
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4), opts=OptimizationSet.parse("abc")
        )
        art = compile_program(prog, cfg.opts, costs=cfg.discovery)
        assert art.n_stubs == 1 and art.successors(3) == [2]
        assert check_analytic_walk(art, cfg)["depth"] == 3

    @pytest.mark.parametrize(
        "spec", REDIRECT_GOLDEN, ids=[s.label for s in REDIRECT_GOLDEN]
    )
    def test_golden_redirect_specs(self, spec):
        cfg = derive_config(spec)
        art = compile_program(
            build_programs(spec)[0], cfg.opts, costs=cfg.discovery
        )
        check_analytic_walk(art, cfg)

    @settings(max_examples=40, deadline=None)
    @given(shape=program_shape, threads=st.integers(1, 4))
    def test_random_inoutset_programs(self, shape, threads):
        prog = build_program(shape)
        cfg = RuntimeConfig(
            machine=tiny_test_machine(4),
            n_threads=threads,
            opts=OptimizationSet.parse("abc"),
        )
        check_analytic_walk(
            compile_program(prog, cfg.opts, costs=cfg.discovery), cfg
        )
