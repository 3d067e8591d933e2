"""The simulated task-based OpenMP runtime (MPC-OMP model).

One :class:`TaskRuntime` simulates one process: a producer thread (thread 0)
walks the user program paying TDG discovery costs, while worker threads
execute ready tasks under the configured scheduler.  Discovery and execution
overlap exactly as in the paper — the race between them is what produces
edge pruning, discovery-bound idleness and the breadth-first degradation the
paper analyses.

The runtime runs on the :mod:`repro.sim` kernel: the TDG lives in a
struct-of-arrays :class:`~repro.sim.table.TaskTable` and the hot path works
in ``tid`` space (no per-task objects are materialized while simulating);
observers — the task trace, communication metrics, memory sampling — attach
to the :class:`~repro.sim.bus.InstrumentationBus` rather than being calls
hard-wired into runtime logic.

The simulator supports:

- optimizations (a)/(b)/(c) through :class:`~repro.core.dependences.DependenceResolver`
  (plus (a) at the workload level),
- the persistent task sub-graph (p) with its implicit per-iteration barrier,
- task throttling (producer switches to consuming),
- non-overlapped discovery (Table 1's complementary experiment),
- MPI tasks with detached completion, wired to a shared
  :class:`~repro.mpi.comm.Communicator` in cluster runs,
- the memory-hierarchy work-time model and the §2.3.1 time breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.compiled import CompiledGraphCache, CompiledTDG, structural_signature
from repro.core.dependences import DependenceResolver
from repro.core.graph import TaskGraph
from repro.core.optimizations import OptimizationSet
from repro.core.persistent import PersistentRegion, PersistentStructureError
from repro.core.program import CommKind, CommSpec, Program, TaskSpec
from repro.core.task import split_footprint
from repro.core.throttling import ThrottleConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.machine import MachineSpec, skylake_8168

if TYPE_CHECKING:  # pragma: no cover - circular at runtime
    from repro.mpi.comm import Communicator
    from repro.mpi.request import Request
from repro.accel.accelerator import Accelerator, AcceleratorSpec
from repro.obs.recorder import TraceRecorder
from repro.profiler.trace import CommRecord
from repro.runtime.costs import DiscoveryCosts, SchedulerCosts
from repro.runtime.result import RunResult
from repro.runtime.scheduler import make_scheduler
from repro.sim import EventQueue, InstrumentationBus, SimContext

# TaskState values as plain ints (the hot path compares ints, see
# repro.sim.table).
_CREATED, _READY, _RUNNING, _COMPLETED = 0, 1, 2, 3
_NAN = float("nan")


@dataclass(frozen=True)
class RuntimeConfig:
    """Configuration of one simulated OpenMP process."""

    machine: MachineSpec = field(default_factory=skylake_8168)
    #: OpenMP threads; defaults to all cores of the machine.
    n_threads: Optional[int] = None
    opts: OptimizationSet = field(default_factory=OptimizationSet.none)
    throttle: ThrottleConfig = field(default_factory=ThrottleConfig.mpc_default)
    discovery: DiscoveryCosts = field(default_factory=DiscoveryCosts)
    sched: SchedulerCosts = field(default_factory=SchedulerCosts)
    #: ``"lifo-df"`` (MPC-OMP) or ``"fifo-bf"``.
    scheduler: str = "lifo-df"
    #: Table 1 mode: fully discover the TDG before any execution.
    non_overlapped: bool = False
    #: Record the full task trace (needed for Gantt and overlap metrics).
    trace: bool = False
    #: Execute task ``body`` callables (numeric validation mode).
    execute_bodies: bool = False
    #: Optional simulated accelerator; tasks with ``device=True`` offload
    #: to it (§7 future-work extension, see repro.accel).
    accelerator: "Optional[AcceleratorSpec]" = None
    seed: int = 0
    name: str = "mpc-omp"

    def __post_init__(self) -> None:
        n = self.n_threads if self.n_threads is not None else self.machine.n_cores
        if n < 1:
            raise ValueError(f"n_threads must be >= 1, got {n}")
        if n > self.machine.n_cores:
            raise ValueError(
                f"n_threads={n} exceeds machine cores {self.machine.n_cores}"
            )
        if self.non_overlapped and self.opts.p:
            raise ValueError(
                "non_overlapped discovery and persistent graphs are mutually "
                "exclusive (the persistent barrier already serializes them)"
            )

    @property
    def threads(self) -> int:
        return self.n_threads if self.n_threads is not None else self.machine.n_cores

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready nested dict; inverse of :meth:`from_dict`.

        Every sub-config serializes through its own ``to_dict``, so the
        whole tree round-trips by value — the property
        :class:`~repro.campaign.spec.ExperimentSpec` hashing relies on.
        """
        return {
            "machine": self.machine.to_dict(),
            "n_threads": self.n_threads,
            "opts": self.opts.to_dict(),
            "throttle": self.throttle.to_dict(),
            "discovery": self.discovery.to_dict(),
            "sched": self.sched.to_dict(),
            "scheduler": self.scheduler,
            "non_overlapped": self.non_overlapped,
            "trace": self.trace,
            "execute_bodies": self.execute_bodies,
            "accelerator": (
                None if self.accelerator is None else self.accelerator.to_dict()
            ),
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeConfig":
        from repro.core.optimizations import OptimizationSet
        from repro.core.throttling import ThrottleConfig
        from repro.runtime.costs import DiscoveryCosts, SchedulerCosts

        d = dict(data)
        known = {
            "machine", "n_threads", "opts", "throttle", "discovery", "sched",
            "scheduler", "non_overlapped", "trace", "execute_bodies",
            "accelerator", "seed", "name",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown RuntimeConfig field(s) {sorted(unknown)}")
        kwargs = {}
        if "machine" in d:
            kwargs["machine"] = MachineSpec.from_dict(d["machine"])
        if "opts" in d:
            kwargs["opts"] = OptimizationSet.from_dict(d["opts"])
        if "throttle" in d:
            kwargs["throttle"] = ThrottleConfig.from_dict(d["throttle"])
        if "discovery" in d:
            kwargs["discovery"] = DiscoveryCosts.from_dict(d["discovery"])
        if "sched" in d:
            kwargs["sched"] = SchedulerCosts.from_dict(d["sched"])
        if d.get("accelerator") is not None:
            kwargs["accelerator"] = AcceleratorSpec.from_dict(d["accelerator"])
        for name in ("n_threads", "scheduler", "non_overlapped", "trace",
                     "execute_bodies", "seed", "name"):
            if name in d:
                kwargs[name] = d[name]
        return cls(**kwargs)


class DeadlockError(RuntimeError):
    """The simulation drained its event queue with incomplete tasks."""


class TaskRuntime:
    """Simulates one process executing a task :class:`Program`.

    Standalone use::

        result = TaskRuntime(program, config).run()

    Cluster use (all ranks share one :class:`~repro.sim.SimContext`)::

        rt = TaskRuntime(program, config, ctx=ctx, comm=comm, rank=r)
        rt.start()           # for each rank
        ctx.run()            # once
        result = rt.result() # for each rank

    Observers attach to :attr:`bus` (see :mod:`repro.sim.bus` for the hook
    catalogue).  Each runtime gets its own bus by default — in a coupled
    run, per-rank observers stay per-rank; pass an explicit shared ``bus``
    to observe several ranks' events interleaved in time order.
    """

    def __init__(
        self,
        program: Program,
        config: RuntimeConfig,
        *,
        engine: Optional[EventQueue] = None,
        ctx: Optional[SimContext] = None,
        comm: Optional["Communicator"] = None,
        rank: int = 0,
        bus: Optional[InstrumentationBus] = None,
        compiled_cache: Optional["CompiledGraphCache"] = None,
    ) -> None:
        self.program = program
        self.config = config
        if ctx is not None:
            if engine is not None and engine is not ctx.engine:
                raise ValueError("pass either engine or ctx, not conflicting both")
            engine = ctx.engine
        self.ctx = ctx
        self.engine = engine if engine is not None else EventQueue()
        self._own_engine = engine is None
        self.bus = bus if bus is not None else InstrumentationBus()
        if comm is None:
            # Standalone runs still execute MPI tasks (e.g. the dt
            # Allreduce): give them a single-rank world.
            from repro.mpi.comm import Communicator
            from repro.mpi.network import bxi_like

            comm = Communicator(self.engine, bxi_like(), 1)
        self.comm = comm
        self.rank = rank
        n = config.threads
        self.n_threads = n

        self.memory = MemoryHierarchy(config.machine)
        self.accelerator = (
            Accelerator(config.accelerator, self.engine)
            if config.accelerator is not None
            else None
        )
        self.scheduler = make_scheduler(config.scheduler, n, seed=config.seed)
        self.comm_records: list[CommRecord] = []

        self._persistent_mode = config.opts.p and program.persistent_candidate
        self.graph = TaskGraph(persistent=self._persistent_mode)
        self.table = self.graph.table
        self.resolver = DependenceResolver(self.table, config.opts)
        #: This rank's span recording (``config.trace``), else None.
        self.trace: Optional[TraceRecorder] = None
        if config.trace:
            # Filter on our table: on a shared (cluster-wide) bus the
            # per-rank trace must not absorb other ranks' task events.
            # Spans are all a result carries, so only task_end subscribes.
            self.trace = TraceRecorder(table=self.table)
            self.trace.on_register(self.table, rank)
            self.bus.subscribe("task_end", self.trace.on_task_end)
        cbs = self.bus.register
        if cbs:
            for cb in cbs:
                cb(self.table, rank)
        self._region: Optional[PersistentRegion] = None
        #: Template-iteration tids, 1:1 with its specs (persistent mode).
        self._template_tids: list[int] = []
        # Compiled-TDG replay plan, built when the region freezes: arrays
        # aligned with the template's spec positions (barrier markers get
        # tid -1), plus the frozen stub tid list.  The fused replay chain
        # walks these instead of re-deriving per-task state.
        self._template_src: Optional[list[TaskSpec]] = None
        self._plan_tids: list[int] = []
        self._plan_costs: list[float] = []
        self._plan_bodies: list = []
        self._plan_n_user = 0
        self._stub_tids: list[int] = []
        # Per-tid submission times of the current bulk-armed chain
        # (empty until the region freezes; 0.0 for stubs and past
        # iterations, i.e. "already submitted").  Gates readiness of
        # tasks whose predecessors complete before their submission
        # point — the per-task arm events the bulk walk elides.
        self._arm_time: list[float] = []
        self._replay_iter_index = 0
        self._compiled_cache = compiled_cache
        self._compiled_info: Optional[dict] = None
        self._compiled_key: Optional[str] = None
        #: Per-spec normalized footprint cache.  Programs built by
        #: ``Program.from_template`` share spec tuples across iterations,
        #: so each spec's footprint is normalized exactly once per run.
        self._spec_prep: dict[int, tuple] = {}

        # Producer cursor.
        self._iter_idx = 0
        self._task_idx = 0
        self._region_cursor = 0
        # idle|creating|consuming|throttled|barrier|taskwait|done
        self._producer_state = "idle"
        self._producer_resume_state = "idle"
        self._producer_event_pending = False

        # Thread state.  Thread 0 is the producer; it executes tasks only
        # when throttled or once discovery has finished.
        self._busy = [False] * n
        self._busy_count = 0
        self._idle_workers: set[int] = set(range(1, n))
        self._producer_free = False  # thread 0 available as a worker

        # Accounting (plain Python lists: element-wise accumulation on
        # numpy arrays costs ~1µs per store at this scale).
        self.work = [0.0] * n
        self.overhead = [0.0] * n
        self.discovery_busy = 0.0
        # Per-task resolution counts in tid order (creator row followed by
        # zero rows for its redirect stubs) — the discovery columns of the
        # compiled()-snapshot artifact.
        self._disc_rows: list[tuple[int, int, int, int]] = []
        self._disc_first = _NAN
        self._disc_last = _NAN
        self._exec_first = _NAN
        self._exec_last = _NAN
        self._last_activity = 0.0
        self._alive = 0
        self._iter_live = 0
        self._n_completed_user = 0
        self._n_released_edges = 0
        self._gate_closed = config.non_overlapped
        self._discovery_done = False
        self._started = False

        # Hot-path constants.
        sched = config.sched
        self._c_pop = sched.c_pop
        self._c_steal = sched.c_steal
        self._c_contention = sched.c_contention
        self._c_complete = sched.c_complete
        self._c_release = sched.c_release
        self._c_post = sched.c_post
        self._flops_per_core = config.machine.flops_per_core
        self._should_block = config.throttle.should_block
        self._ready_cap = config.throttle.ready_cap
        self._total_cap = config.throttle.total_cap
        # The fused replay chain is trace-equivalent only when the
        # producer provably cannot throttle mid-iteration: no ready cap
        # (the per-step n_ready check would need real producer events),
        # and — checked per iteration — enough total-cap headroom for
        # every template task.
        self._fast_replay = config.throttle.ready_cap is None
        self._plan_cap = (
            float("inf") if config.throttle.total_cap is None
            else config.throttle.total_cap
        )
        self._creation_cost = config.discovery.creation_cost
        self._replay_cost = config.discovery.replay_cost
        self._non_overlapped = config.non_overlapped
        self._execute_bodies = config.execute_bodies
        self._mem_access = self.memory.access
        self._iterations = program.iterations
        self._n_iterations = program.n_iterations
        self._has_accel = self.accelerator is not None

    # ==================================================================
    # public API
    # ==================================================================
    def start(self) -> None:
        """Arm the simulation on the shared engine (cluster mode)."""
        if self._started:
            raise RuntimeError("start() called twice")
        self._started = True
        if self.program.n_tasks == 0:
            self._producer_state = "done"
            return
        self._schedule_producer()

    def run(self) -> RunResult:
        """Standalone run to completion."""
        if not self._own_engine:
            raise RuntimeError("run() requires an internally-owned engine; use start()")
        self.start()
        self.engine.run()
        return self.result()

    def result(self) -> RunResult:
        """Collect the result after the engine has drained."""
        if self._alive != 0 or self._producer_state != "done":
            raise DeadlockError(
                f"rank {self.rank}: simulation ended with {self._alive} live "
                f"tasks and producer state {self._producer_state!r} — "
                "circular dependences or an unmatched MPI operation"
            )
        span = lambda a, b: (0.0, 0.0) if np.isnan(a) or np.isnan(b) else (a, b)
        res = RunResult(
            name=self.config.name,
            n_threads=self.n_threads,
            makespan=self._last_activity,
            discovery_busy=self.discovery_busy,
            discovery_span=span(self._disc_first, self._disc_last),
            execution_span=span(self._exec_first, self._exec_last),
            work=np.asarray(self.work, dtype=float),
            overhead=np.asarray(self.overhead, dtype=float),
            n_tasks=self._n_completed_user,
            edges=self.graph.stats,
            mem=self.memory.counters,
            trace=self.trace,
            comm=list(self.comm_records),
            extra={
                "scheduler": {
                    "pops_local": self.scheduler.stats.pops_local,
                    "pops_spawn": self.scheduler.stats.pops_spawn,
                    "steals": self.scheduler.stats.steals,
                },
                "edges_released": self._n_released_edges,
                "rank": self.rank,
            },
        )
        if self._compiled_info is not None:
            res.extra["compiled_tdg"] = dict(self._compiled_info)
        return res

    # ==================================================================
    # producer
    # ==================================================================
    def _schedule_producer(self) -> None:
        if not self._producer_event_pending:
            self._producer_event_pending = True
            self.engine.push_now(self._producer_step)

    def _producer_step(self) -> None:
        self._producer_event_pending = False
        now = self.engine.now
        state = self._producer_state

        if state == "done":
            return
        if state == "creating" or state == "consuming":
            # A creation/consumption is in flight; its completion event will
            # re-enter the state machine.
            return

        if state == "barrier":
            if self._iter_live > 0:
                # Barriers are scheduling points: the waiting thread helps
                # execute pending tasks (otherwise a single-threaded run —
                # producer == only worker — would deadlock).
                self._consume_while_waiting("barrier")
                return
            self._end_persistent_iteration()
            # fallthrough to continue walking (state now updated)
            state = self._producer_state
            if state == "done":
                return

        # All iterations submitted?
        if self._iter_idx >= self._n_iterations:
            self._finish_discovery()
            return

        iteration = self._iterations[self._iter_idx]
        if self._task_idx >= len(iteration.tasks):
            # End of one iteration's submissions.
            self._iter_idx += 1
            self._task_idx = 0
            if self._persistent_mode:
                self._producer_state = "barrier"
                if self._iter_live == 0:
                    self._end_persistent_iteration()
                    if self._producer_state == "done":
                        return
                    self._schedule_producer()
                    return
                self._consume_while_waiting("barrier")
                return
            self._schedule_producer()
            return

        # Throttling: stop producing, consume instead (never in
        # non-overlapped mode, where workers are gated and consuming
        # ourselves forever would still be fine, but blocking would not).
        # Open-coded ThrottleConfig.should_block — per-submission hot path.
        if not self._non_overlapped:
            rc = self._ready_cap
            tc = self._total_cap
            if (rc is not None and self.scheduler.n_ready >= rc) or (
                tc is not None and self._alive >= tc
            ):
                if self._consume_one("idle"):
                    return
                self._producer_state = "throttled"
                return  # completions will wake us

        spec = iteration.tasks[self._task_idx]
        replaying = self._persistent_mode and self._region is not None
        if spec.barrier:
            # ``taskwait``: the producer blocks until everything submitted
            # so far has completed, then resumes after the marker.  In
            # non-overlapped mode execution is gated until discovery ends,
            # so honouring the wait would deadlock — the marker is a no-op
            # (the mode already serializes discovery against execution).
            if self._non_overlapped:
                self._task_idx += 1
                self._producer_state = "idle"
                self._schedule_producer()
                return
            if self._alive > 0:
                # taskwait is a scheduling point too (see the barrier case).
                self._consume_while_waiting("taskwait")
                return
            cbs = self.bus.barrier
            if cbs:
                for cb in cbs:
                    cb("taskwait", now)
            self._task_idx += 1
            self._producer_state = "idle"
            self._schedule_producer()
            return
        self._task_idx += 1
        if replaying:
            if (
                self._fast_replay
                and iteration.tasks is self._template_src
                and self._alive + self._plan_n_user < self._plan_cap
            ):
                # Bulk replay: this and every following user task up to
                # the next taskwait arm in one pass over the frozen plan
                # — submission times are a deterministic prefix sum of
                # the frozen replay costs, so the whole chain is written
                # as array stores here and only the observable moments
                # get events (root tasks at their submission times, one
                # chain-end event).  Tasks unblocked before their
                # submission point are deferred by `_complete_task` via
                # `_arm_time`.  Valid only when throttling provably
                # cannot trigger mid-chain, so the producer walk carries
                # no observable work; sharing the template's spec list
                # (the `from_template` layout) guarantees the frozen
                # per-task costs and bodies are this iteration's too.
                self._replay_iter_index = iteration.index
                self._bulk_replay(self._task_idx - 1, now)
                return
            tid = self._template_tids[self._region_cursor]
            self._region_cursor += 1
            cost = self._replay_cost(spec)
            cbs = self.bus.task_replay
            if cbs:
                for cb in cbs:
                    cb(self.table, tid, iteration.index, cost, now)
        else:
            tb = self.table
            prep = self._spec_prep.get(id(spec))
            if prep is None:
                prep = self._spec_prep[id(spec)] = split_footprint(spec.footprint)
            tid = tb.new_fast(
                spec.name, spec.loop_id, iteration.index, spec.flops,
                prep[0], prep[1], spec.fp_bytes, spec.comm, spec.body,
            )
            if spec.priority:
                tb.priority[tid] = True
            if spec.device:
                tb.device[tid] = True
            res = self.resolver.resolve_tid(tid, spec.depends)
            tb.npred_initial[tid] = tb.npred[tid] + tb.presat[tid]
            self._disc_rows.append(
                (res.n_addrs, res.n_edges, res.n_skipped, res.n_redirects)
            )
            self._disc_rows.extend((0, 0, 0, 0) for _ in res.redirect_tids)
            for stub in res.redirect_tids:
                self._arm_stub(stub)
            if self._persistent_mode:
                self._template_tids.append(tid)
            cost = self._creation_cost(spec, res)
            cbs = self.bus.task_create
            if cbs:
                for cb in cbs:
                    cb(tb, tid, res, cost, now)

        self.discovery_busy += cost
        if self._disc_first != self._disc_first:  # NaN: first creation
            self._disc_first = now
        self._producer_state = "creating"
        self.engine.push(now + cost, self._task_armed, tid, iteration.index, spec)

    def _consume_one(self, resume_state: str) -> bool:
        """Have the producer execute one ready task, then resume.

        Returns True if a task was popped (the producer is now consuming);
        ``resume_state`` is only used to re-evaluate the wait condition —
        after consuming, the state machine re-enters ``_producer_step`` and
        re-derives it (cursors were not advanced).
        """
        tid, source = self.scheduler.pop(0)
        if tid is None:
            return False
        self._producer_state = "consuming"
        self._producer_resume_state = resume_state
        now = self.engine.now
        cost = self._pop_cost(source)
        self.overhead[0] += cost
        self._begin_task(0, tid, now + cost)
        return True

    def _consume_while_waiting(self, wait_state: str) -> None:
        """At a barrier/taskwait scheduling point: help, or park."""
        if self._consume_one(wait_state):
            return
        self._producer_state = wait_state
        # Completions will re-schedule the producer.

    def _arm_stub(self, stub: int) -> None:
        """Stubs become live as soon as the resolver creates them."""
        self.table.armed[stub] = True
        self._alive += 1
        self._iter_live += 1
        if self.table.npred[stub] == 0:
            # Every predecessor edge was pruned: the stub is trivially done.
            self._complete_task(stub, -1, self.engine.now)

    def _task_armed(self, tid: int, iteration: int, spec: TaskSpec) -> None:
        now = self.engine.now
        self._disc_last = now
        if now > self._last_activity:
            self._last_activity = now
        tb = self.table
        tb.created_at[tid] = now
        tb.iteration[tid] = iteration
        # Bodies are part of the firstprivate payload: they may change per
        # iteration (persistent replay updates them, §3.2).
        tb.body[tid] = spec.body
        tb.armed[tid] = True
        self._alive += 1
        self._iter_live += 1
        if tb.npred[tid] == 0 and tb.state[tid] == _CREATED:
            self._make_ready(tid, -1)
        self._producer_state = "idle"
        self._schedule_producer()

    def _bulk_replay(self, pos: int, now: float) -> None:
        """Arm the replay chain starting at template position ``pos``.

        One pass over the frozen plan performs every per-task arm as
        plain array stores: submission time accumulates cost by cost
        (bitwise the times the elided per-task events would have fired
        at), and ``_arm_time`` records it so late-unblocked readiness is
        gated identically.  Only tasks already unblocked here (roots of
        the chain) get a timed `_root_ready` event; one `_chain_end`
        event at the last submission time returns the producer to the
        generic state machine (the next taskwait marker, or the
        iteration barrier).
        """
        tb = self.table
        created_at, iter_col, bodies = tb.created_at, tb.iteration, tb.body
        armed, npred = tb.armed, tb.npred
        plan_tids, plan_costs = self._plan_tids, self._plan_costs
        plan_bodies = self._plan_bodies
        arm_time = self._arm_time
        it = self._replay_iter_index
        root_ready = self._root_ready
        replay_cbs = self.bus.task_replay
        batch: list = []
        db = self.discovery_busy
        end = len(plan_tids)
        t = now
        k = pos
        while k < end:
            tid = plan_tids[k]
            if tid < 0:
                break
            cost = plan_costs[k]
            t = t + cost
            db += cost
            created_at[tid] = t
            iter_col[tid] = it
            bodies[tid] = plan_bodies[k]
            armed[tid] = True
            arm_time[tid] = t
            if replay_cbs:
                for cb in replay_cbs:
                    cb(tb, tid, it, cost, t)
            if npred[tid] == 0:
                batch.append((t, root_ready, (tid,)))
            k += 1
        self.discovery_busy = db
        n = k - pos
        self._alive += n
        self._iter_live += n
        self._task_idx = k
        self._region_cursor += n
        self._disc_last = t
        if t > self._last_activity:
            self._last_activity = t
        self._producer_state = "creating"
        batch.append((t, self._chain_end, ()))
        self.engine.push_many(batch)

    def _root_ready(self, tid: int) -> None:
        """Submission moment of a chain task with no pending predecessors."""
        tb = self.table
        if tb.npred[tid] == 0 and tb.state[tid] == _CREATED:
            self._make_ready(tid, -1)

    def _deferred_ready(self, tid: int) -> None:
        """Submission moment of a chain task whose last predecessor
        completed before it was submitted (pushed by `_complete_task`)."""
        if self.table.state[tid] == _CREATED:
            self._make_ready(tid, -1)

    def _chain_end(self) -> None:
        """Last submission of the bulk-armed chain: resume the walk."""
        self._producer_state = "idle"
        self._schedule_producer()

    def _end_persistent_iteration(self) -> None:
        """Implicit barrier reached: finalize or re-arm the persistent graph."""
        cbs = self.bus.barrier
        if cbs:
            for cb in cbs:
                cb("iteration", self.engine.now)
        if self._region is None:
            # First iteration just completed: freeze the region.  Note that
            # npred_initial was snapshotted at each task's resolution — at
            # this point every npred is back to 0.
            template_specs = list(self.program.iterations[0].tasks)
            view = self.table.view
            self._region = PersistentRegion(
                graph=self.graph,
                template=template_specs,
                user_tasks=[view(t) for t in self._template_tids],
            )
            self._freeze_replay_plan(template_specs)
        # Dropping resolver state at the barrier is what removes
        # inter-iteration edges (§3.3).
        self.resolver.reset()
        if self._iter_idx >= self.program.n_iterations:
            self._finish_discovery()
            return
        # Validate and re-arm for the next iteration.  Iterations sharing
        # the template's spec list (`Program.from_template`) are identical
        # by construction — nothing to validate.
        next_it = self.program.iterations[self._iter_idx]
        if next_it.tasks is not self._template_src:
            try:
                self._region.validate_iteration(next_it)
            except PersistentStructureError:
                # The frozen graph no longer describes this program: any
                # cached compiled artifact for it is stale.
                self._invalidate_compiled()
                raise
        self._region.rearm()
        self._region_cursor = 0
        # Stubs are re-armed wholesale; user tasks get walked by the producer.
        armed = self.table.armed
        stubs = self._stub_tids
        for tid in stubs:
            armed[tid] = True
        self._alive += len(stubs)
        self._iter_live += len(stubs)
        self._producer_state = "idle"

    def _freeze_replay_plan(self, template_specs: list[TaskSpec]) -> None:
        """Build the frozen replay plan at the first persistent barrier.

        One pass over the template: per-position tids (taskwait markers
        get -1), per-position firstprivate-copy costs and bodies, and the
        stub tid list the barrier re-arms wholesale.  Also resolves the
        compiled-graph cache when one is attached.
        """
        self._template_src = self.program.iterations[0].tasks
        tids = self._template_tids
        plan_tids: list[int] = []
        plan_costs: list[float] = []
        plan_bodies: list = []
        replay_cost = self._replay_cost
        k = 0
        for spec in template_specs:
            if spec.barrier:
                plan_tids.append(-1)
                plan_costs.append(0.0)
                plan_bodies.append(None)
                continue
            plan_tids.append(tids[k])
            plan_costs.append(replay_cost(spec))
            plan_bodies.append(spec.body)
            k += 1
        self._plan_tids = plan_tids
        self._plan_costs = plan_costs
        self._plan_bodies = plan_bodies
        self._plan_n_user = k
        # 0.0 (= submitted) everywhere; the bulk walk stamps each chain
        # task's real submission time per iteration.  Stubs keep 0.0 —
        # they are re-armed wholesale at the barrier, before any chain.
        self._arm_time = [0.0] * self.table.n_tasks
        self._stub_tids = [
            tid for tid, s in enumerate(self.table.is_stub) if s
        ]
        if self._compiled_cache is not None:
            self._publish_compiled(self._compiled_cache)

    # ------------------------------------------------------------------
    # compiled-TDG artifact
    # ------------------------------------------------------------------
    def compiled(self) -> CompiledTDG:
        """Freeze the discovered TDG into a :class:`CompiledTDG`.

        Persistent runs may call this any time after the first iteration
        (the region is frozen); non-persistent runs after discovery ends.
        The artifact is keyed by the program's structural signature, so
        it equals what :func:`repro.core.compiled.compile_program` builds
        for the same program and opts — by construction.
        """
        if self._persistent_mode and self._region is None:
            raise RuntimeError("compiled(): persistent region not frozen yet")
        if not self._persistent_mode and not self._discovery_done:
            raise RuntimeError("compiled(): discovery has not finished")
        if self._compiled_key is None:
            self._compiled_key = structural_signature(
                self.program, self.config.opts
            )
        segment, spec_pos = self._segment_columns()
        disc = self._disc_rows
        art = CompiledTDG.from_table(
            self.table,
            key=self._compiled_key,
            segment=segment,
            spec_pos=spec_pos,
            owner=self.rank,
            disc=disc if len(disc) == len(self.table) else None,
        )
        if self._persistent_mode:
            # Replay re-stamps the table's iteration column for tracing;
            # the artifact describes the template iteration.
            art.iteration = [0] * len(art.iteration)
        return art

    def _segment_columns(self) -> tuple[list[int], list[int]]:
        """Reconstruct per-tid barrier segments and template positions.

        Stub tids always follow the user task whose resolution created
        them, so one joint walk over tids and submitted specs aligns
        both columns.
        """
        is_stub = self.table.is_stub
        segment: list[int] = []
        spec_pos: list[int] = []
        seg = 0
        if self._persistent_mode:
            walk = [self.program.iterations[0].tasks]
        else:
            walk = [it.tasks for it in self._iterations]
        specs = iter(
            (pos, spec) for tasks in walk for pos, spec in enumerate(tasks)
        )
        pos, spec = -1, None
        for tid in range(len(is_stub)):
            if is_stub[tid]:
                segment.append(seg)
                spec_pos.append(-1)
                continue
            pos, spec = next(specs)
            while spec.barrier:
                seg += 1
                pos, spec = next(specs)
            segment.append(seg)
            spec_pos.append(pos)
        return segment, spec_pos

    def _publish_compiled(self, cache: CompiledGraphCache) -> None:
        """Record the frozen graph in the compiled cache (hit or store).

        A hit never alters the simulation — discovery already ran with
        identical timing (the artifact is structural, not temporal); the
        cache exists so *other* consumers (verify, analysis, partitioning,
        later runs) skip recompiling, and the run reports hit/stored for
        observability.
        """
        self._compiled_key = structural_signature(self.program, self.config.opts)
        key = self._compiled_key
        if cache.contains(key):
            status = "hit"
        else:
            cache.put(self.compiled())
            status = "stored"
        self._compiled_info = {
            "key": key,
            "cache": status,
            "n_tasks": len(self.table),
            "n_edges": self.table.stats.created,
        }

    def _invalidate_compiled(self) -> None:
        if self._compiled_cache is not None and self._compiled_key is not None:
            self._compiled_cache.invalidate(self._compiled_key)
            if self._compiled_info is not None:
                self._compiled_info["cache"] = "invalidated"

    def _finish_discovery(self) -> None:
        if self._discovery_done:
            return
        self._discovery_done = True
        self._producer_state = "done"
        if self._gate_closed:
            self._gate_closed = False
            self._wake_workers(self.scheduler.n_ready)
        # Thread 0 becomes a plain worker.
        self._producer_free = True
        self._idle_workers.add(0)
        self._worker_try(0)

    # ==================================================================
    # workers
    # ==================================================================
    def _pop_cost(self, source: str) -> float:
        """Scheduler cost of acquiring one task.

        Pops from shared structures (the spawn queue, a steal) pay a
        contention term growing with the number of busy threads — the
        shared-TDG contention of §4.3.
        """
        if source == "local":
            return self._c_pop
        base = self._c_steal if source == "steal" else self._c_pop
        return base + self._c_contention * self._busy_count

    def _wake_workers(self, k: int) -> None:
        """Schedule up to ``k`` idle workers to look for work now."""
        if self._gate_closed or k <= 0:
            return
        idle = self._idle_workers
        if idle:
            engine = self.engine
            worker_try = self._worker_try
            if k == 1:
                # Overwhelmingly common case (one task readied): wake the
                # first idle worker in iteration order, same as the batch
                # path below would.
                for w in idle:
                    break
                idle.discard(w)
                engine.push(engine.now, worker_try, w)
            else:
                now = engine.now
                batch = []
                for w in list(idle):
                    if len(batch) >= k:
                        break
                    idle.discard(w)
                    batch.append((now, worker_try, (w,)))
                engine.push_many(batch)
        # The throttled producer also consumes.
        if self._producer_state == "throttled":
            self._schedule_producer()

    def _worker_try(self, w: int) -> None:
        if self._gate_closed or self._busy[w]:
            return
        if w == 0 and not self._producer_free:
            return
        tid, source = self.scheduler.pop(w)
        if tid is None:
            self._idle_workers.add(w)
            return
        now = self.engine.now
        cost = self._pop_cost(source)
        self.overhead[w] += cost
        self._begin_task(w, tid, now + cost)

    def _begin_task(self, w: int, tid: int, t_start: float) -> None:
        """Thread ``w`` starts executing task ``tid`` at ``t_start``."""
        self._busy[w] = True
        self._busy_count += 1
        tb = self.table
        tb.state[tid] = _RUNNING
        tb.worker[tid] = w
        tb.started_at[tid] = t_start
        if self._exec_first != self._exec_first:  # NaN: first execution
            self._exec_first = t_start
        cbs = self.bus.task_start
        if cbs:
            for cb in cbs:
                cb(tb, tid, w, t_start)
        if self._has_accel and tb.device[tid]:
            # The host worker only launches the kernel; the device timeline
            # completes the task (like a detached MPI request).
            launch = self.accelerator.spec.launch_overhead
            self.engine.push(
                t_start + launch, self._finish_launch, w, tid, t_start, launch
            )
            return
        duration = tb.flops[tid] / self._flops_per_core
        footprint = tb.footprint[tid]
        if footprint:
            duration += self._mem_access(w, footprint, self._busy_count).time
        if tb.comm[tid] is not None:
            duration += self._c_post
        self.engine.push(t_start + duration, self._finish_body, w, tid, t_start, duration)

    def _finish_body(self, w: int, tid: int, t_start: float, duration: float) -> None:
        now = self.engine.now
        self.work[w] += duration
        tb = self.table
        cbs = self.bus.task_end
        if cbs:
            for cb in cbs:
                cb(tb, tid, w, t_start, now)
        self._busy[w] = False
        self._busy_count -= 1

        spec = tb.comm[tid]
        if spec is not None:
            req = self._post_comm(tid, spec, now)
            if spec.detached:
                tb.detach_pending[tid] = True
                req.on_complete(self._request_detach_done(tid))
                self._after_worker_task(w, now)
                return
            # Blocking wait inside the task: the worker stays parked (not
            # counted as a DRAM sharer — it is spinning in MPI_Wait).
            self._busy[w] = True
            req.on_complete(self._request_blocking_done(tid, w, wait_from=now))
            return
        self._complete_task(tid, w, now)
        self._after_worker_task(w, now)

    def _finish_launch(self, w: int, tid: int, t_start: float, launch: float) -> None:
        """Host side of an offloaded task: free the worker, hand the kernel
        to the accelerator, and complete the task when the device does."""
        now = self.engine.now
        self.work[w] += launch
        self._busy[w] = False
        self._busy_count -= 1
        tb = self.table
        tb.detach_pending[tid] = True

        def _kernel_done(finish: float, tid=tid, t_start=t_start) -> None:
            tb.detach_pending[tid] = False
            cbs = self.bus.task_end
            if cbs:
                for cb in cbs:
                    cb(tb, tid, -1, t_start, finish)
            self._complete_task(tid, -1, self.engine.now)

        self.accelerator.submit(self.table.view(tid), now, _kernel_done)
        self._after_worker_task(w, now)

    def _after_worker_task(self, w: int, now: float) -> None:
        c = self._c_complete
        self.overhead[w] += c
        if now + c > self._last_activity:
            self._last_activity = now + c
        if w == 0 and self._producer_state == "consuming":
            # Return to whatever the producer was doing (discovering, or
            # re-checking a barrier/taskwait condition).
            self._producer_state = self._producer_resume_state
            self._schedule_producer()
            return
        self.engine.push(now + c, self._worker_try, w)

    # ------------------------------------------------------------------
    def _post_comm(self, tid: int, spec: CommSpec, now: float) -> "Request":
        if spec.kind == CommKind.ISEND:
            req = self.comm.isend(self.rank, spec.peer, spec.tag, spec.nbytes)
        elif spec.kind == CommKind.IRECV:
            req = self.comm.irecv(self.rank, spec.peer, spec.tag, spec.nbytes)
        else:
            req = self.comm.iallreduce(self.rank, spec.nbytes)
        rec = CommRecord(
            kind=spec.kind.name.lower(),
            rank=self.rank,
            peer=spec.peer,
            nbytes=spec.nbytes,
            post_time=now,
            complete_time=_NAN,
            iteration=self.table.iteration[tid],
        )
        self.comm_records.append(rec)
        cbs = self.bus.msg_post
        if cbs:
            for cb in cbs:
                cb(rec)
        req.on_complete(lambda r, rec=rec: self._comm_complete(rec, r))
        return req

    def _comm_complete(self, rec: CommRecord, req: "Request") -> None:
        rec.complete_time = req.complete_time
        cbs = self.bus.msg_complete
        if cbs:
            for cb in cbs:
                cb(rec)

    def _request_detach_done(self, tid: int):
        def _cb(req: "Request") -> None:
            # The polling runtime notices completion at the next scheduling
            # point — model that as a fixed poll delay.
            self.engine.push(
                max(req.complete_time, self.engine.now) + self.config.sched.c_poll,
                self._detach_complete,
                tid,
            )

        return _cb

    def _detach_complete(self, tid: int) -> None:
        self.table.detach_pending[tid] = False
        self._complete_task(tid, -1, self.engine.now)

    def _request_blocking_done(self, tid: int, w: int, wait_from: float):
        def _cb(req: "Request") -> None:
            t = max(req.complete_time, self.engine.now) + self.config.sched.c_poll

            def _resume() -> None:
                now = self.engine.now
                # Time spent in MPI_Wait is inside the task body, hence
                # *work* under the §2.3.1 breakdown definitions.
                self.work[w] += now - wait_from
                self._busy[w] = False
                self._complete_task(tid, w, now)
                self._after_worker_task(w, now)

            self.engine.push(t, _resume)

        return _cb

    # ==================================================================
    # completion & readiness
    # ==================================================================
    def _complete_task(self, tid: int, w: int, now: float) -> None:
        tb = self.table
        state = tb.state
        if state[tid] == _COMPLETED:
            raise RuntimeError(f"task {tid} completed twice")
        if self._execute_bodies:
            body = tb.body[tid]
            if body is not None:
                body()
        state[tid] = _COMPLETED
        tb.completed_at[tid] = now
        if now > self._last_activity:
            self._last_activity = now
        if not tb.is_stub[tid]:
            if not self._exec_last >= now:  # NaN or smaller
                self._exec_last = now
            self._n_completed_user += 1
        self._alive -= 1
        self._iter_live -= 1
        succ_list = tb.succs[tid]
        if w >= 0:
            self.overhead[w] += self._c_release * len(succ_list)
        n_ready_made = 0
        if succ_list:
            self._n_released_edges += len(succ_list)
            npred = tb.npred
            armed = tb.armed
            arm_time = self._arm_time
            if arm_time:
                # Replay plan active: a successor unblocked before its
                # submission point must wait for it (its elided arm
                # event), exactly as an unarmed task would.
                for succ in succ_list:
                    remaining = npred[succ] - 1
                    npred[succ] = remaining
                    if remaining == 0 and armed[succ] and state[succ] == _CREATED:
                        t_arm = arm_time[succ]
                        if t_arm <= now:
                            self._make_ready(succ, w)
                            n_ready_made += 1
                        else:
                            self.engine.push(t_arm, self._deferred_ready, succ)
            else:
                for succ in succ_list:
                    remaining = npred[succ] - 1
                    npred[succ] = remaining
                    if remaining == 0 and armed[succ] and state[succ] == _CREATED:
                        self._make_ready(succ, w)
                        n_ready_made += 1
        if n_ready_made:
            self._wake_workers(n_ready_made)
        if self._producer_state in ("throttled", "barrier", "taskwait"):
            self._schedule_producer()

    def _make_ready(self, tid: int, w: int) -> None:
        tb = self.table
        tb.state[tid] = _READY
        cbs = self.bus.task_ready
        if cbs:
            for cb in cbs:
                cb(tb, tid, self.engine.now)
        if tb.is_stub[tid]:
            # Empty redirect node: completes in place, cascading releases.
            self._complete_task(tid, w, self.engine.now)
            return
        if w >= 0:
            self.scheduler.push_local(w, tid, tb.priority[tid])
        else:
            self.scheduler.push_spawn(tid, tb.priority[tid])
            self._wake_workers(1)
