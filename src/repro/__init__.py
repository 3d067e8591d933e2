"""repro — reproduction of *Investigating Dependency Graph Discovery Impact
on Task-based MPI+OpenMP Applications Performances* (ICPP 2023).

The package simulates, with a discrete-event engine, the systems the paper
studies on real hardware:

- :mod:`repro.core` — OpenMP-style dependent tasks, TDG discovery, the
  optimizations (a)/(b)/(c) and the persistent task sub-graph (p);
- :mod:`repro.runtime` — the tasking runtime (producer + workers, LIFO
  depth-first scheduling, throttling) and the fork-join reference model;
- :mod:`repro.memory` — cache hierarchy and DRAM contention;
- :mod:`repro.mpi` / :mod:`repro.cluster` — simulated MPI and coupled
  multi-rank runs;
- :mod:`repro.apps` — LULESH, HPCG and tile Cholesky workloads (timing
  proxies *and* numerically real kernels for validation);
- :mod:`repro.profiler` / :mod:`repro.analysis` — the paper's §2.3.1/§4.1
  methodology: breakdowns, communication overlap, Gantt charts, METG,
  TPL sweeps, scaling models;
- :mod:`repro.verify` — DES-free static verification: race detection over
  declared footprints, depend-clause lint, persistence safety and
  discovery-cost prediction (``python -m repro lint``);
- :mod:`repro.campaign` — the declarative experiment API: frozen
  :class:`~repro.campaign.spec.ExperimentSpec` values, the single
  :func:`~repro.campaign.runner.run_experiment` entrypoint, and
  :func:`~repro.campaign.engine.run_campaign` — parallel, cached,
  resumable experiment fan-out (``python -m repro campaign``).

Quickstart::

    from repro import LuleshConfig, TaskRuntime, scaled_mpc
    from repro.apps.lulesh import build_task_program

    cfg = LuleshConfig(s=32, iterations=4, tpl=32)
    result = TaskRuntime(build_task_program(cfg, opt_a=True),
                         scaled_mpc(opts="abcp")).run()
    print(result.summary())
"""

__version__ = "1.0.0"

from repro.core import (
    CommKind,
    CommSpec,
    DepMode,
    OptimizationSet,
    Program,
    ProgramBuilder,
    TaskSpec,
    ThrottleConfig,
)
from repro.runtime import (
    DeadlockError,
    ParallelForRuntime,
    RunResult,
    RuntimeConfig,
    TaskRuntime,
    presets,
)
from repro.memory import MachineSpec, epyc_7763_numa, skylake_8168
from repro.mpi import NetworkSpec, bxi_like
from repro.cluster import Cluster, RankGrid, run_spmd
from repro.apps.lulesh import LuleshConfig
from repro.apps.hpcg import HpcgConfig
from repro.apps.cholesky import CholeskyConfig
from repro.analysis import (
    metg,
    run_spec_sweep,
    scaled_epyc,
    scaled_gcc,
    scaled_llvm,
    scaled_mpc,
    scaled_skylake,
)
from repro.campaign import (
    CampaignResult,
    ExperimentSpec,
    run_campaign,
    run_experiment,
)
from repro.profiler import breakdown_of, comm_metrics, gantt_of
from repro.verify import verify_cluster, verify_program

__all__ = [
    "__version__",
    "CommKind",
    "CommSpec",
    "DepMode",
    "OptimizationSet",
    "Program",
    "ProgramBuilder",
    "TaskSpec",
    "ThrottleConfig",
    "DeadlockError",
    "ParallelForRuntime",
    "RunResult",
    "RuntimeConfig",
    "TaskRuntime",
    "presets",
    "MachineSpec",
    "epyc_7763_numa",
    "skylake_8168",
    "NetworkSpec",
    "bxi_like",
    "Cluster",
    "RankGrid",
    "run_spmd",
    "LuleshConfig",
    "HpcgConfig",
    "CholeskyConfig",
    "metg",
    "run_spec_sweep",
    "scaled_epyc",
    "scaled_gcc",
    "scaled_llvm",
    "scaled_mpc",
    "scaled_skylake",
    "CampaignResult",
    "ExperimentSpec",
    "run_campaign",
    "run_experiment",
    "breakdown_of",
    "comm_metrics",
    "gantt_of",
    "verify_cluster",
    "verify_program",
]
