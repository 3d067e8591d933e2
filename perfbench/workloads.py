"""Seeded spec generation for the campaign benchmark's workloads.

Every workload draws from one fixed *family* of base specs (see
:func:`family`): a LULESH TPL ladder across the runtime configs, HPCG
and Cholesky grains, the fork-join baseline and a few small multi-rank
runs.  The benchmark seed never changes the shape of the work, only
which of :data:`SPEC_SEEDS` simulation seeds each base spec runs with
and, for campaigns, the order the specs are submitted in.  So every seed
gives the same amount of work (steady timings across seeds) while the
spec keys, and therefore every cache and store entry, differ between
seeds.

Because the family and the seed range are finite, the DES reference
file covers every spec any benchmark seed can generate.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.analysis.calibration import scaled_gcc, scaled_llvm, scaled_mpc
from repro.api import ExperimentSpec

#: Simulation seeds a benchmark seed picks from, per base spec.
SPEC_SEEDS = 4

#: The runtime configs every single-rank base spec runs on.
CONFIGS = {
    "mpc-abcp": lambda: scaled_mpc(opts="abcp"),
    "mpc-abc": lambda: scaled_mpc(opts="abc"),
    "mpc-none": lambda: scaled_mpc(opts=""),
    "llvm": scaled_llvm,
    "gcc": scaled_gcc,
}


def family() -> list[ExperimentSpec]:
    """The base specs (simulation seed 0), in a fixed order."""
    cfgs = {name: make() for name, make in CONFIGS.items()}
    specs: list[ExperimentSpec] = []

    def add(app, params, cfg, engine="task", ranks=1):
        specs.append(
            ExperimentSpec(
                app=app, config=cfg, params=params, engine=engine, ranks=ranks
            )
        )

    for cfg in cfgs.values():
        for tpl in (8, 16, 32, 64):
            add("lulesh", {"s": 12, "iterations": 2, "tpl": tpl}, cfg)
        for tpl in (8, 16, 32):
            add("hpcg", {"n_rows": 4096, "iterations": 2, "tpl": tpl}, cfg)
        for tpl in (8, 16, 32, 64):
            add("hpcg", {"n_rows": 8192, "iterations": 2, "tpl": tpl}, cfg)
        for tpl in (16, 32):
            add("hpcg", {"n_rows": 16384, "iterations": 2, "tpl": tpl}, cfg)
        for n, b in ((512, 64), (512, 128), (1024, 64), (1024, 128), (1024, 256)):
            add("cholesky", {"n": n, "b": b}, cfg)
    # The fork-join reference (Fig. 1's baseline) on the three runtimes.
    for name in ("mpc-abc", "llvm", "gcc"):
        cfg = cfgs[name]
        add("lulesh", {"s": 16, "iterations": 2, "tpl": 16}, cfg, engine="forloop")
        add("hpcg", {"n_rows": 8192, "iterations": 2, "tpl": 16}, cfg,
            engine="forloop")
    # A few small coupled runs: cluster + MPI under load.
    mpc = cfgs["mpc-abc"]
    add("lulesh", {"s": 8, "iterations": 2, "tpl": 8}, mpc, ranks=8)
    add("lulesh", {"s": 8, "iterations": 2, "tpl": 8}, cfgs["llvm"], ranks=8)
    add("hpcg", {"n_rows": 4096, "iterations": 2, "tpl": 8}, mpc, ranks=8)
    add("cholesky", {"n": 512, "b": 128, "pr": 2, "pc": 1}, mpc, ranks=2)
    add("cholesky", {"n": 512, "b": 128, "pr": 2, "pc": 2}, mpc, ranks=4)
    return specs


def _reseed(
    specs: list[ExperimentSpec], seed: int, shuffle: bool = True
) -> list[ExperimentSpec]:
    rng = random.Random(seed)
    out = [replace(s, seed=rng.randrange(SPEC_SEEDS)) for s in specs]
    if shuffle:
        rng.shuffle(out)
    return out


def des_sweep_specs(seed: int) -> list[ExperimentSpec]:
    """``des_sweep``: the whole family at the DES tier."""
    return _reseed(family(), seed)


def is_ladder_base(spec: ExperimentSpec) -> bool:
    """The cheap tiers take single-rank task specs only."""
    return spec.engine == "task" and spec.ranks == 1


def ladder_bases(seed: int) -> list[ExperimentSpec]:
    """The single-rank task subset of :func:`des_sweep_specs`."""
    return [s for s in des_sweep_specs(seed) if is_ladder_base(s)]


def ladder_specs(seed: int) -> list[ExperimentSpec]:
    """Every ladder base at ``replay``, then every one at ``analytic``.

    Replay goes first, so it compiles and stores each artifact; the
    analytic spec of the same base then resolves it through the alias
    index.
    """
    bases = ladder_bases(seed)
    return [b.with_fidelity("replay") for b in bases] + [
        b.with_fidelity("analytic") for b in bases
    ]


def resume_half(seed: int, n: int) -> list[int]:
    """Seed-chosen half of ``n`` ladder positions, pre-populated
    before the resumed ``jobs=2`` campaign runs."""
    rng = random.Random(f"resume-{seed}")
    return sorted(rng.sample(range(n), n // 2))


def profile_bases() -> list[ExperimentSpec]:
    """Single-rank task runs of ~1k to ~1.6k task spans, on two runtimes.

    Sizes grow along the list.  Each size runs on both runtimes, so the
    median per-spec wall of a pass (the mean of its 3rd and 4th) falls
    inside the middle size class rather than between two classes.
    """
    sizes = (
        ("lulesh", {"s": 12, "iterations": 2, "tpl": 16}),
        ("hpcg", {"n_rows": 8192, "iterations": 2, "tpl": 64}),
        ("lulesh", {"s": 12, "iterations": 2, "tpl": 24}),
    )
    cfgs = [CONFIGS[name]() for name in ("mpc-abc", "llvm")]
    return [
        ExperimentSpec(app=app, config=cfg, params=params)
        for app, params in sizes
        for cfg in cfgs
    ]


def profile_specs(seed: int) -> list[ExperimentSpec]:
    """``profile_store``: :func:`profile_bases`, reseeded, in their fixed
    order.

    Every ``store_profile`` scans the spans already stored, so a spec's
    cost depends on what was stored before it: the order stays fixed so
    that no seed changes the work.
    """
    return _reseed(profile_bases(), seed, shuffle=False)
