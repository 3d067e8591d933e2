"""Minimum Effective Task Granularity (Slaughter et al. [12], §3.3).

For a given application and runtime, METG(X%) is the smallest average task
grain at which an execution still reaches X% of the best performance
measured on *any* runtime under comparison.  The paper reports
METG(95%) = 65 us for LULESH with MPC-OMP — 1.5 orders of magnitude below
the best OpenMP METG reported in Task Bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.sweep import Sweep

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path
    from typing import Union

    from repro.campaign.spec import ExperimentSpec
    from repro.db.store import DbResultStore


@dataclass(frozen=True, slots=True)
class MetgResult:
    """METG computed from one runtime's sweep against a global best."""

    runtime: str
    efficiency: float
    #: The METG itself (seconds), or None if no point qualifies.
    metg: Optional[float]
    #: The qualifying point's TPL, or None.
    tpl: Optional[int]
    #: Best total time across all runtimes (the 100% reference).
    best_total: float

    def __str__(self) -> str:
        if self.metg is None:
            return (
                f"METG({100 * self.efficiency:.0f}%) [{self.runtime}]: "
                f"not reached (best total {self.best_total:.4f}s)"
            )
        return (
            f"METG({100 * self.efficiency:.0f}%) [{self.runtime}] = "
            f"{self.metg * 1e6:.1f}us at TPL={self.tpl}"
        )


def metg(
    sweeps: dict[str, Sweep],
    *,
    efficiency: float = 0.95,
) -> dict[str, MetgResult]:
    """Compute METG(efficiency) per runtime from TPL sweeps.

    The 100% performance reference is the best total time over every sweep
    of every runtime, per the Task Bench definition.
    """
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    if not sweeps:
        raise ValueError("need at least one sweep")
    best_total = min(p.total for sw in sweeps.values() for p in sw.points)
    out: dict[str, MetgResult] = {}
    for name, sw in sweeps.items():
        qualifying = [
            p for p in sw.points if p.total > 0 and best_total / p.total >= efficiency
        ]
        if qualifying:
            p = min(qualifying, key=lambda p: p.grain)
            out[name] = MetgResult(name, efficiency, p.grain, p.tpl, best_total)
        else:
            out[name] = MetgResult(name, efficiency, None, None, best_total)
    return out


def metg_from_db(
    db,
    *,
    efficiency: float = 0.95,
    campaign: Optional[str] = None,
    param: str = "tpl",
) -> dict[str, MetgResult]:
    """Compute METG per runtime config from stored campaign runs.

    ``db`` is a :class:`repro.db.CampaignDB`.  Each ``config_name`` in
    the selected rows is one runtime under comparison (the sweeps of
    :func:`run_metg_study`); total time and grain come straight from the
    ``runs`` columns (``makespan``, ``work_total / n_tasks``) — the
    result documents are never parsed.
    """
    import json as _json

    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    where, args = "", []
    if campaign is not None:
        where, args = "AND r.campaign = ? ", [campaign]
    _, rows = db.query(
        "SELECT s.config_name, s.params, r.makespan, "
        "r.work_total * 1.0 / r.n_tasks AS grain "
        "FROM runs r JOIN specs s ON s.key = r.key "
        f"WHERE r.n_tasks > 0 {where}ORDER BY s.config_name, r.key",
        args,
    )
    by_config: dict[str, list[tuple[float, float, int]]] = {}
    for config_name, params_json, total, grain in rows:
        params = _json.loads(params_json)
        if param not in params:
            continue
        by_config.setdefault(config_name, []).append(
            (total, grain, int(params[param]))
        )
    if not by_config:
        raise ValueError("store holds no swept runs matching the filters")
    best_total = min(t for pts in by_config.values() for t, _, _ in pts)
    out: dict[str, MetgResult] = {}
    for name in sorted(by_config):
        qualifying = [
            (total, grain, tpl)
            for total, grain, tpl in by_config[name]
            if total > 0 and best_total / total >= efficiency
        ]
        if qualifying:
            total, grain, tpl = min(qualifying, key=lambda p: p[1])
            out[name] = MetgResult(name, efficiency, grain, tpl, best_total)
        else:
            out[name] = MetgResult(name, efficiency, None, None, best_total)
    return out


def run_metg_study(
    bases: "dict[str, ExperimentSpec]",
    tpls: Sequence[int],
    *,
    efficiency: float = 0.95,
    jobs: int = 1,
    cache: "Union[DbResultStore, str, Path, None]" = None,
    fidelity: "Optional[str]" = None,
) -> dict[str, MetgResult]:
    """Sweep every runtime's base spec over ``tpls`` and compute METG.

    ``bases`` maps runtime labels (e.g. preset names) to base specs; each
    is swept through the campaign engine (shared ``cache``/``jobs``), then
    :func:`metg` scores them against the global best.  ``fidelity``
    selects the simulation tier for every sweep point — METG needs dense
    TPL ladders, exactly what the ``replay`` tier makes affordable.
    """
    from repro.analysis.sweep import run_spec_sweep

    sweeps = {
        name: run_spec_sweep(base, tpls, jobs=jobs, cache=cache,
                             fidelity=fidelity)
        for name, base in bases.items()
    }
    return metg(sweeps, efficiency=efficiency)
