"""Output checks, the DES reference file and the per-workload digest.

The reference file maps a DES spec key to its makespan.  It covers every
spec any benchmark seed can generate (:func:`reference_pool`), so every
seed's DES makespans are checked against stored values; a key the file
lacks is simulated untimed before the check.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional

import workloads
from repro.api import run_experiment

REFERENCE = Path(__file__).resolve().parent / "reference_des.json"

#: Relative slack on analytic bracketing (float summation order), as in
#: the golden cross-check.
BRACKET_SLACK = 1e-9

#: Executed specs a run needs before its p90 is reported: at least ten
#: samples then lie beyond the 90th percentile.
P90_MIN_SAMPLES = 100


# ----------------------------------------------------------------------
# reference makespans
# ----------------------------------------------------------------------
def reference_pool() -> list:
    """Every DES spec a benchmark seed can generate or strip down to."""
    bases = workloads.family() + workloads.profile_bases()
    return [
        replace(s, seed=k) for s in bases for k in range(workloads.SPEC_SEEDS)
    ]


def load_reference(path: Path = REFERENCE) -> dict[str, float]:
    with open(path) as fh:
        return dict(json.load(fh)["makespans"])


def write_reference(path: Path = REFERENCE) -> int:
    """Simulate the whole pool at the DES tier and store its makespans."""
    makespans = {}
    for spec in reference_pool():
        makespans[spec.key] = run_experiment(spec).makespan
    with open(path, "w") as fh:
        json.dump({"makespans": dict(sorted(makespans.items()))}, fh, indent=0)
        fh.write("\n")
    return len(makespans)


def des_key(spec) -> str:
    """The reference key of a spec: fidelity and tracing stripped."""
    if spec.config.trace:
        spec = replace(spec, config=replace(spec.config, trace=False))
    return spec.with_fidelity("des").key


def complete_reference(reference: dict[str, float], specs: Iterable) -> int:
    """Simulate (untimed) every spec whose DES key the reference lacks."""
    missing = {}
    for spec in specs:
        key = des_key(spec)
        if key not in reference:
            missing[key] = spec.with_fidelity("des")
    for key, spec in missing.items():
        reference[key] = run_experiment(spec).makespan
    return len(missing)


# ----------------------------------------------------------------------
# per-workload checks
# ----------------------------------------------------------------------
def sim_digest(rows: Iterable[tuple]) -> str:
    """sha256 over sorted ``(spec key, makespan, lower, upper)`` rows."""
    h = hashlib.sha256()
    for key, makespan, lower, upper in sorted(rows):
        h.update(f"{key} {makespan!r} {lower!r} {upper!r}\n".encode())
    return h.hexdigest()


def result_row(spec, result) -> tuple:
    bounds = result.extra.get("bounds") or {}
    return (
        spec.key,
        result.makespan,
        bounds.get("makespan_lower"),
        bounds.get("makespan_upper"),
    )


def check_des(pairs, reference: dict[str, float]) -> list[str]:
    """Every DES makespan equals the reference bit for bit."""
    bad = []
    for spec, result in pairs:
        want = reference[des_key(spec)]
        if result.makespan != want:
            bad.append(
                f"{spec.label} seed={spec.seed}: makespan "
                f"{result.makespan!r} != reference {want!r}"
            )
    return bad


def brackets(lower: float, value: float, upper: float) -> bool:
    return (
        lower <= value * (1 + BRACKET_SLACK)
        and value * (1 - BRACKET_SLACK) <= upper
    )


def check_ladder(pairs, reference: dict[str, float]) -> tuple[list[str], float]:
    """Analytic brackets replay per base spec; max replay error vs DES.

    Returns the violations and ``max |replay - DES| / DES`` over the
    replay results.
    """
    replay: dict[str, tuple] = {}
    analytic: dict[str, tuple] = {}
    for spec, result in pairs:
        side = replay if spec.fidelity == "replay" else analytic
        side[des_key(spec)] = (spec, result)
    bad = []
    worst = 0.0
    for key, (spec, rep) in sorted(replay.items()):
        des = reference[key]
        worst = max(worst, abs(rep.makespan - des) / des)
        if key not in analytic:
            bad.append(f"{spec.label}: no analytic result beside replay")
            continue
        b = analytic[key][1].extra["bounds"]
        lo, hi = b["makespan_lower"], b["makespan_upper"]
        if not brackets(lo, rep.makespan, hi):
            bad.append(
                f"{spec.label} seed={spec.seed}: analytic "
                f"[{lo!r}, {hi!r}] does not bracket replay {rep.makespan!r}"
            )
    for key, (spec, _) in sorted(analytic.items()):
        if key not in replay:
            bad.append(f"{spec.label}: no replay result beside analytic")
    return bad, worst


# ----------------------------------------------------------------------
# summary statistics
# ----------------------------------------------------------------------
def p90(samples: list[float]) -> Optional[float]:
    """The 90th percentile, or None below :data:`P90_MIN_SAMPLES`."""
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[8]
