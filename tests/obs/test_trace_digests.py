"""Traced results serialize byte-for-byte as they always have.

``fixtures/traced_digests.json`` holds sha256 digests of
``canonical_json(RunResult.to_dict())`` for traced runs on the task
engine, through a 2-rank cluster spec, and for both ranks of a coupled
ping-pong; they were generated when the task trace still had its own
recorder class.  The span columns that ``TraceRecorder`` serializes as
``RunResult.trace`` must reproduce them exactly — the result-store keys
and byte-identical resume depend on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.cluster.cluster import Cluster
from repro.memory.machine import tiny_test_machine
from repro.runtime import RunResult, presets
from repro.sim import SimContext
from repro.util.serde import canonical_json
from tests.sim.test_determinism import cfg as det_cfg
from tests.sim.test_determinism import pingpong

DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "traced_digests.json").read_text()
)


def cfg(opts):
    config = presets.mpc_omp(tiny_test_machine(4), n_threads=4, opts=opts)
    return replace(config, trace=True)


SPECS = {
    "lulesh-abcp": ExperimentSpec(
        app="lulesh", config=cfg("abcp"),
        params={"s": 6, "iterations": 2, "tpl": 4},
    ),
    "lulesh-abc": ExperimentSpec(
        app="lulesh", config=cfg("abc"),
        params={"s": 6, "iterations": 2, "tpl": 4},
    ),
    "hpcg-abcp": ExperimentSpec(
        app="hpcg", config=cfg("abcp"),
        params={"n_rows": 2048, "iterations": 2, "tpl": 4},
    ),
    "cholesky-abc": ExperimentSpec(
        app="cholesky", config=cfg("abc"), params={"n": 256, "b": 64},
    ),
    "cholesky-2rank": ExperimentSpec(
        app="cholesky", config=cfg("abc"),
        params={"n": 256, "b": 64, "pr": 2, "pc": 1}, ranks=2,
    ),
}


def digest(result: RunResult) -> str:
    return hashlib.sha256(
        canonical_json(result.to_dict()).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_traced_spec_digest(name):
    result = run_experiment(SPECS[name])
    assert result.trace is not None and result.trace.n_spans > 0
    assert digest(result) == DIGESTS[name]


def test_coupled_pingpong_digests():
    res = Cluster(2, ctx=SimContext(seed=7)).run(
        [pingpong(0), pingpong(1)], [det_cfg(trace=True), det_cfg(trace=True)]
    )
    for rank, result in enumerate(res.results):
        assert digest(result) == DIGESTS[f"pingpong-rank{rank}"]


@pytest.mark.parametrize("name", ["lulesh-abcp", "cholesky-2rank"])
def test_document_round_trips(name):
    result = run_experiment(SPECS[name])
    doc = canonical_json(result.to_dict())
    assert canonical_json(RunResult.from_dict(json.loads(doc)).to_dict()) == doc
