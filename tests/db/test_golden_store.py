"""Acceptance gate: the golden campaign through the result store.

The 19-spec golden set (``repro.campaign.crosscheck.golden_specs``) runs
once in-process with no result store and no compiled-graph cache (the
reference) and once into a ``DbResultStore`` (whose directory also holds
the campaign's compiled cache); executed results and store hits must both be
bit-identical to the reference, a resume must add no rows, and the SQL
rows must mirror the result documents they were derived from.
"""

from __future__ import annotations

import pytest

from repro.campaign.crosscheck import golden_specs
from repro.campaign.engine import run_campaign
from repro.campaign.runner import run_experiment
from repro.db import CampaignDB, DbResultStore
from repro.util.serde import canonical_json


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    specs = golden_specs()
    reference = [run_experiment(s) for s in specs]
    db_out = run_campaign(specs, store=root / "store.sqlite", campaign="g")
    assert db_out.ok and db_out.n_executed == len(specs)
    return root, specs, reference, db_out


def docs(results):
    return [canonical_json(r.to_dict()) for r in results]


class TestGoldenStoreParity:
    def test_executed_results_bitwise_equal(self, golden):
        _, _, reference, db_out = golden
        assert docs(db_out.results) == docs(reference)

    def test_cache_hits_bitwise_equal_across_backends(self, golden):
        # The two result paths: the store's hits and the store-less run.
        root, specs, reference, _ = golden
        store = DbResultStore(root / "store.sqlite")
        hits = [store.get(spec) for spec in specs]
        assert all(hit is not None for hit in hits)
        assert docs(hits) == docs(reference)

    def test_resume_is_all_hits_and_adds_no_rows(self, golden):
        root, specs, _, _ = golden
        path = root / "store.sqlite"
        with CampaignDB(path) as db:
            before = db.table_counts()
        out = run_campaign(specs, store=path, campaign="g")
        assert out.n_cached == len(specs) and out.n_executed == 0
        with CampaignDB(path) as db:
            assert db.table_counts() == before

    def test_rows_mirror_result_docs(self, golden):
        root, specs, _, db_out = golden
        with CampaignDB(root / "store.sqlite") as db:
            _, rows = db.query(
                "SELECT key, makespan, discovery_busy, n_tasks FROM runs "
                "ORDER BY key")
        by_key = {rec.spec.key: rec.result for rec in db_out.records}
        assert sorted(by_key) == [r[0] for r in rows]
        for key, makespan, discovery, n_tasks in rows:
            res = by_key[key]
            assert makespan == res.makespan
            assert discovery == res.discovery_busy
            assert n_tasks == res.n_tasks
