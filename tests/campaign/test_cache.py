"""The campaign result store: content-addressed entries, error records.

``open_store(directory)`` is what ``--cache-dir`` and the campaign engine
use; every result lands in ``<directory>/campaign.sqlite``.
"""

from __future__ import annotations

import json

from repro.campaign.runner import run_experiment
from repro.campaign.spec import ExperimentSpec
from repro.db import STORE_FILENAME, CampaignDB, DbResultStore, open_store
from repro.db.schema import SCHEMA_VERSION
from repro.memory.machine import tiny_test_machine
from repro.runtime import presets
from repro.util.serde import canonical_json

CFG = presets.mpc_omp(tiny_test_machine(4), n_threads=4)


def spec(**kw) -> ExperimentSpec:
    kw.setdefault("app", "lulesh")
    kw.setdefault("config", CFG)
    kw.setdefault("params", {"s": 6, "iterations": 1, "tpl": 2})
    return ExperimentSpec(**kw)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = open_store(tmp_path)
        assert isinstance(cache, DbResultStore)
        assert cache.db.path == tmp_path / STORE_FILENAME
        s = spec()
        assert cache.get(s) is None
        assert not cache.contains(s)
        res = run_experiment(s)
        cache.put(s, res)
        assert cache.contains(s)
        got = cache.get(s)
        assert got is not None
        # the stored result round-trips bitwise
        assert canonical_json(got.to_dict()) == canonical_json(res.to_dict())

    def test_len_and_keys(self, tmp_path):
        cache = open_store(tmp_path)
        assert len(cache) == 0
        specs = [spec(seed=i) for i in range(3)]
        for s in specs:
            cache.put(s, run_experiment(s))
        assert len(cache) == 3
        assert cache.keys() == sorted(s.key for s in specs)

    def test_format_mismatch_is_a_miss(self, tmp_path):
        cache = open_store(tmp_path)
        s = spec()
        cache.put(s, run_experiment(s))
        cache.db.close()
        with CampaignDB(cache.db.path) as db:
            db.conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        reopened = open_store(tmp_path)
        assert reopened.get(s) is None
        assert not reopened.contains(s)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        (tmp_path / STORE_FILENAME).write_text("{not a store")
        cache = open_store(tmp_path)
        s = spec()
        assert cache.get(s) is None
        assert cache.get_error(s) is None

    def test_error_records(self, tmp_path):
        cache = open_store(tmp_path)
        s = spec()
        assert cache.get_error(s) is None
        cache.put_error(s, "Traceback: boom")
        assert "boom" in cache.get_error(s)
        # a later success supersedes the failure record
        cache.put(s, run_experiment(s))
        assert cache.get_error(s) is None
        assert cache.get(s) is not None

    def test_entry_is_canonical_json(self, tmp_path):
        cache = open_store(tmp_path)
        s = spec()
        res = run_experiment(s)
        cache.put(s, res)
        (spec_doc, run_doc), = cache.db.read.execute(
            "SELECT s.doc, r.doc FROM specs s JOIN runs r ON r.key = s.key "
            "WHERE s.key = ?", (s.key,)
        ).fetchall()
        assert run_doc == canonical_json(res.to_dict())
        assert json.loads(spec_doc) == s.to_dict()
