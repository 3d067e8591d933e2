"""CLI smoke and behavior tests (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        for cmd in ("lulesh", "hpcg", "cholesky", "sweep", "validate", "info"):
            args = p.parse_args([cmd] if cmd in ("validate", "info") else [cmd])
            assert callable(args.fn)

    def test_bad_machine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["lulesh", "--machine", "cray-1", "-s", "8", "-i", "1", "--tpl", "4"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "skylake" in out
        assert "discovery costs" in out

    def test_lulesh_single_rank(self, capsys):
        rc = main(["lulesh", "-s", "16", "-i", "2", "--tpl", "16",
                   "--machine", "tiny", "--threads", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tasks=" in out
        assert "work=" in out

    def test_lulesh_cluster(self, capsys):
        rc = main(["lulesh", "-s", "12", "-i", "2", "--tpl", "8",
                   "--ranks", "8", "--threads", "4", "--machine", "scaled-epyc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster makespan" in out
        assert "ratio" in out

    def test_hpcg(self, capsys):
        rc = main(["hpcg", "--rows", "4096", "-i", "2", "--tpl", "8",
                   "--machine", "tiny", "--threads", "4"])
        assert rc == 0
        assert "grain=" in capsys.readouterr().out

    def test_cholesky(self, capsys):
        rc = main(["cholesky", "-n", "512", "-b", "128", "-i", "2",
                   "--machine", "tiny", "--threads", "4"])
        assert rc == 0
        assert "per factorization" in capsys.readouterr().out

    def test_sweep(self, capsys):
        rc = main(["sweep", "-s", "12", "-i", "2", "--tpl-min", "4",
                   "--tpl-max", "32", "--points", "3", "--machine", "tiny",
                   "--threads", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best TPL=" in out
        assert "TPL sweep" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_with_opts(self, capsys):
        assert main(["validate", "--opts", "b"]) == 0


class TestCampaignCommand:
    @staticmethod
    def specfile(tmp_path, tpls=(2, 4)):
        from repro.campaign import ExperimentSpec, dump_specs
        from repro.memory.machine import tiny_test_machine
        from repro.runtime import presets

        base = ExperimentSpec(
            app="lulesh",
            config=presets.mpc_omp(tiny_test_machine(4), n_threads=4),
            params={"s": 8, "iterations": 1, "tpl": tpls[0]},
        )
        path = tmp_path / "specs.json"
        path.write_text(dump_specs([base.with_params(tpl=t) for t in tpls]))
        return path

    def test_example_is_loadable(self, capsys):
        from repro.campaign import load_specs

        assert main(["campaign", "--example"]) == 0
        specs = load_specs(capsys.readouterr().out)
        assert len(specs) == 9
        assert all(s.app == "lulesh" for s in specs)
        # The example exercises the whole fidelity ladder.
        assert {s.fidelity for s in specs} == {"des", "replay", "analytic"}

    def test_specfile_required(self, capsys):
        assert main(["campaign"]) == 2
        assert "SPECFILE" in capsys.readouterr().err

    def test_run_then_cached(self, tmp_path, capsys):
        path = self.specfile(tmp_path)
        cache = tmp_path / "cache"
        rc = main(["campaign", str(path), "--cache-dir", str(cache), "--json"])
        assert rc == 0
        first = json.loads(capsys.readouterr().out)
        assert first["n_executed"] == 2
        assert first["n_failed"] == 0

        rc = main(["campaign", str(path), "--cache-dir", str(cache), "--json"])
        assert rc == 0
        second = json.loads(capsys.readouterr().out)
        assert second["n_cached"] == 2
        assert second["n_executed"] == 0
        # same runs, same content keys, same makespans
        assert [r["key"] for r in first["runs"]] == [r["key"] for r in second["runs"]]
        assert [r["makespan"] for r in first["runs"]] == \
            [r["makespan"] for r in second["runs"]]

    def test_table_output(self, tmp_path, capsys):
        path = self.specfile(tmp_path)
        rc = main(["campaign", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lulesh/task" in out
        assert "2 runs" in out

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        path = self.specfile(tmp_path)
        cache = tmp_path / "cache"
        main(["campaign", str(path), "--cache-dir", str(cache), "--json"])
        a = capsys.readouterr().out
        main(["campaign", str(path), "--cache-dir", str(cache), "--json"])
        b = capsys.readouterr().out
        da, db = json.loads(a), json.loads(b)
        da["n_cached"] = db["n_cached"] = None
        da["n_executed"] = db["n_executed"] = None
        for run in da["runs"] + db["runs"]:
            run["cached"] = run["attempts"] = None
        assert da == db


class TestSweepJobs:
    def test_sweep_with_jobs_and_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["sweep", "-s", "12", "-i", "2", "--tpl-min", "4",
                "--tpl-max", "16", "--points", "3", "--machine", "tiny",
                "--threads", "4", "--jobs", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "best TPL=" in out
        # One store row per point, plus one compiled-graph artifact per
        # distinct program structure (3 TPLs) under compiled/; no result
        # lands as a JSON file.
        from repro.db import open_store

        assert len(open_store(cache)) == 3
        results = [p for p in cache.rglob("*.json")
                   if "compiled" not in p.parts]
        compiled = [p for p in cache.rglob("*.json") if "compiled" in p.parts]
        assert results == []
        assert len(compiled) == 3


class TestLintJsonDeterminism:
    def test_lint_json_is_byte_identical_across_runs(self, capsys):
        argv = ["lint", "lulesh", "-s", "8", "-i", "2", "--tpl", "4",
                "--machine", "tiny", "--threads", "4", "--json"]
        main(argv)
        a = capsys.readouterr().out
        main(argv)
        b = capsys.readouterr().out
        assert a == b
        doc = json.loads(a)
        # findings arrive sorted: severity desc, then rule name
        sevs = [f["severity"] for f in doc["findings"]]
        assert sevs == sorted(sevs, reverse=True)


class TestOffloadFlag:
    def test_lulesh_offload(self, capsys):
        from repro.cli import main

        rc = main(["lulesh", "-s", "12", "-i", "2", "--tpl", "8",
                   "--machine", "tiny", "--threads", "4", "--offload"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accelerator:" in out
        assert "stream" in out


class TestQueryCommand:
    def _build(self, tmp_path):
        """A store holding one tiny two-spec campaign under id ``c1``."""
        from repro.campaign.spec import ExperimentSpec, dump_specs
        from repro.memory.machine import tiny_test_machine
        from repro.runtime import presets

        base = ExperimentSpec(
            app="lulesh",
            config=presets.mpc_omp(tiny_test_machine(4), n_threads=4),
            params={"s": 8, "iterations": 1, "tpl": 4},
        )
        specfile = tmp_path / "specs.json"
        specfile.write_text(dump_specs([base, base.with_params(tpl=8)]))
        store = tmp_path / "store.sqlite"
        assert main(["campaign", str(specfile), "--db", str(store),
                     "--campaign-id", "c1", "--json"]) == 0
        return specfile, store

    def test_campaign_db_then_resume_zero_rows(self, tmp_path, capsys):
        from repro.db import CampaignDB

        specfile, store = self._build(tmp_path)
        capsys.readouterr()
        with CampaignDB(store) as db:
            before = db.table_counts()
        assert main(["campaign", str(specfile), "--db", str(store),
                     "--campaign-id", "c1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_cached"] == 2 and out["n_executed"] == 0
        with CampaignDB(store) as db:
            assert db.table_counts() == before

    def test_db_and_cache_dir_conflict(self, tmp_path, capsys):
        specfile, store = self._build(tmp_path)
        rc = main(["campaign", str(specfile), "--db", str(store),
                   "--cache-dir", str(tmp_path / "c")])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_runs_report_table(self, tmp_path, capsys):
        _, store = self._build(tmp_path)
        capsys.readouterr()
        assert main(["query", str(store)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "c1" in out
        assert "2 row(s)" in out

    def test_sql_passthrough_json(self, tmp_path, capsys):
        _, store = self._build(tmp_path)
        capsys.readouterr()
        assert main(["query", str(store), "--sql",
                     "SELECT COUNT(*) AS n FROM runs", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["n"] and doc["rows"] == [[2]]

    def test_sql_writes_rejected(self, tmp_path, capsys):
        _, store = self._build(tmp_path)
        capsys.readouterr()
        rc = main(["query", str(store), "--sql", "DELETE FROM runs"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_store_is_error_not_traceback(self, tmp_path, capsys):
        rc = main(["query", str(tmp_path / "nope.sqlite")])
        assert rc == 2
        assert "no such store" in capsys.readouterr().err

    def test_pair_report_requires_a_and_b(self, tmp_path, capsys):
        _, store = self._build(tmp_path)
        capsys.readouterr()
        rc = main(["query", str(store), "discovery-regressions"])
        assert rc == 2
        assert "--a" in capsys.readouterr().err

    def test_profile_db_streams_trace(self, tmp_path, capsys):
        from repro.db import CampaignDB

        store = tmp_path / "store.sqlite"
        rc = main(["profile", "lulesh", "-s", "8", "-i", "1", "--tpl", "4",
                   "--machine", "tiny", "--threads", "2",
                   "--db", str(store)])
        assert rc == 0
        assert str(store) in capsys.readouterr().out
        with CampaignDB(store) as db:
            counts = db.table_counts()
        assert counts["spans"] > 0 and counts["runs"] == 1
        capsys.readouterr()
        assert main(["query", str(store), "top-critical-tasks"]) == 0
        assert "seconds" in capsys.readouterr().out

    def test_info_reports_db_schema(self, capsys):
        from repro.db import SCHEMA_VERSION, table_inventory

        assert main(["info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["db"]["schema_version"] == SCHEMA_VERSION
        assert doc["db"]["tables"] == table_inventory()
        assert main(["info"]) == 0
        assert "repro.db" in capsys.readouterr().out


class TestMetricsCommand:
    def _build(self, tmp_path, campaign="m1", snapshot_every="1"):
        """A store with persisted metric snapshots from a tiny campaign."""
        specfile = TestCampaignCommand.specfile(tmp_path)
        store = tmp_path / "store.sqlite"
        argv = ["campaign", str(specfile), "--db", str(store),
                "--campaign-id", campaign, "--json"]
        if snapshot_every:
            argv += ["--snapshot-every", snapshot_every]
        assert main(argv) == 0
        return specfile, store

    def test_export_validates_as_exposition(self, tmp_path, capsys):
        from repro.metrics.prometheus import validate_exposition

        _, store = self._build(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "export", str(store)]) == 0
        text = capsys.readouterr().out
        fams = validate_exposition(text)
        assert fams["repro_campaign_runs_total"]["type"] == "counter"
        assert fams["repro_campaign_makespan_seconds"]["type"] == "histogram"
        # volatile wall-clock families never reach the export
        assert "repro_campaign_eta_seconds" not in fams
        assert "repro_campaign_run_wall_seconds" not in fams

    def test_export_to_file(self, tmp_path, capsys):
        _, store = self._build(tmp_path)
        out = tmp_path / "metrics.prom"
        assert main(["metrics", "export", str(store), "-o", str(out)]) == 0
        assert "repro_campaign_specs 2" in out.read_text()

    def test_export_snapshot_selection(self, tmp_path, capsys):
        _, store = self._build(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "export", str(store), "--snapshot", "1"]) == 0
        first = capsys.readouterr().out
        # after one settled run, exactly one run event has fired
        assert 'repro_campaign_runs_total{event="done"} 1' in first
        assert main(["metrics", "export", str(store), "--snapshot", "2"]) == 0
        assert 'repro_campaign_runs_total{event="done"} 2' \
            in capsys.readouterr().out

    def test_export_identical_campaigns_byte_identical(self, tmp_path, capsys):
        exports = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            _, store = self._build(d)
            capsys.readouterr()
            assert main(["metrics", "export", str(store)]) == 0
            exports.append(capsys.readouterr().out)
        assert exports[0] == exports[1]

    def test_empty_store_is_error_not_traceback(self, tmp_path, capsys):
        from repro.db import CampaignDB

        store = tmp_path / "empty.sqlite"
        with CampaignDB(store) as db:
            db.conn
        rc = main(["metrics", "export", str(store)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_serve_scrape_round_trip(self, tmp_path, capsys):
        import socket
        import threading
        import time as _time
        import urllib.request

        _, store = self._build(tmp_path)
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        t = threading.Thread(
            target=main,
            args=(["metrics", "serve", str(store), "--port", str(port)],),
            daemon=True,
        )
        t.start()
        body = None
        for _ in range(50):
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=1
                ) as resp:
                    assert resp.headers["Content-Type"].startswith(
                        "text/plain; version=0.0.4"
                    )
                    body = resp.read().decode()
                break
            except OSError:
                _time.sleep(0.05)
        assert body is not None and "repro_campaign_specs 2" in body

    def test_campaign_live_writes_status_to_stderr(self, tmp_path, capsys):
        specfile = TestCampaignCommand.specfile(tmp_path)
        rc = main(["campaign", str(specfile), "--live",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "2/2" in err
        assert "hit" in err and "busy" in err

    def test_resume_with_metrics_adds_no_result_rows(self, tmp_path, capsys):
        from repro.db import CampaignDB

        specfile, store = self._build(tmp_path)
        capsys.readouterr()
        with CampaignDB(store) as db:
            before = db.table_counts()
        assert main(["campaign", str(specfile), "--db", str(store),
                     "--campaign-id", "m1", "--snapshot-every", "1",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_cached"] == 2 and out["n_executed"] == 0
        with CampaignDB(store) as db:
            after = db.table_counts()
        # resume rewrites the same metric snapshot ids in place (REPLACE
        # on the same keys) and adds nothing anywhere else
        assert after == before


class TestReportCommand:
    def test_report_renders_store(self, tmp_path, capsys):
        specfile = TestCampaignCommand.specfile(tmp_path)
        store = tmp_path / "store.sqlite"
        assert main(["campaign", str(specfile), "--db", str(store),
                     "--campaign-id", "r1", "--json"]) == 0
        out = tmp_path / "report.html"
        capsys.readouterr()
        assert main(["report", str(store), "-o", str(out)]) == 0
        assert str(out) in capsys.readouterr().err
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "makespan sweep" in text
        assert "Campaign report" in text

    def test_missing_store_is_error_not_traceback(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.sqlite"),
                   "-o", str(tmp_path / "r.html")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestInfoHookCatalogue:
    def test_campaign_hooks_in_json(self, capsys):
        from repro.campaign.bus import HOOKS

        assert main(["info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["campaign_hooks"]) == set(HOOKS)
        for entry in doc["campaign_hooks"].values():
            assert entry["signature"].startswith("(")
            assert entry["description"]

    def test_campaign_hooks_in_text(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "campaign bus hooks" in out
        assert "run_cached" in out and "campaign_done" in out
