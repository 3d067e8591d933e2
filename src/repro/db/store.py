"""Campaign-scoped SQLite stores: results, traces, counters, findings.

:class:`CampaignDB` owns one store file and its two connections — a
buffered **write** connection (WAL journal, ``executemany`` batches via
:class:`~repro.db.writer.BufferedWriter`) and a lazily-opened
**read-only** query connection — the pyotter ``otter/db`` split that
lets analyses run against a store a campaign is still writing.

:class:`DbResultStore` is the campaign result store: ``get`` / ``put``
/ ``put_error`` keyed by the spec's sha256, so ``run_campaign`` keeps its
resume/dedup semantics and content-addressed keys while every result
lands as a queryable row.  :func:`open_store` opens it from a locator (a
store file, or a directory holding :data:`STORE_FILENAME`), which is how
``--cache-dir`` and campaign worker processes reach it.

:class:`TraceDbWriter` is the streaming sink a
:class:`~repro.obs.recorder.TraceRecorder` drains into mid-run; span,
barrier, comm and counter columns map 1:1 onto the ``repro.obs.trace``
v1 event fields (see :mod:`repro.db.schema`).
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.db.schema import (
    SCHEMA_VERSION,
    SchemaError,
    check_schema,
    columns_of,
    init_schema,
    insert_sql,
    stored_version,
)
from repro.db.writer import DEFAULT_BATCH, BufferedWriter
from repro.util.serde import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import ExperimentSpec
    from repro.obs.critical_path import CriticalPathResult
    from repro.obs.profile import ProfileReport
    from repro.obs.recorder import TraceRecorder
    from repro.runtime.result import RunResult

#: Store file name inside a campaign directory (``--cache-dir``).
STORE_FILENAME = "campaign.sqlite"

#: File suffixes :func:`open_store` treats as SQLite stores.
_DB_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Milliseconds a connection waits on a locked store before failing —
#: generous because campaign worker pools write concurrently.
_BUSY_TIMEOUT_MS = 30_000


def run_id(run: str) -> int:
    """The 60-bit integer id the trace tables use for a run key.

    Content-derived (a sha256 prefix), so the id is stable across
    processes and insertion orders — byte-identical dumps need nothing
    beyond the key itself.  ``trace_runs`` maps ids back to keys.  60
    bits keep the value well inside SQLite's signed 64-bit INTEGER while
    making collisions between the handful of runs a store holds
    vanishingly unlikely.
    """
    return int(hashlib.sha256(run.encode()).hexdigest()[:15], 16)


class CampaignDB:
    """One store file; write and read-only connections open lazily."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._read: Optional[sqlite3.Connection] = None

    # -- connections ----------------------------------------------------
    @property
    def conn(self) -> sqlite3.Connection:
        """The write connection (created on first use; WAL mode)."""
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, isolation_level=None)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            init_schema(conn)
            check_schema(conn)
            self._conn = conn
        return self._conn

    @property
    def read(self) -> sqlite3.Connection:
        """The read-only query connection (never writes, never migrates)."""
        if self._read is None:
            if not self.path.is_file():
                raise SchemaError(f"no such store: {self.path}")
            try:
                conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True,
                    isolation_level=None,
                )
                conn.execute("SELECT 1 FROM sqlite_master LIMIT 1")
            except sqlite3.OperationalError:
                # A live WAL writer can block pure read-only opens (no
                # -shm access); fall back to a write-capable handle
                # pinned read-only at the SQLite level.
                conn = sqlite3.connect(self.path, isolation_level=None)
                try:
                    conn.execute("PRAGMA query_only=ON")
                except sqlite3.DatabaseError as exc:
                    conn.close()
                    raise SchemaError(
                        f"not a repro.db store: {self.path}: {exc}"
                    ) from exc
            except sqlite3.DatabaseError as exc:
                raise SchemaError(
                    f"not a repro.db store: {self.path}: {exc}"
                ) from exc
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            schema, version = stored_version(conn)
            if schema != "repro.db" or version != SCHEMA_VERSION:
                conn.close()
                raise SchemaError(
                    f"store {self.path} has schema {schema!r} version "
                    f"{version}; this code reads repro.db version "
                    f"{SCHEMA_VERSION} (open for writing to migrate)"
                )
            self._read = conn
        return self._read

    def close(self) -> None:
        # Read connection first: only a writable last connection can
        # checkpoint the WAL and remove the -wal/-shm files.
        for conn in (self._read, self._conn):
            if conn is not None:
                conn.close()
        self._conn = self._read = None

    def __enter__(self) -> "CampaignDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- querying -------------------------------------------------------
    def query(
        self, sql: str, params: Sequence = ()
    ) -> tuple[list[str], list[tuple]]:
        """Run ``sql`` on the read-only connection.

        Returns ``(column_names, rows)`` — the shape every canned report
        and the ``repro query --sql`` passthrough emit.
        """
        cur = self.read.execute(sql, params)
        columns = [d[0] for d in cur.description] if cur.description else []
        return columns, cur.fetchall()

    def writer(self, table: str, *, batch: int = DEFAULT_BATCH) -> BufferedWriter:
        """A buffered batched writer for ``table`` on the write connection."""
        return BufferedWriter(self.conn, table, batch=batch)

    def table_counts(self) -> dict[str, int]:
        """Row count per table (deterministic key order)."""
        from repro.db.schema import TABLES

        out = {}
        for name in sorted(TABLES):
            (count,) = self.read.execute(
                f"SELECT COUNT(*) FROM {name}"
            ).fetchone()
            out[name] = int(count)
        return out

    def dump(self) -> str:
        """The full SQL dump — byte-identical for identical campaigns.

        ``WITHOUT ROWID`` tables dump rows in primary-key order, so the
        dump is independent of worker scheduling; nothing wall-clock is
        ever stored (schema rule), so it is stable across re-runs.
        """
        return "\n".join(self.conn.iterdump())


# ======================================================================
# result store
# ======================================================================
class DbResultStore:
    """Content-addressed result store backed by :class:`CampaignDB`.

    The interface the campaign engine drives (``contains``/``get``/
    ``put``/``put_error``/``get_error``/``keys``/``len``), keyed by the
    spec sha256, plus queryable ``specs``/``runs`` rows extracted from
    every result.  ``campaign`` tags rows so reports can compare two
    campaign ids in one store.
    """

    def __init__(
        self,
        path: Union[str, Path, CampaignDB],
        *,
        campaign: str = "",
    ) -> None:
        self.db = path if isinstance(path, CampaignDB) else CampaignDB(path)
        self.campaign = campaign

    # -- locator protocol (how worker processes reopen the store) -------
    @property
    def locator(self) -> str:
        return str(self.db.path)

    @property
    def root(self) -> Path:
        """Directory alongside the store file (compiled-TDG artifacts
        and other campaign-scoped files nest here, like a cache dir)."""
        return self.db.path.parent

    # -- result-store interface -----------------------------------------
    def contains(self, spec: "ExperimentSpec") -> bool:
        try:
            row = self.db.read.execute(
                "SELECT 1 FROM runs WHERE key = ?", (spec.key,)
            ).fetchone()
        except SchemaError:
            # A store nobody has written yet contains nothing.
            return False
        return row is not None

    def get(self, spec: "ExperimentSpec") -> Optional["RunResult"]:
        """The stored result for ``spec``, or None on miss."""
        return self.get_key(spec.key)

    def get_key(self, key: str) -> Optional["RunResult"]:
        """The stored result for a spec content key, or None."""
        from repro.runtime.result import RunResult

        try:
            row = self.db.read.execute(
                "SELECT doc FROM runs WHERE key = ?", (key,)
            ).fetchone()
        except SchemaError:
            return None
        if row is None:
            return None
        return RunResult.from_dict(json.loads(row[0]))

    def put(self, spec: "ExperimentSpec", result: "RunResult") -> Path:
        """Store spec + result rows in one transaction (the resume unit)."""
        extra = result.extra
        bounds = extra.get("bounds") or {}
        compiled = extra.get("compiled_tdg") or {}
        cache_hit = compiled.get("cache_hit")
        spec_row = (
            spec.key,
            spec.app,
            spec.engine,
            spec.fidelity,
            spec.ranks,
            spec.seed,
            spec.scale,
            spec.config.name,
            canonical_json(spec.params_dict),
            spec.to_json(),
        )
        run_row = (
            spec.key,
            self.campaign,
            result.name,
            extra.get("fidelity", spec.fidelity),
            result.makespan,
            result.discovery_busy,
            result.work_total,
            result.overhead_total,
            result.n_tasks,
            result.n_threads,
            result.edges.created,
            None if cache_hit is None else int(bool(cache_hit)),
            bounds.get("makespan_lower"),
            bounds.get("makespan_upper"),
            canonical_json(result.to_dict()),
        )
        conn = self.db.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(insert_sql("specs", replace=True), spec_row)
            conn.execute(insert_sql("runs", replace=True), run_row)
            # A fresh success supersedes any stale failure record.
            conn.execute("DELETE FROM errors WHERE key = ?", (spec.key,))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return self.db.path

    def put_error(self, spec: "ExperimentSpec", message: str) -> Path:
        conn = self.db.conn
        conn.execute(insert_sql("errors", replace=True), (spec.key, message))
        return self.db.path

    def get_error(self, spec: "ExperimentSpec") -> Optional[str]:
        try:
            row = self.db.read.execute(
                "SELECT message FROM errors WHERE key = ?", (spec.key,)
            ).fetchone()
        except SchemaError:
            return None
        return None if row is None else row[0]

    def __len__(self) -> int:
        try:
            (n,) = self.db.read.execute("SELECT COUNT(*) FROM runs").fetchone()
        except SchemaError:
            return 0
        return int(n)

    def keys(self) -> list[str]:
        """Sorted keys of every stored run."""
        try:
            rows = self.db.read.execute(
                "SELECT key FROM runs ORDER BY key"
            ).fetchall()
        except SchemaError:
            return []
        return [r[0] for r in rows]


def open_store(
    locator: Union[str, Path], *, campaign: str = ""
) -> DbResultStore:
    """Open the result store a locator names.

    A path ending in ``.sqlite``/``.db`` (or an existing regular file)
    is the store file itself; anything else is a campaign directory
    whose store is ``<dir>/`` :data:`STORE_FILENAME`.  This is how
    ``--cache-dir`` and campaign worker processes reach a store from
    one string.
    """
    path = Path(locator)
    if not (path.suffix in _DB_SUFFIXES or path.is_file()):
        path = path / STORE_FILENAME
    return DbResultStore(path, campaign=campaign)


# ======================================================================
# trace streaming
# ======================================================================
class TraceDbWriter:
    """Streaming sink draining a :class:`TraceRecorder` into a store.

    Attach via ``TraceRecorder(sink=TraceDbWriter(db, run_key))``: the
    recorder calls :meth:`drain` every :attr:`batch` spans, so a long
    recording streams through the buffered writer mid-run instead of
    accumulating only in RAM; call :meth:`close` after the run to flush
    the tail plus barriers, comm records and discovery counters.
    """

    __slots__ = ("db", "run", "rid", "batch", "mark", "_spans")

    def __init__(
        self,
        db: CampaignDB,
        run: str,
        *,
        batch: int = DEFAULT_BATCH,
        replace: bool = True,
    ) -> None:
        self.db = db
        self.run = run
        self.rid = run_id(run)
        self.batch = batch
        #: Spans [0, mark) have been handed to the buffered writer.
        self.mark = 0
        if replace:
            delete_trace(db, run)
        db.conn.execute(
            insert_sql("trace_runs", replace=True), (self.rid, run)
        )
        # Defer WAL checkpoints until the recording closes: mid-stream
        # checkpoints repeatedly copy the same hot b-tree pages into the
        # main file; one checkpoint at the end writes each page once.
        db.conn.execute("PRAGMA wal_autocheckpoint=0")
        # Only the recorded columns stream; ``slack``/``on_path`` stay
        # NULL until :func:`annotate_critical_path` and omitting them
        # cuts the per-row insert cost by ~40%.
        self._spans = BufferedWriter(
            db.conn, "spans", batch=batch,
            columns=columns_of("spans")[:10],
        )

    def drain(self, recorder: "TraceRecorder") -> None:
        """Buffer every span recorded since the previous drain.

        Bulk ``zip`` over column slices rather than a per-row index
        loop: this runs once per recorded task on the simulation hot
        path, and the zip form builds rows ~2.5x faster (the bench's
        ``--max-db-overhead`` gate measures exactly this cost).
        """
        lo, hi = self.mark, recorder.n_spans
        if hi <= lo:
            return
        names = recorder.name_table()
        w = self._spans
        w.rows.extend(
            zip(
                repeat(self.rid), range(lo, hi),
                recorder.span_tid[lo:hi],
                map(names.__getitem__, recorder.span_name[lo:hi]),
                recorder.span_loop[lo:hi], recorder.span_iteration[lo:hi],
                recorder.span_rank[lo:hi], recorder.span_worker[lo:hi],
                recorder.span_start[lo:hi], recorder.span_end[lo:hi],
            )
        )
        if len(w.rows) >= w.batch:
            w.flush()
        self.mark = hi

    def close(self, recorder: "TraceRecorder") -> None:
        """Flush the span tail, then barriers, comms and counters."""
        self.drain(recorder)
        self._spans.flush()
        rid = self.rid

        barriers = BufferedWriter(self.db.conn, "barriers", batch=self.batch)
        for i, (kind, t) in enumerate(
            zip(recorder.barrier_kind, recorder.barrier_time)
        ):
            barriers.append((rid, i, kind, t))
        barriers.flush()

        comms = BufferedWriter(self.db.conn, "comms", batch=self.batch)
        for i, rec in enumerate(recorder.comm_records):
            complete = (
                None if math.isnan(rec.complete_time) else rec.complete_time
            )
            comms.append(
                (rid, i, rec.kind, rec.rank, rec.peer, rec.nbytes,
                 rec.post_time, complete, rec.iteration)
            )
        comms.flush()

        counters = BufferedWriter(self.db.conn, "counters", batch=self.batch)
        for (rank, iteration), row in sorted(recorder.counters.rows.items()):
            counters.append(
                (rid, rank, iteration)
                + tuple(row.to_dict()[c] for c in columns_of("counters")[3:])
            )
        counters.flush()
        # Re-arm WAL autocheckpointing (SQLite default 1000 pages); the
        # deferred checkpoint runs on the next commit or connection close.
        self.db.conn.execute("PRAGMA wal_autocheckpoint=1000")


def delete_trace(db: CampaignDB, run: str) -> None:
    """Drop every trace row of ``run`` (spans/barriers/comms/counters)."""
    rid = run_id(run)
    conn = db.conn
    conn.execute("BEGIN IMMEDIATE")
    try:
        for table in ("spans", "barriers", "comms", "counters"):
            conn.execute(f"DELETE FROM {table} WHERE run = ?", (rid,))
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise


def write_trace(
    db: CampaignDB,
    run: str,
    recorder: "TraceRecorder",
    *,
    batch: int = DEFAULT_BATCH,
) -> None:
    """Stream a finished recording into the store in one go."""
    sink = TraceDbWriter(db, run, batch=batch)
    sink.close(recorder)


def read_trace(db: CampaignDB, run: str) -> "TraceRecorder":
    """Rebuild a :class:`TraceRecorder` from the stored rows.

    The inverse of :func:`write_trace` for the recorded columns: spans
    (names re-interned in first-seen order), barriers, comm records and
    discovery counters round-trip; the table-to-rank registration map is
    recording-time state and is not reconstructed.
    """
    from repro.obs.counters import IterationCounters
    from repro.obs.recorder import TraceRecorder
    from repro.profiler.trace import CommRecord

    rid = run_id(run)
    rec = TraceRecorder()
    for row in db.read.execute(
        "SELECT tid, name, loop, iteration, rank, worker, t_start, t_end "
        "FROM spans WHERE run = ? ORDER BY seq", (rid,)
    ):
        tid, name, loop, it, rank, worker, t0, t1 = row
        rec.span_tid.append(tid)
        rec.span_name.append(rec.names(name))
        rec.span_loop.append(loop)
        rec.span_iteration.append(it)
        rec.span_rank.append(rank)
        rec.span_worker.append(worker)
        rec.span_start.append(t0)
        rec.span_end.append(t1)
    for kind, t in db.read.execute(
        "SELECT kind, time FROM barriers WHERE run = ? ORDER BY seq", (rid,)
    ):
        rec.barrier_kind.append(kind)
        rec.barrier_time.append(t)
    for kind, rank, peer, nbytes, post, complete, it in db.read.execute(
        "SELECT kind, rank, peer, nbytes, post, complete, iteration "
        "FROM comms WHERE run = ? ORDER BY seq", (rid,)
    ):
        rec.comm_records.append(
            CommRecord(
                kind=kind, rank=rank, peer=peer, nbytes=nbytes,
                post_time=post,
                complete_time=float("nan") if complete is None else complete,
                iteration=it,
            )
        )
    counter_cols = columns_of("counters")[3:]
    for row in db.read.execute(
        "SELECT rank, iteration, " + ", ".join(counter_cols) +
        " FROM counters WHERE run = ? ORDER BY rank, iteration", (rid,)
    ):
        rank, iteration = row[0], row[1]
        rec.counters.rows[rank, iteration] = IterationCounters(
            **dict(zip(counter_cols, row[2:]))
        )
    return rec


# ======================================================================
# critical-path annotation
# ======================================================================
def annotate_critical_path(
    db: CampaignDB,
    run: str,
    cp: "CriticalPathResult",
    *,
    rank: int = 0,
) -> int:
    """Stamp per-span ``slack`` and ``on_path`` from a measured analysis.

    Persistent runs match spans by ``(tid, iteration)`` (the template
    executes once per iteration); non-persistent runs by ``tid`` alone
    (the artifact gives every iteration's tasks their own tids).  Only
    existing span rows update — path tasks without a span (zero-weight
    stubs) have nothing to annotate.  The rank's spans are read once and
    updated by primary key, so the cost is linear in the run's spans.
    Returns the number of per-task stamps the analysis holds.
    """
    rid = run_id(run)
    stamps: dict = {}
    n = 0
    for itcp in cp.iterations:
        path = set(itcp.path)
        it = itcp.iteration
        for t, slack in enumerate(itcp.slack):
            stamps[(t, it) if cp.persistent else t] = (slack, int(t in path))
        n += len(itcp.slack)
    conn = db.conn
    conn.execute("BEGIN IMMEDIATE")
    try:
        spans = conn.execute(
            "SELECT seq, tid, iteration FROM spans WHERE run = ? AND rank = ?",
            (rid, rank),
        ).fetchall()
        rows = []
        for seq, tid, it in spans:
            stamp = stamps.get((tid, it) if cp.persistent else tid)
            if stamp is not None:
                rows.append((stamp[0], stamp[1], rid, seq))
        conn.executemany(
            "UPDATE spans SET slack = ?, on_path = ? WHERE run = ? AND seq = ?",
            rows,
        )
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    return n


# ======================================================================
# metrics snapshots
# ======================================================================
def write_metrics(
    db: CampaignDB,
    campaign: str,
    snapshot: int,
    rows: Sequence[dict],
) -> int:
    """Persist one metrics snapshot (sample rows from a registry).

    ``rows`` is what :meth:`~repro.metrics.registry.MetricsRegistry.snapshot`
    returns — the caller decides the volatility cut; by convention only
    non-volatile (deterministic) samples land here.  Keyed on
    ``(campaign, snapshot, name, labels)`` with REPLACE semantics, so
    re-running a campaign overwrites its snapshots instead of colliding.
    Returns the number of rows written.
    """
    writer = BufferedWriter(db.conn, "metrics", replace=True)
    for row in rows:
        doc = row.get("doc")
        writer.append(
            (
                campaign,
                snapshot,
                row["name"],
                canonical_json(row.get("labels") or {}),
                row["kind"],
                row.get("help") or "",
                float(row["value"]),
                None if doc is None else canonical_json(doc),
            )
        )
    writer.flush()
    return writer.rows_written


def metrics_snapshots(
    db: CampaignDB, campaign: Optional[str] = None
) -> list[tuple[str, int]]:
    """Every persisted ``(campaign, snapshot)`` pair, sorted."""
    sql = "SELECT DISTINCT campaign, snapshot FROM metrics"
    params: tuple = ()
    if campaign is not None:
        sql += " WHERE campaign = ?"
        params = (campaign,)
    sql += " ORDER BY campaign, snapshot"
    return [(c, int(s)) for c, s in db.read.execute(sql, params)]


def latest_snapshot(
    db: CampaignDB, campaign: Optional[str] = None
) -> tuple[str, int]:
    """The newest (highest-id) snapshot, resolving the campaign if unique.

    With ``campaign=None`` the store must hold metrics for exactly one
    campaign id — otherwise raises :class:`ValueError` naming them so
    the CLI can ask the user to disambiguate.
    """
    pairs = metrics_snapshots(db, campaign)
    if not pairs:
        raise ValueError(
            f"no metrics snapshots in {db.path}"
            + (f" for campaign {campaign!r}" if campaign is not None else "")
        )
    names = sorted({c for c, _ in pairs})
    if campaign is None and len(names) > 1:
        raise ValueError(
            f"store holds metrics for {len(names)} campaigns "
            f"({', '.join(names)}); pass --campaign to pick one"
        )
    name = campaign if campaign is not None else names[0]
    return name, max(s for c, s in pairs if c == name)


def read_metrics(
    db: CampaignDB,
    campaign: Optional[str] = None,
    snapshot: Optional[int] = None,
) -> list[dict]:
    """Sample rows of one snapshot (default: the latest).

    Rows come back in the registry-snapshot shape (``name``/``kind``/
    ``help``/``labels``/``value``/``doc`` with JSON fields decoded) plus
    ``campaign``/``snapshot``, ready for
    :func:`~repro.metrics.prometheus.render_prometheus`.
    """
    if snapshot is None:
        campaign, snapshot = latest_snapshot(db, campaign)
    elif campaign is None:
        campaign, _ = latest_snapshot(db)
    rows = db.read.execute(
        "SELECT name, labels, kind, help, value, doc FROM metrics "
        "WHERE campaign = ? AND snapshot = ? ORDER BY name, labels",
        (campaign, snapshot),
    ).fetchall()
    out = []
    for name, labels, kind, help_text, value, doc in rows:
        out.append(
            {
                "campaign": campaign,
                "snapshot": snapshot,
                "name": name,
                "labels": json.loads(labels),
                "kind": kind,
                "help": help_text,
                "value": value,
                "doc": None if doc is None else json.loads(doc),
            }
        )
    return out


# ======================================================================
# findings + profile storage
# ======================================================================
def add_findings(db: CampaignDB, run: str, report) -> int:
    """Store a verify report's findings (suppressed ones included)."""
    rid = run_id(run)
    writer = BufferedWriter(db.conn, "findings", replace=True)
    conn = db.conn
    conn.execute("DELETE FROM findings WHERE run = ?", (rid,))
    conn.execute(insert_sql("trace_runs", replace=True), (rid, run))
    seq = 0
    for finding in list(report.findings) + list(
        getattr(report, "suppressed", [])
    ):
        writer.append(
            (rid, seq, finding.rule, str(finding.severity), finding.rank,
             finding.iteration, canonical_json(list(finding.tasks)),
             finding.message)
        )
        seq += 1
    writer.flush()
    return seq


def store_profile(
    db: CampaignDB, report: "ProfileReport", *, campaign: str = ""
) -> str:
    """Persist one :func:`~repro.obs.profile.profile_spec` run entirely.

    Writes the spec + result rows (so the run joins campaign queries),
    streams the recording, and — when the engine compiled a TDG —
    annotates spans with measured critical-path slack.  Returns the run
    key.
    """
    run = report.spec.key
    write_trace(db, run, report.recorder)
    if report.cp is not None:
        annotate_critical_path(db, run, report.cp, rank=report.profiled_rank)
    DbResultStore(db, campaign=campaign).put(report.spec, report.result)
    return run
