"""In-flight MPI requests (NaN completion) across serde, metrics, exporters.

A request still posted when the trace is cut carries ``complete_time =
NaN``.  That NaN must survive a serde round-trip (via the sentinel
encoding), be skipped by the §4.1 overlap metrics, and never leak an
unparseable ``NaN`` token into the strict-JSON observability exporters.
"""

import json
import math

import pytest

from repro.obs import TraceRecorder, iter_ndjson, to_perfetto, validate_perfetto
from repro.profiler.comm_metrics import comm_metrics
from repro.profiler.trace import CommRecord
from repro.util.serde import canonical_json


def in_flight(kind="isend", post=1.5):
    return CommRecord(kind, 0, 1, 2048, post, float("nan"), iteration=2)


class TestSerdeRoundTrip:
    def test_nan_complete_survives(self):
        rec = in_flight()
        clone = CommRecord.from_dict(rec.to_dict())
        assert math.isnan(clone.complete_time)
        assert clone.post_time == rec.post_time
        assert (clone.kind, clone.rank, clone.peer, clone.nbytes,
                clone.iteration) == ("isend", 0, 1, 2048, 2)

    def test_dict_is_strict_json(self):
        # The sentinel encoding (the *string* "NaN", not the bare token)
        # keeps the dict serializable with allow_nan=False and parseable
        # by a strict reader that rejects non-finite constants.
        text = canonical_json(in_flight().to_dict())
        strict = json.loads(
            text,
            parse_constant=lambda s: pytest.fail(f"bare {s} token in JSON"),
        )
        clone = CommRecord.from_dict(strict)
        assert math.isnan(clone.complete_time)

    def test_completed_record_unchanged(self):
        rec = CommRecord("irecv", 1, 0, 512, 0.25, 0.75)
        clone = CommRecord.from_dict(json.loads(canonical_json(rec.to_dict())))
        assert clone.complete_time == 0.75
        assert clone.duration == pytest.approx(0.5)


class TestMetricsSkipInFlight:
    def test_in_flight_not_counted(self):
        trace = TraceRecorder.from_dict({
            "tid": [0], "name": ["t"], "loop": [0], "iteration": [0],
            "worker": [0], "start": [0.0], "end": [10.0],
        })
        m = comm_metrics([in_flight(), CommRecord("isend", 0, 1, 64, 1.0, 2.0)],
                         trace, n_threads=1)
        assert m.n_requests == 1
        assert m.comm_time == pytest.approx(1.0)


class TestExportersStayStrict:
    def recorder_with(self, *records):
        rec = TraceRecorder()
        rec.comm_records.extend(records)
        return rec

    def test_perfetto_in_flight_instant(self):
        doc = to_perfetto(self.recorder_with(in_flight()))
        validate_perfetto(doc)
        (ev,) = [e for e in doc["traceEvents"] if e.get("cat") == "mpi"]
        assert ev["ph"] == "i"
        assert ev["args"]["iteration"] == 2

    def test_ndjson_in_flight_null(self):
        lines = list(iter_ndjson(self.recorder_with(in_flight())))
        comm = json.loads(lines[-1])
        assert comm["complete"] is None
        assert comm["post"] == 1.5
        for line in lines:
            assert "NaN" not in line

    def test_mixed_records(self):
        rec = self.recorder_with(
            in_flight(), CommRecord("isend", 0, 1, 64, 1.0, 2.0)
        )
        doc = validate_perfetto(to_perfetto(rec))
        phases = sorted(
            e["ph"] for e in doc["traceEvents"] if e.get("cat") == "mpi"
        )
        assert phases == ["X", "i"]
