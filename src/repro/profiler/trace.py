"""Communication trace records (the PMPI side of the MPC-OMP profiler).

Task spans are recorded by :class:`repro.obs.recorder.TraceRecorder`;
this module keeps the per-request MPI record both the runtimes and the
recorder share.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CommRecord:
    """One traced MPI request (PMPI-style, §4.1 methodology)."""

    kind: str
    rank: int
    peer: int
    nbytes: int
    post_time: float
    complete_time: float
    iteration: int = -1

    @property
    def duration(self) -> float:
        """The paper's communication time c(r): posting to completion."""
        return self.complete_time - self.post_time

    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`.

        ``complete_time`` may be NaN (request still in flight when the
        trace was cut); the serde layer maps it to a sentinel so strict
        JSON round-trips it.
        """
        from repro.util.serde import flat_to_dict

        return flat_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CommRecord":
        from repro.util.serde import desanitize_float, flat_from_dict

        d = dict(data)
        for f in ("post_time", "complete_time"):
            if f in d:
                d[f] = desanitize_float(d[f])
        return flat_from_dict(cls, d)
