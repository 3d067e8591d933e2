"""``repro.metrics`` — deterministic campaign/simulation telemetry.

One :class:`MetricsRegistry` holds counters, gauges and fixed-bucket
histograms (label sets interned to dense child ids via
:class:`repro.util.interner.Interner`); :class:`CampaignMetrics` on the
:class:`~repro.campaign.bus.CampaignBus` feeds it, :func:`sim_registry`
fills it from a finished :class:`~repro.obs.recorder.TraceRecorder`, and
three front-ends read it:

- the in-place live terminal renderer behind ``repro campaign --live``
  (:mod:`repro.metrics.live`);
- Prometheus text-format exposition (:mod:`repro.metrics.prometheus`;
  ``repro metrics export`` / ``repro metrics serve``);
- the single-file static HTML campaign report
  (:mod:`repro.metrics.report`; ``repro report``).

Determinism contract: metrics marked ``volatile`` (wall-clock-derived:
throughput, ETA, wall-time histograms) are never persisted into the
campaign store and never exported from it — everything that lands in the
``metrics`` table or a ``repro metrics export`` snapshot is derived from
event counts and *simulated* seconds only, so identical campaigns
snapshot byte-identically.
"""

from repro.metrics.campaign import CampaignMetrics
from repro.metrics.live import LiveRenderer
from repro.metrics.prometheus import (
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.metrics.report import render_report, write_report
from repro.metrics.sim import sim_registry

__all__ = [
    "CampaignMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "LiveRenderer",
    "MetricsRegistry",
    "parse_exposition",
    "render_prometheus",
    "render_report",
    "sim_registry",
    "validate_exposition",
    "write_report",
]
