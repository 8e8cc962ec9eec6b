"""repro.obs: the platform's deterministic observability layer.

Three pieces, all on the sim clock (vdaplint-clean: no wall clock, no
global RNG, byte-stable exports):

* **Metrics** (:mod:`repro.obs.metrics`) -- a label-aware registry of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` series with
  snapshot/merge and stable JSON export.  A histogram is one
  relative-error log-bucket sketch (DDSketch): p50/p95/p99 within 1% and
  exact under merge, so a fleet's merged quantiles equal one process's.
  :class:`Summary` and :class:`Timeline` live here.
* **Tracing** (:mod:`repro.obs.trace`) -- a span tracer stamping sim-time
  spans (context-manager, decorator, and async-process flavours) and
  exporting Chrome ``trace_event`` JSON viewable in Perfetto.
* **Recorder** (:mod:`repro.obs.recorder`) -- the facade the hot layers
  call.  The default :data:`NULL_RECORDER` is a near-zero-cost no-op;
  installing a :class:`Collector` (``Simulator(obs=...)`` or
  ``DriveScenario(observe=...)``) lights up every hook at once.  Hot
  sites keep a bound series handle (``counter``/``gauge_series``/
  ``histogram``, usually through :class:`HandleCache`) instead of
  resolving name + labels per event.

:class:`Report` (:mod:`repro.obs.report`) is the unified benchmark output
path: declared columns, ``to_text()`` for the committed tables,
``to_json()`` for machine-readable artifacts.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Summary,
    Timeline,
    merge_many,
    merge_snapshots,
    mergeable_view,
)
from .recorder import NULL_RECORDER, Collector, HandleCache, Recorder
from .report import Column, Report
from .trace import Span, SpanTracer

__all__ = [
    "Collector",
    "Column",
    "Counter",
    "Gauge",
    "HandleCache",
    "Histogram",
    "MetricRegistry",
    "NULL_RECORDER",
    "Recorder",
    "Report",
    "Span",
    "SpanTracer",
    "Summary",
    "Timeline",
    "merge_many",
    "merge_snapshots",
    "mergeable_view",
]
