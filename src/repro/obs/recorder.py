"""The instrumentation facade: a no-op :class:`Recorder` and the real
:class:`Collector`.

Every instrumented subsystem (sim kernel, DSF, executor, cellular stack,
uplink migrator, ...) talks to a :class:`Recorder`.  The base class is the
**null sink**: every method is a no-op and :attr:`Recorder.enabled` is
False, so an uninstrumented run pays one attribute load and an empty call
per hook -- and hooks that would have to *compute* something to record
(e.g. scan the DDI backlog) guard on ``enabled`` and skip the work
entirely.  Installing a :class:`Collector` turns the same call sites into
a metric registry + span tracer, with JSON exporters for both.

The single-wiring-point pattern: hand one Collector to
``Simulator(obs=...)`` (or ``DriveScenario(observe=...)``) and every
subsystem sharing that simulator records into it.

Hot call sites do not look a series up per event.  They ask the
recorder once for a **handle** (:meth:`Recorder.counter`,
:meth:`Recorder.gauge_series`, :meth:`Recorder.histogram`) and keep it:
the null sink hands out one shared no-op handle per kind, a
:class:`Collector` the registry series itself.  :class:`HandleCache`
binds one handle per key (vehicle, device, process name) on first use,
so a series still appears only once something is recorded into it.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Hashable

from .metrics import Counter, Gauge, Histogram, MetricRegistry
from .trace import Span, SpanTracer

__all__ = ["Recorder", "Collector", "HandleCache", "NULL_RECORDER"]


class _NullSpan:
    """Reusable do-nothing context manager (stateless, shared)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class _NullCounter:
    """Shared do-nothing counter handle."""

    __slots__ = ()

    def inc(self, n: float = 1.0) -> None:
        pass


class _NullGauge:
    """Shared do-nothing gauge handle."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    """Shared do-nothing histogram handle."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class Recorder:
    """No-op instrumentation sink; :class:`Collector` overrides everything.

    Hot paths may call these unconditionally; expensive-to-gather hooks
    should guard on :attr:`enabled` first.
    """

    #: False on the null sink: lets call sites skip costly data gathering.
    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source spans are stamped from (sim clock)."""

    def counter(self, name: str, **labels) -> Counter | _NullCounter:
        """A counter handle (``inc(n)``) for hot call sites to keep."""
        return _NULL_COUNTER

    def gauge_series(self, name: str, **labels) -> Gauge | _NullGauge:
        """A gauge handle (``set(value)``) for hot call sites to keep.

        Not ``gauge``: that name is the cold setter below.
        """
        return _NULL_GAUGE

    def histogram(self, name: str, **labels) -> Histogram | _NullHistogram:
        """A histogram handle (``observe``/``observe_many``) to keep."""
        return _NULL_HISTOGRAM

    def count(self, name: str, n: float = 1.0, **labels) -> None:
        """Bump a counter series."""

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to a spot value."""

    def observe(self, name: str, value: float, **labels) -> None:
        """Feed one sample to a histogram series."""

    def observe_batch(self, name: str, values, **labels) -> None:
        """Feed a batch of samples to a histogram series.

        Exactly equivalent to observing each value in order -- hot loops
        accumulate locally and flush once through this hook.
        """

    def span(self, name: str, track: str = "main", **args):
        """Context manager timing a nested block (no-op here)."""
        return _NULL_SPAN

    def async_span(
        self, name: str, start_s: float, end_s: float, track: str = "async", **args
    ) -> None:
        """Record a possibly-overlapping span after the fact."""

    def instant(self, name: str, ts: float | None = None, track: str = "main", **args) -> None:
        """Record a zero-duration marker."""


#: The shared null sink every subsystem defaults to.
NULL_RECORDER = Recorder()


class HandleCache(dict):
    """Metric handles keyed by one label value, bound on first use.

    ``cache[key]`` calls ``bind(key)`` the first time a key is read and
    keeps the handle, so a series is created exactly when the first
    sample arrives (no zero-valued series for keys that never record)
    and every later read is a plain dict hit::

        tx = HandleCache(lambda v: obs.counter("fleet.v2v_tx", vehicle=v))
        tx[vehicle].inc()
    """

    __slots__ = ("_bind",)

    def __init__(self, bind: Callable[[Hashable], Any]):
        super().__init__()
        self._bind = bind

    def __missing__(self, key: Hashable) -> Any:
        handle = self[key] = self._bind(key)
        return handle


class Collector(Recorder):
    """A live recorder: metric registry + span tracer + exporters."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.registry = MetricRegistry()
        self.tracer = SpanTracer(clock)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.tracer.clock = clock

    def counter(self, name: str, **labels) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge_series(self, name: str, **labels) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.registry.histogram(name, **labels)

    def count(self, name: str, n: float = 1.0, **labels) -> None:
        self.registry.counter(name, **labels).inc(n)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.histogram(name, **labels).observe(value)

    def observe_batch(self, name: str, values, **labels) -> None:
        # An empty batch must not materialize the series (a sequence of
        # zero observe() calls would not have).
        if len(values):
            self.registry.histogram(name, **labels).observe_many(values)

    def span(self, name: str, track: str = "main", **args) -> Span:
        return self.tracer.span(name, track=track, **args)

    def async_span(
        self, name: str, start_s: float, end_s: float, track: str = "async", **args
    ) -> None:
        self.tracer.async_span(name, start_s, end_s, track=track, **args)

    def instant(self, name: str, ts: float | None = None, track: str = "main", **args) -> None:
        self.tracer.instant(name, ts=ts, track=track, **args)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current metric snapshot (plain dict; see ``metrics.merge_snapshots``)."""
        return self.registry.snapshot()

    def metrics_json(self, indent: int | None = 2) -> str:
        """Stable JSON of every metric series."""
        return self.registry.to_json(indent=indent)

    def trace_json(self, indent: int | None = None) -> str:
        """Stable Chrome ``trace_event`` JSON (open in Perfetto)."""
        return self.tracer.to_json(indent=indent)

    def write(self, directory: str) -> tuple[str, str]:
        """Write ``metrics.json`` + ``trace.json`` under ``directory``.

        Called after a run finishes (never from inside a sim process).
        Returns the two paths.
        """
        os.makedirs(directory, exist_ok=True)
        metrics_path = os.path.join(directory, "metrics.json")
        trace_path = os.path.join(directory, "trace.json")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(self.metrics_json())
            fh.write("\n")
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(self.trace_json())
            fh.write("\n")
        return metrics_path, trace_path
