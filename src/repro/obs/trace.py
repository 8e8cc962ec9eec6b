"""Sim-time span tracer with Chrome ``trace_event`` export.

Spans are stamped from an injected clock (the simulator's, in practice)
-- never the wall clock -- so a trace is a pure function of the run and
two identical-seed runs export byte-identical JSON.

Two span flavours map onto the two shapes simulated work takes:

* **Synchronous spans** (:meth:`SpanTracer.span`, or the
  :meth:`SpanTracer.traced` decorator): strictly nested within one call
  stack; exported as complete (``"X"``) events, which Perfetto nests by
  containment on a track.
* **Async spans** (:meth:`SpanTracer.async_span`): sim processes overlap
  freely, so each lifetime is exported as a ``"b"``/``"e"`` async pair
  with its own id; Perfetto lays overlapping spans out side by side.

Open the export at https://ui.perfetto.dev (or chrome://tracing): one
named track per subsystem, sim seconds on the time axis (exported as
microseconds, the format's native unit).
"""

from __future__ import annotations

import json
from typing import Callable

__all__ = ["SpanTracer", "Span"]

#: Synthetic process id for the whole platform (one sim = one "process").
TRACE_PID = 1


class Span:
    """An open synchronous span; close it by exiting the ``with`` block."""

    def __init__(self, tracer: "SpanTracer", name: str, track: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.track = track
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "Span":
        self.start = self.tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args = dict(self.args, error=exc_type.__name__)
        self.tracer.complete(
            self.name, self.start, self.tracer.clock(), track=self.track, **self.args
        )


class SpanTracer:
    """Accumulates trace records against an injected (sim) clock.

    Recording appends one flat row per record -- ``(ph, tid, name, track,
    start_s, end_s, args)`` for a complete span, an async pair (``"b"``;
    one row for both ends), an instant (``"i"``) or a track's naming
    metadata (``"M"``) -- and the Chrome event dicts are built only at
    export (:meth:`to_chrome`, :attr:`events`).  A process-lifetime span
    on the fleet path therefore costs one tuple, not two dicts, and most
    runs never export at all.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._rows: list[tuple] = []
        self._track_tids: dict[str, int] = {}
        self._async_pairs = 0

    def __len__(self) -> int:
        """Exported event count (an async pair is two events)."""
        return len(self._rows) + self._async_pairs

    def _tid(self, track: str) -> int:
        """Stable per-track thread id; first use emits the naming metadata."""
        tid = self._track_tids.get(track)
        if tid is None:
            tid = len(self._track_tids) + 1
            self._track_tids[track] = tid
            self._rows.append(("M", tid, "thread_name", track, 0.0, 0.0, None))
        return tid

    # -- recording ---------------------------------------------------------

    def span(self, name: str, track: str = "main", **args) -> Span:
        """Context manager timing a strictly nested block of work."""
        return Span(self, name, track, args)

    def traced(self, name: str | None = None, track: str = "main"):
        """Decorator form of :meth:`span` for whole functions."""

        def wrap(fn):
            label = name or fn.__name__

            def inner(*a, **kw):
                with self.span(label, track=track):
                    return fn(*a, **kw)

            inner.__name__ = fn.__name__
            inner.__doc__ = fn.__doc__
            return inner

        return wrap

    def complete(
        self, name: str, start_s: float, end_s: float, track: str = "main", **args
    ) -> None:
        """Record a finished nested span as a complete (``X``) event."""
        self._rows.append(("X", self._tid(track), name, track, start_s, end_s, args))

    def async_span(
        self, name: str, start_s: float, end_s: float, track: str = "async", **args
    ) -> None:
        """Record a possibly-overlapping span (a sim process lifetime)."""
        self._async_pairs += 1
        self._rows.append(("b", self._tid(track), name, track, start_s, end_s, args))

    def instant(self, name: str, ts: float | None = None, track: str = "main", **args) -> None:
        """Record a zero-duration marker (a pipeline switch, a fault)."""
        when = self.clock() if ts is None else ts
        self._rows.append(("i", self._tid(track), name, track, when, when, args))

    # -- export ------------------------------------------------------------

    @property
    def events(self) -> list[dict]:
        """The Chrome event dicts, in emission order (built per access).

        Async pairs get ids ``0x1``, ``0x2``, ... in the order they were
        recorded.
        """
        out: list[dict] = []
        append = out.append
        async_id = 0
        for ph, tid, name, track, start_s, end_s, args in self._rows:
            if ph == "M":
                append(
                    {
                        "ph": "M",
                        "pid": TRACE_PID,
                        "tid": tid,
                        "name": name,
                        "args": {"name": track},
                    }
                )
                continue
            event = {"ph": ph, "pid": TRACE_PID, "tid": tid, "name": name, "cat": track}
            if ph == "X":
                event["ts"] = start_s * 1e6
                event["dur"] = max(0.0, end_s - start_s) * 1e6
            elif ph == "b":
                async_id += 1
                ident = f"0x{async_id:x}"
                event["id"] = ident
                event["ts"] = start_s * 1e6
            else:
                event["ts"] = start_s * 1e6
                event["s"] = "t"
            if args:
                event["args"] = args
            append(event)
            if ph == "b":
                append(
                    {
                        "ph": "e",
                        "pid": TRACE_PID,
                        "tid": tid,
                        "name": name,
                        "cat": track,
                        "id": ident,
                        "ts": end_s * 1e6,
                    }
                )
        return out

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` document (Perfetto-loadable)."""
        return {"traceEvents": self.events, "displayTimeUnit": "ms"}

    def to_json(self, indent: int | None = None) -> str:
        """Stable JSON export (event order is emission order, sorted keys)."""
        return json.dumps(self.to_chrome(), indent=indent, sort_keys=True)
