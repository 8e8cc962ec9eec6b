"""Span tracer: nesting, async pairs, instants, Chrome-trace JSON schema."""

import json

import pytest

from repro.obs import SpanTracer
from repro.obs.trace import TRACE_PID


class FakeClock:
    """A hand-cranked sim clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_emit_complete_events_with_containment():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("outer", track="vcu"):
        clock.now = 1.0
        with tracer.span("inner", track="vcu"):
            clock.now = 3.0
        clock.now = 4.0
    xs = [e for e in tracer.events if e["ph"] == "X"]
    assert [e["name"] for e in xs] == ["inner", "outer"]  # closed inner-first
    inner, outer = xs
    assert outer["ts"] == 0.0 and outer["dur"] == pytest.approx(4e6)
    assert inner["ts"] == pytest.approx(1e6) and inner["dur"] == pytest.approx(2e6)
    # Containment: the inner span lies inside the outer one on the same tid.
    assert inner["tid"] == outer["tid"]
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]


def test_span_records_exception_type_in_args():
    tracer = SpanTracer(FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    (event,) = [e for e in tracer.events if e["ph"] == "X"]
    assert event["args"]["error"] == "RuntimeError"


def test_traced_decorator_preserves_name_and_times_calls():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    @tracer.traced(track="nn")
    def infer(x):
        """Docstring survives."""
        clock.now += 0.25
        return x * 2

    assert infer(21) == 42
    assert infer.__name__ == "infer" and "survives" in infer.__doc__
    (event,) = [e for e in tracer.events if e["ph"] == "X"]
    assert event["name"] == "infer" and event["dur"] == pytest.approx(0.25e6)


def test_async_spans_pair_begin_end_with_matching_ids():
    tracer = SpanTracer()
    tracer.async_span("proc-a", 0.0, 2.0, track="sim.process")
    tracer.async_span("proc-b", 1.0, 3.0, track="sim.process")  # overlaps a
    pairs = [e for e in tracer.events if e["ph"] in ("b", "e")]
    assert [e["ph"] for e in pairs] == ["b", "e", "b", "e"]
    assert pairs[0]["id"] == pairs[1]["id"] != pairs[2]["id"]
    assert pairs[2]["id"] == pairs[3]["id"]


def test_instant_uses_clock_unless_given_ts():
    clock = FakeClock()
    clock.now = 7.0
    tracer = SpanTracer(clock)
    tracer.instant("handoff", track="net")
    tracer.instant("fault", ts=2.0, track="net")
    instants = [e for e in tracer.events if e["ph"] == "i"]
    assert instants[0]["ts"] == pytest.approx(7e6)
    assert instants[1]["ts"] == pytest.approx(2e6)
    assert all(e["s"] == "t" for e in instants)


def test_track_metadata_emitted_once_per_track():
    tracer = SpanTracer()
    tracer.complete("a", 0.0, 1.0, track="vcu")
    tracer.complete("b", 1.0, 2.0, track="vcu")
    tracer.complete("c", 0.0, 1.0, track="net")
    metas = [e for e in tracer.events if e["ph"] == "M"]
    assert [m["args"]["name"] for m in metas] == ["vcu", "net"]
    assert all(m["name"] == "thread_name" for m in metas)
    tids = {m["args"]["name"]: m["tid"] for m in metas}
    assert tids["vcu"] != tids["net"]


def test_chrome_trace_document_schema():
    tracer = SpanTracer(FakeClock())
    with tracer.span("work", track="vcu", device="gpu"):
        pass
    tracer.async_span("job", 0.0, 1.0)
    tracer.instant("mark")
    doc = json.loads(tracer.to_json())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    for event in doc["traceEvents"]:
        assert event["pid"] == TRACE_PID
        assert {"ph", "tid", "name"} <= set(event)
        if event["ph"] != "M":
            assert "ts" in event and "cat" in event
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
        if event["ph"] in ("b", "e"):
            assert event["id"].startswith("0x")


def test_trace_json_is_deterministic():
    def build():
        tracer = SpanTracer()
        tracer.async_span("p", 0.5, 1.5, track="t", k="v")
        tracer.complete("c", 0.0, 0.25, track="t")
        tracer.instant("i", ts=2.0)
        return tracer.to_json()

    assert build() == build()


class DictTracer:
    """The dict-per-event tracer ``SpanTracer`` used to be: the oracle for
    the row-based one (same ids, same dicts, same order)."""

    def __init__(self, clock):
        self.clock = clock
        self.events = []
        self._track_tids = {}
        self._async_seq = 0

    def _tid(self, track):
        tid = self._track_tids.get(track)
        if tid is None:
            tid = len(self._track_tids) + 1
            self._track_tids[track] = tid
            self.events.append({"ph": "M", "pid": TRACE_PID, "tid": tid,
                                "name": "thread_name", "args": {"name": track}})
        return tid

    def complete(self, name, start_s, end_s, track="main", **args):
        event = {"ph": "X", "pid": TRACE_PID, "tid": self._tid(track), "name": name,
                 "cat": track, "ts": start_s * 1e6,
                 "dur": max(0.0, end_s - start_s) * 1e6}
        if args:
            event["args"] = args
        self.events.append(event)

    def span(self, name, track="main", **args):
        tracer = self

        class _Span:
            def __enter__(self):
                self.start = tracer.clock()

            def __exit__(self, exc_type, exc, tb):
                extra = dict(args, error=exc_type.__name__) if exc_type else args
                tracer.complete(name, self.start, tracer.clock(), track=track, **extra)

        return _Span()

    def async_span(self, name, start_s, end_s, track="async", **args):
        self._async_seq += 1
        ident = f"0x{self._async_seq:x}"
        tid = self._tid(track)
        begin = {"ph": "b", "pid": TRACE_PID, "tid": tid, "name": name, "cat": track,
                 "id": ident, "ts": start_s * 1e6}
        if args:
            begin["args"] = args
        self.events.append(begin)
        self.events.append({"ph": "e", "pid": TRACE_PID, "tid": tid, "name": name,
                            "cat": track, "id": ident, "ts": end_s * 1e6})

    def instant(self, name, ts=None, track="main", **args):
        event = {"ph": "i", "pid": TRACE_PID, "tid": self._tid(track), "name": name,
                 "cat": track, "ts": (self.clock() if ts is None else ts) * 1e6,
                 "s": "t"}
        if args:
            event["args"] = args
        self.events.append(event)

    def to_json(self):
        doc = {"traceEvents": list(self.events), "displayTimeUnit": "ms"}
        return json.dumps(doc, sort_keys=True)


def test_rows_export_exactly_what_dict_events_did():
    clock = FakeClock()
    rows, oracle = SpanTracer(clock), DictTracer(clock)
    tracks = ("sim.process", "vcu", "net", "scenario")
    for step in range(60):
        track = tracks[step % len(tracks)]
        for tracer in (rows, oracle):
            clock.now = step * 0.137
            kind = step % 5
            if kind == 0:
                tracer.async_span(f"proc-{step}", clock.now - 0.5, clock.now,
                                  track=track, ok=step % 2 == 0)
            elif kind == 1:
                tracer.complete("work", clock.now, clock.now + 0.01 * step, track=track)
            elif kind == 2:
                tracer.instant("mark", track=track, pipeline=f"p{step}")
            elif kind == 3:
                with tracer.span("nested", track=track, step=step):
                    clock.now += 0.25
                    tracer.async_span("child", clock.now - 0.1, clock.now, track=track)
            else:
                tracer.instant("fault", ts=clock.now / 2, track=track)
                tracer.complete("backwards", clock.now, clock.now - 1.0, track=track)
    with pytest.raises(ValueError):
        with rows.span("doomed", track="vcu"):
            raise ValueError
    with pytest.raises(ValueError):
        with oracle.span("doomed", track="vcu"):
            raise ValueError

    assert rows.events == oracle.events
    assert len(rows) == len(oracle.events)
    assert rows.to_json() == oracle.to_json()
    assert rows.to_chrome()["traceEvents"] == oracle.events
