"""Recorder facade: null sink semantics, Collector wiring, file export."""

import json
import timeit

import pytest

from repro.obs import NULL_RECORDER, Collector, HandleCache, Recorder


def test_null_recorder_is_disabled_and_silent():
    recorder = Recorder()
    assert recorder.enabled is False
    recorder.count("x")
    recorder.gauge("y", 1.0)
    recorder.observe("z", 0.5, device="gpu")
    recorder.async_span("p", 0.0, 1.0)
    recorder.instant("i")
    with recorder.span("nested") as span:
        with recorder.span("deeper"):
            pass
    assert span is not None  # the shared null span is a usable context manager
    assert NULL_RECORDER.enabled is False


def test_null_span_swallows_nothing():
    import pytest

    with pytest.raises(ValueError):
        with NULL_RECORDER.span("s"):
            raise ValueError("must propagate")


def test_noop_recorder_overhead_is_negligible():
    """The no-op hook must stay cheap enough to leave enabled everywhere.

    Smoke bound, not a benchmark: one guarded no-op call must cost well
    under a microsecond on any plausible machine (CI boxes included).
    """
    recorder = NULL_RECORDER

    def hook():
        if recorder.enabled:
            recorder.count("hot.path", n=1.0, device="gpu")

    per_call = min(timeit.repeat(hook, number=100_000, repeat=3)) / 100_000
    assert per_call < 5e-6


def test_collector_records_through_the_same_facade():
    collector = Collector()
    assert collector.enabled is True
    collector.count("jobs", n=2.0, tier="edge")
    collector.gauge("depth", 4.0)
    collector.observe("lat", 0.3)
    snap = collector.snapshot()
    assert snap["counters"]["jobs{tier=edge}"] == 2.0
    assert snap["gauges"]["depth"]["last"] == 4.0
    assert snap["histograms"]["lat"]["count"] == 1


def test_collector_bind_clock_feeds_tracer():
    times = iter([1.0, 3.5])
    collector = Collector()
    collector.bind_clock(lambda: next(times))
    with collector.span("step", track="sim"):
        pass
    (event,) = [e for e in collector.tracer.events if e["ph"] == "X"]
    assert event["ts"] == 1e6 and event["dur"] == 2.5e6


def test_collector_write_exports_both_artifacts(tmp_path):
    collector = Collector()
    collector.count("a")
    collector.instant("mark", ts=0.5)
    metrics_path, trace_path = collector.write(str(tmp_path / "obs"))
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert metrics["counters"]["a"] == 1.0
    assert any(e["ph"] == "i" for e in trace["traceEvents"])
    # Both files end with exactly one newline (byte-stable artifacts).
    for path in (metrics_path, trace_path):
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")


# -- bound series handles ------------------------------------------------


def test_null_recorder_hands_out_one_shared_noop_handle_per_kind():
    recorder, other = Recorder(), NULL_RECORDER
    counter = recorder.counter("a")
    gauge = recorder.gauge_series("b")
    histogram = recorder.histogram("c")
    assert counter is recorder.counter("x", device="gpu") is other.counter("y")
    assert gauge is recorder.gauge_series("x", device="gpu") is other.gauge_series("y")
    assert histogram is recorder.histogram("x", device="gpu") is other.histogram("y")
    assert len({id(counter), id(gauge), id(histogram)}) == 3
    counter.inc()
    counter.inc(2.5)
    gauge.set(1.0)
    histogram.observe(0.5)
    histogram.observe_many([0.1, 0.2])
    # Stateless: nothing to carry between calls or across recorders.
    for handle in (counter, gauge, histogram):
        assert not hasattr(handle, "__dict__")


def test_collector_handles_are_the_registry_series():
    collector = Collector()
    assert collector.counter("c", k="v") is collector.registry.counter("c", k="v")
    assert collector.gauge_series("g") is collector.registry.gauge("g")
    assert collector.histogram("h", d="x") is collector.registry.histogram("h", d="x")


def test_handle_increments_snapshot_like_the_facade():
    facade, bound = Collector(), Collector()
    facade.count("jobs", tier="edge")
    facade.count("jobs", 2.5, tier="edge")
    facade.gauge("depth", 4.0)
    facade.gauge("depth", 1.0)
    facade.observe("lat", 0.3, device="gpu")
    facade.observe_batch("lat", [0.1, 7.0, 0.02], device="gpu")

    jobs = bound.counter("jobs", tier="edge")
    jobs.inc()
    jobs.inc(2.5)
    depth = bound.gauge_series("depth")
    depth.set(4.0)
    depth.set(1.0)
    lat = bound.histogram("lat", device="gpu")
    lat.observe(0.3)
    lat.observe_many([0.1, 7.0, 0.02])

    assert bound.snapshot() == facade.snapshot()
    assert bound.metrics_json() == facade.metrics_json()


def test_kind_clash_through_handles_raises():
    collector = Collector()
    collector.count("x", device="gpu")
    with pytest.raises(TypeError, match="already registered as Counter"):
        collector.histogram("x", device="gpu")
    collector.gauge_series("y")
    with pytest.raises(TypeError, match="already registered as Gauge"):
        collector.counter("y")
    with pytest.raises(TypeError, match="already registered as Gauge"):
        collector.observe("y", 1.0)


def test_handle_cache_binds_each_key_once_on_first_read():
    collector = Collector()
    binds = []

    def bind(vehicle):
        binds.append(vehicle)
        return collector.counter("tx", vehicle=vehicle)

    cache = HandleCache(bind)
    assert collector.snapshot()["counters"] == {}  # nothing bound yet
    cache["v1"].inc()
    cache["v1"].inc()
    cache["v2"].inc(3.0)
    assert binds == ["v1", "v2"]
    assert collector.snapshot()["counters"] == {"tx{vehicle=v1}": 2.0, "tx{vehicle=v2}": 3.0}


def _drive_partition(vehicles):
    """One in-process partition driven round by round, its own outbound
    fed back as the next round's inbound (the single-process exchange)."""
    from repro.fleet import FleetConfig, PartitionRuntime

    config = FleetConfig(
        seed=5, vehicles=vehicles, partitions=1, duration_s=3.0,
        with_services=False, beacon_period_s=0.5,
    )
    runtime = PartitionRuntime(config.spec_for(0))
    runtime.launch()
    inbound = ()
    for round_index, barrier_s in enumerate(config.barriers()):
        inbound = runtime.advance(round_index, barrier_s, inbound).outbound
    return runtime


def test_v2v_counters_bind_lazily_per_vehicle():
    lone = _drive_partition(1)
    assert lone.config.neighbors(0) == ()
    counters = lone.metrics_snapshot()["counters"]
    assert not [key for key in counters if key.startswith("fleet.v2v_")]

    pair = _drive_partition(2)
    counters = pair.metrics_snapshot()["counters"]
    tx = {k: v for k, v in counters.items() if k.startswith("fleet.v2v_tx{")}
    rx = {k: v for k, v in counters.items() if k.startswith("fleet.v2v_rx{")}
    assert len(tx) == len(rx) == 2
    assert pair.bus.received > 0
    assert sum(tx.values()) == pair.bus.sent
    assert sum(rx.values()) == pair.bus.received
