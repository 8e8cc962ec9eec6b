"""Metric primitives: counters, gauges, histograms, registry, snapshots."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    merge_snapshots,
    mergeable_view,
)
from repro.obs.metrics import _EDGES, ALPHA, OBSERVE_LOOP_MAX, TRACKED_QUANTILES


def test_counter_accumulates_and_rejects_negative():
    counter = Counter("jobs")
    counter.inc()
    counter.inc(4.5)
    assert counter.value == pytest.approx(5.5)
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_tracks_last_min_max():
    gauge = Gauge("depth")
    for value in (3.0, 1.0, 7.0):
        gauge.set(value)
    snap = gauge.to_snapshot()
    assert snap == {"last": 7.0, "min": 1.0, "max": 7.0, "sets": 3}


def test_gauge_empty_snapshot_is_zeros():
    assert Gauge("x").to_snapshot() == {"last": 0.0, "min": 0.0, "max": 0.0, "sets": 0}


def test_registry_label_sets_are_distinct_series():
    registry = MetricRegistry()
    registry.counter("net.packets", link="lte").inc()
    registry.counter("net.packets", link="dsrc").inc(2)
    registry.counter("net.packets", link="lte").inc()
    snap = registry.snapshot()
    assert snap["counters"]["net.packets{link=lte}"] == 2.0
    assert snap["counters"]["net.packets{link=dsrc}"] == 2.0


def test_registry_label_order_is_canonical():
    registry = MetricRegistry()
    registry.counter("m", b="2", a="1").inc()
    registry.counter("m", a="1", b="2").inc()
    assert len(registry) == 1
    assert registry.snapshot()["counters"]["m{a=1,b=2}"] == 2.0


def test_registry_kind_conflict_raises():
    registry = MetricRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x", )


def test_snapshot_is_json_round_trippable():
    registry = MetricRegistry()
    registry.counter("a").inc(3)
    registry.gauge("b").set(1.5)
    registry.histogram("c").observe(0.2)
    text = registry.to_json()
    assert json.loads(text) == registry.snapshot()


# -- histograms ------------------------------------------------------------

def _bucket_of(value: float) -> int:
    """Bucket holding ``value`` on the shared ladder."""
    return int(np.searchsorted(_EDGES, value, side="left"))


def _sketch(values) -> Histogram:
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    return hist


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
samples = st.lists(
    st.one_of(positive, st.just(0.0), st.floats(min_value=-1e-15, max_value=1e-15)),
    min_size=1,
    max_size=60,
)


def test_histogram_empty_snapshot():
    snap = Histogram("h").to_snapshot()
    assert snap["count"] == 0
    assert snap["min"] == 0.0 and snap["max"] == 0.0 and snap["mean"] == 0.0
    assert snap["buckets"] == []
    assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0


def test_histogram_single_sample():
    hist = Histogram("h")
    hist.observe(0.5)
    snap = hist.to_snapshot()
    assert snap["count"] == 1
    assert snap["buckets"] == [[_bucket_of(0.5), 1]]
    assert snap["min"] == snap["max"] == 0.5
    # Quantiles are clamped to [min, max]: one sample reads back exactly.
    assert snap["p50"] == snap["p99"] == 0.5


def test_histogram_out_of_range_goes_to_overflow_bucket():
    hist = Histogram("h")
    hist.observe(1e12)
    hist.observe(-3.0)  # below every edge: lands in bucket 0
    assert hist.buckets == {0: 1, len(_EDGES): 1}
    assert hist.minimum == -3.0 and hist.maximum == 1e12
    assert hist.to_snapshot()["p50"] == 0.0  # bucket 0 reads as zero
    assert _sketch([2e12, 1e12]).to_snapshot()["p50"] == 2e12  # overflow reads as max


def test_histogram_bucket_edges_are_inclusive_upper():
    edge = _EDGES[100]
    hist = _sketch([edge, float(np.nextafter(edge, np.inf))])
    # Exactly on an edge belongs to that bucket; one ulp above, to the next.
    assert hist.buckets == {100: 1, 101: 1}
    assert _EDGES[101] / _EDGES[100] == pytest.approx((1 + ALPHA) / (1 - ALPHA))


def test_histogram_default_buckets_cover_platform_latencies():
    hist = _sketch([1e-6, 0.003, 45.0, 300.0, 1e5])
    overflow = len(_EDGES)
    assert hist.count == 5 and sum(hist.buckets.values()) == 5
    assert all(0 < index < overflow for index in hist.buckets)


def test_histogram_zero_and_tiny_negatives_land_in_bucket_zero():
    hist = _sketch([0.0, -4.2e-17, -9.3e-16, 1e-9])
    assert hist.buckets == {0: 4}
    snap = hist.to_snapshot()
    for key, _ in TRACKED_QUANTILES:
        assert snap["min"] <= snap[key] <= snap["max"]


@given(values=samples)
@settings(max_examples=200)
def test_quantiles_stay_inside_min_max(values):
    snap = _sketch(values).to_snapshot()
    for key, _ in TRACKED_QUANTILES:
        assert snap["min"] <= snap[key] <= snap["max"]


@given(values=st.lists(positive, min_size=1, max_size=200))
@settings(max_examples=200)
def test_quantiles_within_alpha_of_exact_order_statistic(values):
    snap = _sketch(values).to_snapshot()
    ordered = sorted(values)
    for key, q in TRACKED_QUANTILES:
        exact = ordered[int(q * (len(values) - 1))]
        # The ladder is built by repeated multiplication: allow rounding.
        assert abs(snap[key] - exact) <= ALPHA * exact * (1 + 1e-9)


@given(values=samples)
@settings(max_examples=200)
def test_observe_many_equals_observe_per_sample(values):
    batched = Histogram("h")
    batched.observe_many(values)
    # Snapshot equality covers buckets, min/max and a bit-identical sum.
    assert batched.to_snapshot() == _sketch(values).to_snapshot()


#: Batch sizes on both sides of the loop/numpy crossover, edges included.
crossover_sizes = st.sampled_from(
    [1, 4, OBSERVE_LOOP_MAX - 1, OBSERVE_LOOP_MAX, OBSERVE_LOOP_MAX + 1,
     3 * OBSERVE_LOOP_MAX]
)
sample_value = st.one_of(
    positive, st.just(0.0), st.integers(min_value=0, max_value=10 ** 6),
    st.floats(min_value=-1e9, max_value=1e12, allow_nan=False),
    st.sampled_from(_EDGES),
)


@given(data=st.data(), size=crossover_sizes, as_array=st.booleans())
@settings(max_examples=150)
def test_observe_many_equals_observe_across_the_crossover(data, size, as_array):
    values = data.draw(st.lists(sample_value, min_size=size, max_size=size))
    batched = Histogram("h")
    batched.observe_many(np.asarray(values, dtype=float) if as_array else values)
    single = _sketch(values)
    assert batched == single
    assert json.dumps(batched.to_snapshot()) == json.dumps(single.to_snapshot())


@given(a=samples, b=samples)
@settings(max_examples=200)
def test_merge_equals_sketch_of_concatenation(a, b):
    merged = merge_snapshots(
        {"histograms": {"h": _sketch(a).to_snapshot()}},
        {"histograms": {"h": _sketch(b).to_snapshot()}},
    )["histograms"]["h"]
    whole = _sketch(a + b).to_snapshot()
    assert merged["buckets"] == whole["buckets"]
    for key in ("count", "min", "max", "p50", "p95", "p99"):
        assert merged[key] == whole[key], key
    assert merged["sum"] == pytest.approx(whole["sum"], rel=1e-12, abs=1e-12)


def test_mergeable_view_keeps_quantiles():
    snap = _loaded_registry().snapshot()
    view = mergeable_view(snap)["histograms"]["lat"]
    for key, _ in TRACKED_QUANTILES:
        assert view[key] == snap["histograms"]["lat"][key]


# -- snapshot algebra ------------------------------------------------------


def _loaded_registry(extra: float = 0.0) -> MetricRegistry:
    registry = MetricRegistry()
    registry.counter("jobs", tier="edge").inc(3 + extra)
    registry.gauge("depth").set(2.0 + extra)
    hist = registry.histogram("lat")
    for value in (0.05, 0.5, 5.0):
        hist.observe(value + extra)
    return registry


def test_merge_snapshots_round_trip():
    a = _loaded_registry().snapshot()
    b = _loaded_registry(extra=1.0).snapshot()
    merged = merge_snapshots(a, b)
    assert merged["counters"]["jobs{tier=edge}"] == 7.0
    hist = merged["histograms"]["lat"]
    assert hist["count"] == 6
    assert hist["sum"] == pytest.approx(a["histograms"]["lat"]["sum"]
                                        + b["histograms"]["lat"]["sum"])
    assert hist["min"] == 0.05 and hist["max"] == 6.0
    assert sum(n for _, n in hist["buckets"]) == 6
    # Quantiles are read from the combined buckets: p50 is the 3rd of 6.
    assert hist["p50"] == pytest.approx(1.05, rel=ALPHA)
    gauge = merged["gauges"]["depth"]
    assert gauge == {"last": 3.0, "min": 2.0, "max": 3.0, "sets": 2}


def test_merge_disjoint_series_unions():
    a = MetricRegistry()
    a.counter("only.a").inc()
    b = MetricRegistry()
    b.counter("only.b").inc(5)
    merged = merge_snapshots(a.snapshot(), b.snapshot())
    assert merged["counters"] == {"only.a": 1.0, "only.b": 5.0}


def test_snapshot_json_is_stable_across_insertion_order():
    a = MetricRegistry()
    a.counter("z").inc()
    a.counter("a").inc()
    b = MetricRegistry()
    b.counter("a").inc()
    b.counter("z").inc()
    assert a.to_json() == b.to_json()
