"""Metric primitives and the registry: counters, gauges, histograms.

Everything here is deterministic by construction: no wall clock, no RNG,
and every export path (snapshot, merge, JSON) iterates metrics in sorted
key order so two identical-seed runs serialize byte-identically.

The registry is label-aware -- ``registry.counter("net.packets",
link="lte")`` and ``registry.counter("net.packets", link="dsrc")`` are
distinct series -- and snapshots are plain nested dicts, so they merge
with ordinary dictionary code (and round-trip through JSON).

:class:`Summary` and :class:`Timeline` (formerly ``repro.metrics``,
now fully migrated here) live here too.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ALPHA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Summary",
    "Timeline",
    "merge_snapshots",
    "merge_many",
    "mergeable_view",
]

#: Relative accuracy of every histogram quantile (DDSketch's alpha).
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)


def _edge_ladder() -> tuple[float, ...]:
    """Geometric edges ``1e-9 * gamma**k`` up to 1e9, by repeated
    multiplication (plain IEEE arithmetic, identical on every host)."""
    edges = [1e-9]
    while edges[-1] < 1e9:
        edges.append(edges[-1] * _GAMMA)
    return tuple(edges)


#: Inclusive upper bucket edges shared by every histogram.  Bucket ``i``
#: holds ``(_EDGES[i-1], _EDGES[i]]``; bucket 0 takes everything at or
#: below 1e-9 (zero queue depths, float-noise negatives) and bucket
#: ``len(_EDGES)`` everything above the top edge (overflow).
_EDGES = _edge_ladder()
_EDGES_ARR = np.asarray(_EDGES, dtype=float)
#: Per-bucket quantile representative, clamped to [min, max] on use:
#: ``2 * edge / (gamma + 1)`` is within ALPHA of every value in its
#: bucket; bucket 0 reads as zero and the overflow bucket as the max.
_REPRESENTATIVES = (
    (0.0,) + tuple(2.0 * edge / (_GAMMA + 1.0) for edge in _EDGES[1:]) + (float("inf"),)
)
#: Largest batch :meth:`Histogram.observe_many` indexes with a scalar
#: ``bisect_left`` loop; bigger batches go through numpy.  The DSF
#: flushes batches of about four samples, where ``np.unique`` +
#: ``searchsorted`` cost about 17 us against 2.5 us for the loop.  On a
#: 2-core Intel Xeon host (Python 3.11, numpy 2.4) the two cost the
#: same at about 64 samples (32 us vs 34 us); numpy is 2.7x faster at
#: 2,000.
OBSERVE_LOOP_MAX = 64
#: Snapshot key and quantile of every tracked histogram percentile.
TRACKED_QUANTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    """Render a label set as the canonical ``{k=v,...}`` suffix."""
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


@dataclass
class Counter:
    """A monotonically non-decreasing sum (events, bytes, joules)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the running total."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def to_snapshot(self) -> float:
        return self.value


@dataclass
class Gauge:
    """A spot value that moves both ways (queue depth, watermark, level)."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    last: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    sets: int = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.last = value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.sets += 1

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def to_snapshot(self) -> dict:
        if self.sets == 0:
            return {"last": 0.0, "min": 0.0, "max": 0.0, "sets": 0}
        return {
            "last": self.last,
            "min": self.minimum,
            "max": self.maximum,
            "sets": self.sets,
        }


def _quantiles(buckets, count: int, minimum: float, maximum: float) -> dict:
    """p50/p95/p99 of a sketch, from its snapshot fields alone.

    ``buckets`` is the sorted ``[[index, count], ...]`` snapshot list.  The
    quantile ``q`` is the representative of the bucket holding the sample
    at rank ``floor(q * (count - 1))``, clamped to ``[minimum, maximum]``.
    Live snapshots, merges and the mergeable view all read quantiles
    here, so a merged quantile is exactly what one registry would report.
    """
    if not count:
        return {key: 0.0 for key, _ in TRACKED_QUANTILES}
    out = {}
    pairs = iter(buckets)
    index, seen = 0, 0
    for key, q in TRACKED_QUANTILES:
        rank = int(q * (count - 1))
        while seen <= rank:
            index, n = next(pairs)
            seen += n
        out[key] = min(max(_REPRESENTATIVES[index], minimum), maximum)
    return out


@dataclass
class Histogram:
    """Relative-error log-bucket sketch (DDSketch: Masson, Rim & Lee,
    VLDB 2019).

    Exact count/sum/min/max plus a sparse ``{bucket index: count}`` map
    over the shared :data:`_EDGES` ladder.  Every tracked quantile is
    within :data:`ALPHA` (relative) of the true order statistic, and two
    sketches merge by adding bucket counts.
    """

    name: str
    labels: tuple[tuple[str, str], ...] = ()
    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(_EDGES, value)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def observe_many(self, values) -> None:
        """Feed a batch of samples; exactly equivalent to n observes.

        Batches up to :data:`OBSERVE_LOOP_MAX` samples bisect one at a
        time; larger ones index through ``searchsorted``, which matches
        ``bisect_left`` element for element.  The running sum and min/max
        take the samples in order either way, so the float ``sum`` is
        bit-identical to calling :meth:`observe` per sample.
        """
        size = len(values)
        if size == 0:
            return
        buckets = self.buckets
        if size <= OBSERVE_LOOP_MAX:
            samples = [float(value) for value in values]
            for value in samples:
                index = bisect_left(_EDGES, value)
                buckets[index] = buckets.get(index, 0) + 1
        else:
            arr = np.asarray(values, dtype=float)
            indices, counts = np.unique(
                np.searchsorted(_EDGES_ARR, arr, side="left"), return_counts=True
            )
            for index, n in zip(indices.tolist(), counts.tolist()):
                buckets[index] = buckets.get(index, 0) + n
            samples = arr.tolist()
        self.count += size
        total = self.total
        minimum = self.minimum
        maximum = self.maximum
        for value in samples:
            total += value
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def key(self) -> str:
        return self.name + _label_suffix(self.labels)

    def to_snapshot(self) -> dict:
        snap = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "buckets": [[i, n] for i, n in sorted(self.buckets.items())],
        }
        snap.update(_quantiles(snap["buckets"], self.count, snap["min"], snap["max"]))
        return snap


class MetricRegistry:
    """Get-or-create home of every metric series, keyed by name + labels.

    The kind of a series is fixed at first use: asking for a counter named
    like an existing gauge is a bug and raises.
    """

    def __init__(self):
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    @staticmethod
    def _labels_key(labels: dict) -> tuple[tuple[str, str], ...]:
        # Per-event hot path: most series carry zero or one label, where
        # sorting is a no-op -- skip the generator + sorted() machinery.
        if not labels:
            return ()
        if len(labels) == 1:
            ((k, v),) = labels.items()
            return ((str(k), str(v)),)
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _get_or_create(self, kind, name: str, labels: dict):
        key = (name, self._labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name=name, labels=key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter series for ``name`` + ``labels`` (created on first use)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge series for ``name`` + ``labels``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram series for ``name`` + ``labels``."""
        return self._get_or_create(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def series(self) -> list:
        """All metric objects in sorted key order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """Plain-dict view of every series, sorted by key: mergeable,
        JSON-serializable, and stable across identical runs."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.series():
            if isinstance(metric, Counter):
                out["counters"][metric.key] = metric.to_snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][metric.key] = metric.to_snapshot()
            else:
                out["histograms"][metric.key] = metric.to_snapshot()
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON export of the current snapshot (sorted keys)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def merge_snapshots(a: dict, b: dict) -> dict:
    """Combine snapshots from two runs/registries into one aggregate.

    Counters and histogram buckets/counts/sums add; gauges combine min/max
    and keep ``b``'s last reading; merged histogram quantiles are read
    from the combined buckets, so they equal a single registry's exactly.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for key in sorted(set(a.get("counters", {})) | set(b.get("counters", {}))):
        out["counters"][key] = a.get("counters", {}).get(key, 0.0) + b.get(
            "counters", {}
        ).get(key, 0.0)
    for key in sorted(set(a.get("gauges", {})) | set(b.get("gauges", {}))):
        ga = a.get("gauges", {}).get(key)
        gb = b.get("gauges", {}).get(key)
        if ga is None or gb is None:
            out["gauges"][key] = dict(gb or ga)
            continue
        out["gauges"][key] = {
            "last": gb["last"] if gb["sets"] else ga["last"],
            "min": min(ga["min"], gb["min"]) if ga["sets"] and gb["sets"] else (ga if ga["sets"] else gb)["min"],
            "max": max(ga["max"], gb["max"]) if ga["sets"] and gb["sets"] else (ga if ga["sets"] else gb)["max"],
            "sets": ga["sets"] + gb["sets"],
        }
    for key in sorted(set(a.get("histograms", {})) | set(b.get("histograms", {}))):
        ha = a.get("histograms", {}).get(key)
        hb = b.get("histograms", {}).get(key)
        if ha is None or hb is None:
            out["histograms"][key] = dict(hb or ha)
            continue
        combined = dict(ha["buckets"])
        for index, n in hb["buckets"]:
            combined[index] = combined.get(index, 0) + n
        count = ha["count"] + hb["count"]
        merged = {
            "count": count,
            "sum": ha["sum"] + hb["sum"],
            "min": min(ha["min"], hb["min"]) if ha["count"] and hb["count"] else (ha if ha["count"] else hb)["min"],
            "max": max(ha["max"], hb["max"]) if ha["count"] and hb["count"] else (ha if ha["count"] else hb)["max"],
            "buckets": [[i, n] for i, n in sorted(combined.items())],
        }
        merged["mean"] = merged["sum"] / count if count else 0.0
        merged.update(_quantiles(merged["buckets"], count, merged["min"], merged["max"]))
        out["histograms"][key] = merged
    return out


def merge_many(snapshots: "list[dict] | tuple[dict, ...]") -> dict:
    """Fold any number of snapshots into one aggregate (left to right).

    The fleet-merge entry point: a coordinator collects one snapshot per
    partition and merges them into the single-registry view an unsharded
    run would have produced.  An empty list merges to an empty snapshot.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        out = merge_snapshots(out, snap)
    return out


def _quantize(value: float) -> float:
    """Collapse float-summation order noise (9 significant digits)."""
    return float(f"{value:.9g}")


def mergeable_view(snapshot: dict) -> dict:
    """The partition-invariant core of a snapshot.

    Sharding a simulation changes *how* metrics are accumulated, not what
    happened: per-partition registries merged with :func:`merge_many`
    must equal the single-registry run on every series that aggregates
    commutatively.  This view keeps exactly that subset:

    * counters -- sums, kept (quantized: float addition orders differ);
    * gauges -- ``min``/``max``/``sets`` kept, ``last`` dropped (which
      vehicle recorded last depends on registry interleaving);
    * histograms -- everything kept: ``count``/``buckets`` and the
      p50/p95/p99 read from them are exact under any merge order, and
      ``sum``/``mean`` are quantized (``min``/``max`` too, for symmetry);
    * ``sim.queue_depth`` dropped entirely (the shared queue's depth is a
      property of the partitioning, not the workload).

    Two runs of the same fleet at different partition counts must produce
    byte-identical mergeable views -- that equality is asserted in CI.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for key, value in snapshot.get("counters", {}).items():
        out["counters"][key] = _quantize(value)
    for key, gauge in snapshot.get("gauges", {}).items():
        if key.startswith("sim.queue_depth"):
            continue
        out["gauges"][key] = {
            "min": _quantize(gauge["min"]),
            "max": _quantize(gauge["max"]),
            "sets": gauge["sets"],
        }
    for key, hist in snapshot.get("histograms", {}).items():
        if key.startswith("sim.queue_depth"):
            continue
        view = {
            "count": hist["count"],
            "sum": _quantize(hist["sum"]),
            "min": _quantize(hist["min"]),
            "max": _quantize(hist["max"]),
            "mean": _quantize(hist["mean"]),
            "buckets": list(hist["buckets"]),
        }
        view.update(_quantiles(hist["buckets"], hist["count"], hist["min"], hist["max"]))
        out["histograms"][key] = view
    return out


class Summary:
    """Streaming summary of a scalar metric (latencies, losses, ...).

    Formerly ``repro.metrics.Summary``.  Samples are retained, but the
    numpy array backing mean/percentile queries is materialized once per
    batch of records and cached -- long drive scenarios query percentiles
    every tick, and re-building the array per call was quadratic.
    """

    def __init__(self, name: str, samples: list[float] | None = None):
        self.name = name
        self.samples: list[float] = [float(v) for v in samples] if samples else []
        self._cache: np.ndarray | None = None

    def record(self, value: float) -> None:
        self.samples.append(float(value))
        self._cache = None

    def _array(self) -> np.ndarray:
        if self._cache is None or len(self._cache) != len(self.samples):
            self._cache = np.asarray(self.samples, dtype=float)
        return self._cache

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self._array())) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return float(np.max(self._array())) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return float(np.percentile(self._array(), q)) if self.samples else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def row(self) -> dict:
        """A report row (what the benches print)."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


class Timeline:
    """(time, value) series, e.g. pipeline choice or loss over a drive.

    Formerly ``repro.metrics.Timeline``.
    """

    def __init__(self, name: str, times=None, values=None):
        self.name = name
        self.times: list[float] = list(times) if times else []
        self.values: list = list(values) if values else []

    def record(self, time_s: float, value) -> None:
        if self.times and time_s < self.times[-1]:
            raise ValueError("timeline must be recorded in time order")
        self.times.append(float(time_s))
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time_s: float):
        """Last value recorded at or before ``time_s``."""
        if not self.times or time_s < self.times[0]:
            return None
        idx = int(np.searchsorted(self.times, time_s, side="right")) - 1
        return self.values[idx]

    def changes(self) -> int:
        """Number of times the value switched."""
        return sum(1 for a, b in zip(self.values, self.values[1:]) if a != b)
