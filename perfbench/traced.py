"""The traced pass: per-layer metrics for one workload.

Fleet workloads drive the workload's in-process equivalent three ways:
plain (timed), with a no-op ``Recorder`` substituted for the
``Collector`` (the ``obs.cost_s`` row), and under a :class:`LayerTracer`
(layer self times and exact counts).  Partitioned workloads use
``run_inline`` -- the same shards and ``PartitionRuntime`` without
processes -- for that split, and one real ``FleetCoordinator`` run with
its parent pipes tapped for the ``fleet.*`` metrics.  Every drive is
checked against the same reference digest as the untraced runs.

``trace.overhead_s`` is the traced drive's wall time minus the plain
one's.  Metrics of a layer the workload never enters read 0.
"""

from __future__ import annotations

import time  # vdaplint: disable=DET001
from statistics import median
from typing import Callable

from kernel_sweep import BACKENDS, SIZES, kernel_sweep, metric_name
from layer_trace import LayerTracer, install_layer_spans, patched
from repro.fleet import FleetResult, run_inline, run_single_process
from repro.fleet import runtime as runtime_module
from repro.obs.recorder import Recorder
from workloads import (
    FleetWorkload,
    Outcome,
    PerceptionWorkload,
    drive_inline,
    drive_partitioned,
    expected_fleet_digest,
    fleet_digest,
    frame_image,
    check_frame,
    perceive,
    train_detectors,
)

__all__ = ["PER_LAYER", "NullCollector", "trace_fleet", "trace_perception"]

clock = time.perf_counter  # vdaplint: disable=DET001

#: Every per-layer metric and its unit, in print order.
PER_LAYER: dict[str, str] = {
    "sim.events": "count",
    "sim.pending_max": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    **{
        metric_name(backend, size): "1/s"
        for backend in BACKENDS
        for size in SIZES
    },
    "obs.calls": "count",
    "obs.self_s": "s",
    "obs.share": "fraction",
    "obs.merge_s": "s",
    "obs.cost_s": "s",
    "vcu.dsf_submits": "count",
    "vcu.self_s": "s",
    "edgeos.choose_calls": "count",
    "edgeos.self_s": "s",
    "offload.place_s": "s",
    "trace_hash.self_s": "s",
    "fleet.rounds": "count",
    "fleet.envelopes": "count",
    "fleet.critical_events": "count",
    "fleet.imbalance": "ratio",
    "fleet.critical_busy_s": "s",
    "fleet.sync_s": "s",
    "fleet.msg_bytes_per_round": "B",
    "fleet.round_ms_p50": "ms",
    "fleet.round_ms_max": "ms",
    "fleet.build_s": "s",
    "fleet.spawn_s": "s",
    "vision.lane_ms": "ms",
    "vision.haar_ms": "ms",
    "nn.cnn_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.cnn_windows": "count",
    "nn.cnn_windows_per_s": "1/s",
    "nn.train_s": "s",
    "vision.haar_train_s": "s",
    "trace.drive_s": "s",
    "trace.overhead_s": "s",
}


class NullCollector(Recorder):
    """The no-op recorder, plus the empty snapshot a partition reports."""

    def snapshot(self) -> dict:
        return {}


def _timed(fn: Callable[[], FleetResult]) -> tuple[FleetResult, float]:
    start = clock()
    result = fn()
    return result, clock() - start


def _checked(outcome: Outcome, what: str, expected: str | None,
             fn: Callable[[], FleetResult]) -> tuple[FleetResult, float] | None:
    done = outcome.attempt(what, lambda: _timed(fn))
    if done is None:
        return None
    digest = fleet_digest(done[0])
    if digest != expected:
        outcome.fail(f"{what}: digest {digest} != reference {expected}")
        return None
    return done


def trace_fleet(workload: FleetWorkload, seed: int, seconds: float,
                pins: dict) -> tuple[dict[str, float], Outcome]:
    config = workload.config(seed)
    outcome = Outcome()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    expected = expected_fleet_digest(workload, config, outcome, pins)
    if workload.partitioned:
        def in_process() -> FleetResult:
            return run_inline(config)
    else:
        def in_process() -> FleetResult:
            return run_single_process(config)

    # Plain vs no-op recorder, alternating, within half the budget.
    plain: list[float] = []
    null: list[float] = []
    deadline = clock() + seconds / 2
    while not plain or (clock() < deadline and len(plain) < 3):
        done = _checked(outcome, f"{workload.name} plain", expected, in_process)
        if done is not None:
            plain.append(done[1])
        with patched(runtime_module, "Collector", NullCollector):
            done = _checked(outcome, f"{workload.name} no-op recorder", expected,
                            in_process)
        if done is not None:
            null.append(done[1])
    if plain and null:
        metrics["obs.cost_s"] = median(plain) - median(null)

    tracer = LayerTracer()
    install_layer_spans(tracer)
    with tracer:
        done = _checked(outcome, f"{workload.name} traced", expected, in_process)
    if done is not None and plain:
        result, wall = done
        _layer_metrics(metrics, tracer, result, wall)
        metrics["trace.drive_s"] = wall
        metrics["trace.overhead_s"] = wall - median(plain)

    if workload.partitioned:
        done = outcome.attempt(f"{workload.name} coordinator",
                               lambda: drive_partitioned(config, wire=True))
        if done is not None:
            result, timing, probe = done
            digest = fleet_digest(result)
            if digest != expected:
                outcome.fail(f"{workload.name} coordinator: digest {digest} "
                             f"!= reference {expected}")
            else:
                _coordinator_metrics(metrics, result, timing, probe)
    else:
        done = outcome.attempt(f"{workload.name} build", lambda: drive_inline(config))
        if done is not None:
            result, timing = done
            metrics["fleet.rounds"] = result.stats.rounds
            metrics["fleet.envelopes"] = result.stats.envelopes_routed
            metrics["fleet.critical_events"] = result.stats.critical_events()
            metrics["fleet.imbalance"] = 1.0
            metrics["fleet.build_s"] = timing.setup_s
    _sweep(metrics, outcome, seed)
    return metrics, outcome


def _layer_metrics(metrics: dict[str, float], tracer: LayerTracer,
                   result: FleetResult, wall: float) -> None:
    events = result.stats.events_fired
    self_s = tracer.self_s
    metrics["sim.events"] = events
    metrics["sim.pending_max"] = tracer.maxima["sim.pending_max"]
    metrics["sim.self_s"] = self_s["sim"]
    metrics["sim.us_per_event"] = self_s["sim"] / events * 1e6 if events else 0.0
    metrics["obs.calls"] = tracer.calls["obs.calls"]
    metrics["obs.self_s"] = self_s["obs"]
    metrics["obs.share"] = self_s["obs"] / wall
    metrics["obs.merge_s"] = self_s["obs.merge"]
    metrics["vcu.dsf_submits"] = tracer.calls["vcu.dsf_submits"]
    metrics["vcu.self_s"] = self_s["vcu"]
    metrics["edgeos.choose_calls"] = tracer.calls["edgeos.choose_calls"]
    metrics["edgeos.self_s"] = self_s["edgeos"]
    metrics["offload.place_s"] = self_s["offload"]
    metrics["trace_hash.self_s"] = self_s["trace_hash"]


def _coordinator_metrics(metrics: dict[str, float], result: FleetResult,
                         timing, probe) -> None:
    stats = result.stats
    partitions = result.config.partitions
    critical_busy = max(stats.partition_busy_s.values())
    rounds_ms = probe.round_ms()
    metrics["fleet.rounds"] = stats.rounds
    metrics["fleet.envelopes"] = stats.envelopes_routed
    metrics["fleet.critical_events"] = stats.critical_events()
    metrics["fleet.imbalance"] = (
        stats.critical_events() * partitions / stats.events_fired
    )
    metrics["fleet.critical_busy_s"] = critical_busy
    metrics["fleet.sync_s"] = timing.drive_s - critical_busy
    metrics["fleet.msg_bytes_per_round"] = probe.msg_bytes / stats.rounds
    metrics["fleet.round_ms_p50"] = median(rounds_ms)
    metrics["fleet.round_ms_max"] = max(rounds_ms)
    metrics["fleet.spawn_s"] = probe.spawn_s
    metrics["fleet.build_s"] = probe.hello_at - probe.spawned_at


def _sweep(metrics: dict[str, float], outcome: Outcome, seed: int) -> None:
    done = outcome.attempt("kernel sweep", lambda: kernel_sweep(seed))
    if done is None:
        return
    rates, mismatches = done
    metrics.update(rates)
    for mismatch in mismatches:
        outcome.fail(f"kernel sweep: {mismatch}")


def trace_perception(workload: PerceptionWorkload, seed: int, seconds: float,
                     pins: dict) -> tuple[dict[str, float], Outcome]:
    from repro.nn.network import Sequential
    from repro.vision import table1

    outcome = Outcome()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    tracer = LayerTracer()
    tracer.wrap(table1, "train_cnn_detector", "nn.train")
    tracer.wrap(table1, "train_haar_detector", "vision.haar_train")
    with tracer:
        trained = outcome.attempt(f"{workload.name} training", train_detectors)
    if trained is None:
        return metrics, outcome
    haar, cnn, _timing = trained
    metrics["nn.train_s"] = tracer.total_s["nn.train"]
    metrics["vision.haar_train_s"] = tracer.total_s["vision.haar_train"]

    def frame(index: int, traced: bool):
        """One checked frame; (result, seconds in CNN forward passes)."""
        img = frame_image(workload, seed, index)
        spans = LayerTracer()
        if traced:
            spans.wrap(Sequential, "predict_proba", "nn.forward")
        with spans:
            result = outcome.attempt(f"{workload.name} frame {index}",
                                     lambda: perceive(haar, cnn, img))
        if result is None:
            return None
        why = check_frame(workload, seed, index, cnn, img, result, pins)
        if why is not None:
            outcome.fail(f"{workload.name} seed {seed}: {why}")
            return None
        return result, spans.total_s["nn.forward"]

    plain = [frame(0, traced=False), frame(1, traced=False)]
    traced = [frame(0, traced=True), frame(1, traced=True)]
    if all(plain) and all(traced):
        def wall(frames):
            return sum(f.lane_s + f.haar_s + f.cnn_s for f, _forward in frames)

        count = len(traced)
        windows = sum(f.cnn_windows for f, _forward in traced)
        cnn_s = sum(f.cnn_s for f, _forward in traced)
        metrics["vision.lane_ms"] = sum(f.lane_s for f, _ in traced) / count * 1e3
        metrics["vision.haar_ms"] = sum(f.haar_s for f, _ in traced) / count * 1e3
        metrics["nn.cnn_ms"] = cnn_s / count * 1e3
        metrics["nn.forward_ms"] = sum(fwd for _, fwd in traced) / count * 1e3
        metrics["nn.cnn_windows"] = windows
        metrics["nn.cnn_windows_per_s"] = windows / cnn_s
        metrics["trace.drive_s"] = wall(traced)
        metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    _sweep(metrics, outcome, seed)
    return metrics, outcome
