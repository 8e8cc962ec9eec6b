"""The benchmark's workloads: timed drives and their output checks.

Each workload is one set of inputs derived from ``--seed``.  An untraced
run repeats set-up + drive for a fixed wall budget and keeps every
repetition's timings; every repetition's output is checked before its
timings count.  Timing hooks sit outside the program: the set-up/drive
split is read at ``PartitionRuntime.launch`` (inline) or at the parent's
pipe when the last worker ``Hello`` arrives (partitioned).

Output checks (a failure counts one failed run and never aborts):

* fleet -- a digest over per-vehicle trace hashes, ``events_fired`` and
  per-vehicle report counters (histogram quantiles are left out on
  purpose).  Every repetition must equal a cross-check reference run of
  the same config (``run_single_process`` for partitioned workloads, a
  2-partition ``run_inline`` for the inline one), and the pinned digest
  where ``pinned.json`` has one for the seed;
* perception -- lane lines and detection boxes exact, scores within
  :data:`CNN_SCORE_TOL` / :data:`HAAR_SUM_RTOL`, against ``pinned.json``
  for the probe frame (every run) and the pinned seeds' frames; every
  CNN detection is also re-scored one window at a time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import resource
import sys
import time  # vdaplint: disable=DET001
import traceback
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Any, Callable

import numpy as np

from layer_trace import patched
from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetResult,
    Hello,
    PartitionRuntime,
    run_inline,
    run_single_process,
)
from repro.fleet import coordinator as coordinator_module
from repro.fleet.transport import AdvanceCmd, RoundAck
from repro.vision.image import road_scene

__all__ = [
    "CAMERA_HZ",
    "CNN_SCORE_TOL",
    "FLEET_WORKLOADS",
    "HAAR_SUM_RTOL",
    "FleetWorkload",
    "Outcome",
    "PerceptionWorkload",
    "PipeProbe",
    "WORKLOADS",
    "check_frame",
    "drive_inline",
    "drive_partitioned",
    "expected_fleet_digest",
    "fleet_digest",
    "frame_image",
    "load_pins",
    "measure_fleet",
    "measure_perception",
    "peak_rss_mb",
    "perceive",
    "train_detectors",
]

clock = time.perf_counter  # vdaplint: disable=DET001
cpu_clock = time.process_time  # vdaplint: disable=DET001

#: A perception frame is 1/CAMERA_HZ vehicle-seconds of camera input.
CAMERA_HZ = 10.0
#: Batched vs one-window CNN forward passes may differ by float ulps.
CNN_SCORE_TOL = 1e-6
#: Relative tolerance on the sum of a frame's Haar ensemble scores.
HAAR_SUM_RTOL = 1e-9
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Wall budget per barrier before a worker counts as a straggler.
BARRIER_DEADLINE_S = 15.0
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


@dataclass(frozen=True)
class FleetWorkload:
    name: str
    why: str
    vehicles: int
    partitions: int
    duration_s: float
    style: str = "uniform"
    with_services: bool = True
    beacon_period_s: float = 2.0

    @property
    def partitioned(self) -> bool:
        return self.partitions > 1

    @property
    def vsim_per_drive(self) -> float:
        """Vehicle-seconds one drive simulates."""
        return self.vehicles * self.duration_s

    def config(self, seed: int) -> FleetConfig:
        return FleetConfig(
            seed=seed,
            vehicles=self.vehicles,
            partitions=self.partitions,
            duration_s=self.duration_s,
            workload=self.style,
            with_services=self.with_services,
            beacon_period_s=self.beacon_period_s,
            barrier_deadline_s=BARRIER_DEADLINE_S,
        )


@dataclass(frozen=True)
class PerceptionWorkload:
    name: str
    why: str
    width: int = 320
    height: int = 240
    vehicles_per_frame: int = 2
    setups: int = 3

    @property
    def vsim_per_drive(self) -> float:
        return 1.0 / CAMERA_HZ


FLEET_WORKLOADS = (
    FleetWorkload(
        "fleet-inline-128",
        "128 uniform vehicles in one process: obs and the heap kernel dominate, "
        "no coordinator, pipes or calendar queue",
        vehicles=128, partitions=1, duration_s=20.0,
    ),
    FleetWorkload(
        "fleet-skewed-2p",
        "128 skewed vehicles on 2 round-robin workers: the service stack works "
        "hardest and partition 0 carries every heavy vehicle",
        vehicles=128, partitions=2, duration_s=15.0, style="skewed",
    ),
    FleetWorkload(
        "fleet-v2v-1024-2p",
        "1,024 service-free vehicles, 0.5 s beacons, 2 workers: per-envelope "
        "kernel, trace-hash and coordinator cost at the fleet scale axis",
        vehicles=1024, partitions=2, duration_s=6.0, with_services=False,
        beacon_period_s=0.5,
    ),
)

PERCEPTION = PerceptionWorkload(
    "perception-320",
    "detector training then lane, Haar and CNN detection on 320x240 scenes: "
    "the only workload where repro.nn and repro.vision do the work",
)

WORKLOADS: dict[str, Any] = {w.name: w for w in (*FLEET_WORKLOADS, PERCEPTION)}


# -- outcome bookkeeping ---------------------------------------------------


@dataclass
class Outcome:
    """Runs attempted and failed, plus timings of the runs that passed."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    setup_cpu_s: list[float] = field(default_factory=list)
    drive_s: list[float] = field(default_factory=list)
    drive_cpu_s: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)
        print(f"FAILED: {why}", file=sys.stderr)

    def attempt(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as one attempted run; an exception fails it (None).

        Every run starts from a collected heap.  Otherwise the previous
        run's garbage is collected at an arbitrary point inside this one's
        timing: on ``fleet-inline-128`` that alone widened the spread of
        drive times from 6.5% to 23% (IQR over median, 30 drives).
        """
        self.attempted += 1
        gc.collect()
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a crashed run is a failed run
            self.fail(f"{what} raised:\n{traceback.format_exc()}")
            return None

    def end_to_end(self, vsim_per_drive: float) -> dict[str, float]:
        """The end-to-end metrics (0 where no run passed)."""
        if not self.drive_s or not self.setup_s:
            return {"setup_s": 0.0, "vsim_per_s": 0.0, "cpu_s": 0.0,
                    "peak_rss_mb": peak_rss_mb()}
        return {
            "setup_s": median(self.setup_s),
            "vsim_per_s": vsim_per_drive / median(self.drive_s),
            # Fleet repetitions time set-up and drive CPU together.
            "cpu_s": (median(self.setup_cpu_s) if self.setup_cpu_s else 0.0)
            + median(self.drive_cpu_s),
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- fleet drives ----------------------------------------------------------


@dataclass
class Timing:
    setup_s: float
    drive_s: float
    cpu_s: float


def fleet_digest(result: FleetResult) -> str:
    """Digest of the fleet's observable outcome (no histogram quantiles)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"events|{result.stats.events_fired}\n".encode())
    for vehicle, digest in sorted(result.vehicle_hashes.items()):
        h.update(f"hash|{vehicle}|{digest}\n".encode())
    for vehicle, report in sorted(result.vehicle_reports.items()):
        h.update(
            f"vehicle|{vehicle}|{report['v2v_records']}|"
            f"{report['vehicle_energy_j']!r}\n".encode()
        )
        for name, svc in sorted(report["services"].items()):
            h.update(
                f"svc|{vehicle}|{name}|{svc['invocations']}|"
                f"{svc['deadline_misses']}|{svc['hung_ticks']}|"
                f"{svc['pipeline_switches']}\n".encode()
            )
    return h.hexdigest()


def drive_inline(config: FleetConfig) -> tuple[FleetResult, Timing]:
    """``run_single_process``, split into set-up and drive at ``launch``."""
    launched: list[float] = []
    launch = PartitionRuntime.launch

    def timed_launch(runtime: PartitionRuntime) -> None:
        launch(runtime)
        launched.append(clock())

    with patched(PartitionRuntime, "launch", timed_launch):
        cpu0, t0 = cpu_clock(), clock()
        result = run_single_process(config)
        t1, cpu1 = clock(), cpu_clock()
    return result, Timing(launched[0] - t0, t1 - launched[0], cpu1 - cpu0)


class _TapPipe:
    """The parent's end of one worker pipe, observed from outside."""

    def __init__(self, inner, probe: "PipeProbe"):
        self._inner = inner
        self._probe = probe

    def send(self, message: Any) -> None:
        self._probe.on_send(message)
        self._inner.send(message)

    def recv(self, deadline_s: float) -> Any:
        message = self._inner.recv(deadline_s)
        self._probe.on_recv(message)
        return message

    def recv_blocking(self) -> Any:
        message = self._inner.recv_blocking()
        self._probe.on_recv(message)
        return message

    def close(self) -> None:
        self._inner.close()


class PipeProbe:
    """Stands in for ``spawn_worker`` in the coordinator and taps its pipes.

    Records when spawning started and ended, when each ``Hello`` arrived
    and, with ``wire=True``, the pickled size of every ``AdvanceCmd`` and
    ``RoundAck`` plus each round's wall time (first command sent to last
    ack received).
    """

    def __init__(self, wire: bool = False):
        self.wire = wire
        self.spawn_s = 0.0
        self.spawned_at: float | None = None
        self.hello_at: float | None = None
        self.msg_bytes = 0
        self.round_start: dict[int, float] = {}
        self.round_end: dict[int, float] = {}
        self._spawn = coordinator_module.spawn_worker

    def spawn(self, spec, start_method=None):
        start = clock()
        handle = self._spawn(spec, start_method)
        self.spawned_at = clock()
        self.spawn_s += self.spawned_at - start
        handle.pipe = _TapPipe(handle.pipe, self)
        return handle

    def on_send(self, message: Any) -> None:
        if self.wire and isinstance(message, AdvanceCmd):
            self.round_start.setdefault(message.round_index, clock())
            self.msg_bytes += len(_pickle(message))

    def on_recv(self, message: Any) -> None:
        if isinstance(message, Hello):
            self.hello_at = clock()
        elif self.wire and isinstance(message, RoundAck):
            self.round_end[message.round_index] = clock()
            self.msg_bytes += len(_pickle(message))

    def round_ms(self) -> list[float]:
        return [
            (self.round_end[r] - start) * 1e3
            for r, start in sorted(self.round_start.items())
            if r in self.round_end
        ]


def _pickle(message: Any) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def drive_partitioned(
    config: FleetConfig, wire: bool = False
) -> tuple[FleetResult, Timing, PipeProbe]:
    """A real ``FleetCoordinator`` run; set-up ends at the last ``Hello``."""
    probe = PipeProbe(wire=wire)
    with patched(coordinator_module, "spawn_worker", probe.spawn):
        child0, cpu0, t0 = children_cpu_s(), cpu_clock(), clock()
        with FleetCoordinator(config) as fleet:
            result = fleet.run()
        t1, cpu1, child1 = clock(), cpu_clock(), children_cpu_s()
    ready = probe.hello_at
    timing = Timing(ready - t0, t1 - ready, (cpu1 - cpu0) + (child1 - child0))
    return result, timing, probe


def fleet_reference(workload: FleetWorkload, config: FleetConfig) -> FleetResult:
    """The cross-check run every timed drive must reproduce."""
    if workload.partitioned:
        return run_single_process(config)
    return run_inline(replace(config, partitions=2))


def expected_fleet_digest(workload: FleetWorkload, config: FleetConfig,
                          outcome: Outcome, pins: dict) -> str | None:
    """Reference digest, itself checked against the pin (None if it failed)."""
    reference = outcome.attempt(
        f"{workload.name} reference", lambda: fleet_reference(workload, config)
    )
    if reference is None:
        return None
    digest = fleet_digest(reference)
    pinned = pins.get(workload.name, {}).get(str(config.seed))
    if pinned is not None and pinned["digest"] != digest:
        outcome.fail(
            f"{workload.name} seed {config.seed}: reference digest {digest} "
            f"!= pinned {pinned['digest']}"
        )
        return None
    return digest


def measure_fleet(workload: FleetWorkload, seed: int, seconds: float,
                  pins: dict) -> Outcome:
    """Untraced: repeat set-up + drive for ``seconds``, check every drive."""
    config = workload.config(seed)
    outcome = Outcome()
    runs: list[tuple[str, Timing]] = []
    deadline = clock() + seconds
    while outcome.attempted < MIN_REPS or clock() < deadline:
        if workload.partitioned:
            done = outcome.attempt(workload.name, lambda: drive_partitioned(config)[:2])
        else:
            done = outcome.attempt(workload.name, lambda: drive_inline(config))
        if done is not None:
            runs.append((fleet_digest(done[0]), done[1]))
    expected = expected_fleet_digest(workload, config, outcome, pins)
    for digest, timing in runs:
        if digest != expected:
            outcome.fail(f"{workload.name} seed {seed}: drive digest {digest} "
                         f"!= reference {expected}")
            continue
        outcome.setup_s.append(timing.setup_s)
        outcome.drive_s.append(timing.drive_s)
        outcome.drive_cpu_s.append(timing.cpu_s)
    return outcome


# -- perception ------------------------------------------------------------

#: The seed-independent scene every perception run checks first.
PROBE_SEED = 4242


def frame_image(workload: PerceptionWorkload, seed: int, index: int) -> np.ndarray:
    """Frame ``index`` of a run: 0 is the probe scene, then seeded scenes."""
    entropy = PROBE_SEED if index == 0 else [seed, index]
    img, _truth = road_scene(
        workload.width, workload.height,
        rng=np.random.default_rng(entropy),
        vehicle_count=workload.vehicles_per_frame,
    )
    return img


@dataclass
class FrameResult:
    """What the three detectors found on one frame, plus their timings."""

    lanes: list[list[float]]
    haar_count: int
    haar_boxes: str
    haar_score_sum: float
    cnn: list[list[float]]
    cnn_windows: int
    lane_s: float = 0.0
    haar_s: float = 0.0
    cnn_s: float = 0.0

    def pin(self) -> dict:
        return {
            "lanes": self.lanes,
            "haar_count": self.haar_count,
            "haar_boxes": self.haar_boxes,
            "haar_score_sum": self.haar_score_sum,
            "cnn": self.cnn,
            "cnn_windows": self.cnn_windows,
        }

    def mismatch(self, pinned: dict) -> str | None:
        """Why this frame differs from ``pinned``, or None."""
        for key in ("lanes", "haar_count", "haar_boxes", "cnn_windows"):
            if getattr(self, key) != pinned[key]:
                return f"{key} differs"
        if not np.isclose(self.haar_score_sum, pinned["haar_score_sum"],
                          rtol=HAAR_SUM_RTOL, atol=0.0):
            return "haar score sum differs"
        if [box[:3] for box in self.cnn] != [box[:3] for box in pinned["cnn"]]:
            return "cnn boxes differ"
        for mine, theirs in zip(self.cnn, pinned["cnn"]):
            if abs(mine[3] - theirs[3]) > CNN_SCORE_TOL:
                return "cnn scores differ"
        return None


def perceive(haar, cnn, img: np.ndarray) -> FrameResult:
    """Lane, Haar and CNN detection on one frame, each timed."""
    from repro.vision.lane import detect_lanes

    t0 = clock()
    lane = detect_lanes(img)
    t1 = clock()
    haar_dets, _ops = haar.detect(img)
    t2 = clock()
    cnn_dets, flops = cnn.detect(img)
    t3 = clock()
    boxes = hashlib.blake2b(digest_size=16)
    for det in haar_dets:
        boxes.update(f"{det.x},{det.y},{det.size};".encode())
    return FrameResult(
        lanes=[[float(theta), float(rho)] for theta, rho in lane.lines],
        haar_count=len(haar_dets),
        haar_boxes=boxes.hexdigest(),
        haar_score_sum=float(sum(det.score for det in haar_dets)),
        cnn=[[det.x, det.y, det.size, det.score] for det in cnn_dets],
        cnn_windows=flops // cnn.network.flops_per_sample(),
        lane_s=t1 - t0,
        haar_s=t2 - t1,
        cnn_s=t3 - t2,
    )


def rescore_mismatch(cnn, img: np.ndarray, frame: FrameResult) -> str | None:
    """Re-score every CNN detection one window at a time (reference path)."""
    patch = cnn.patch_size
    for x, y, size, score in frame.cnn:
        crop = img[y:y + size, x:x + size]
        if size != patch:
            rows = (np.arange(patch) * size // patch).clip(0, size - 1)
            crop = crop[np.ix_(rows, rows)]
        reference = float(cnn.network.predict_proba(crop[None, None])[0, 1])
        if abs(reference - score) > CNN_SCORE_TOL:
            return f"cnn window ({x},{y},{size}) scores {score} batched, {reference} alone"
    return None


def train_detectors():
    """``default_detectors`` (the Table I pair), timed; returns (haar, cnn, Timing)."""
    from repro.vision.table1 import default_detectors

    cpu0, t0 = cpu_clock(), clock()
    haar, cnn = default_detectors()
    t1, cpu1 = clock(), cpu_clock()
    return haar, cnn, Timing(t1 - t0, 0.0, cpu1 - cpu0)


def detector_fingerprint(haar, cnn) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(haar.classifiers).encode())
    for _layer, name, array in cnn.network.parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def check_frame(workload: PerceptionWorkload, seed: int, index: int,
                cnn, img: np.ndarray, frame: FrameResult, pins: dict) -> str | None:
    mine = pins.get(workload.name, {})
    pinned = mine.get("probe") if index == 0 else None
    if index > 0:
        seeded = mine.get(str(seed), [])
        pinned = seeded[index - 1] if index <= len(seeded) else None
    if pinned is not None:
        why = frame.mismatch(pinned)
        if why is not None:
            return f"frame {index}: {why} from pinned"
    return rescore_mismatch(cnn, img, frame)


def measure_perception(workload: PerceptionWorkload, seed: int, seconds: float,
                       pins: dict) -> Outcome:
    """Untraced: detect frames for ``seconds``, training ``setups`` times.

    Trainings are spread evenly over the run (their own time extends the
    deadline), so set-up and frames sample the same stretch of host time.
    Every training must give bit-identical detectors.
    """
    outcome = Outcome()
    trained = None
    fingerprint = None
    trainings = 0

    def train() -> None:
        nonlocal trained, fingerprint, trainings, deadline
        trainings += 1
        start = clock()
        done = outcome.attempt(f"{workload.name} training", train_detectors)
        deadline += clock() - start
        if done is None:
            return
        mine = detector_fingerprint(done[0], done[1])
        if fingerprint is not None and mine != fingerprint:
            outcome.fail(f"{workload.name}: training is not repeatable")
            return
        fingerprint, trained = mine, done
        outcome.setup_s.append(done[2].setup_s)
        outcome.setup_cpu_s.append(done[2].cpu_s)

    started = clock()
    deadline = started + seconds
    index = 0
    while trainings < workload.setups or index < MIN_REPS or clock() < deadline:
        due = trainings < workload.setups and (
            trained is None or index >= MIN_REPS
            and clock() - started >= trainings * (deadline - started) / workload.setups
        )
        if due:
            train()
            continue
        if trained is None:
            break
        haar, cnn, _timing = trained
        img = frame_image(workload, seed, index)
        cpu0 = cpu_clock()
        frame = outcome.attempt(f"{workload.name} frame {index}",
                                lambda: perceive(haar, cnn, img))
        cpu1 = cpu_clock()
        if frame is not None:
            why = check_frame(workload, seed, index, cnn, img, frame, pins)
            if why is not None:
                outcome.fail(f"{workload.name} seed {seed}: {why}")
            else:
                outcome.drive_s.append(frame.lane_s + frame.haar_s + frame.cnn_s)
                outcome.drive_cpu_s.append(cpu1 - cpu0)
        index += 1
    return outcome
