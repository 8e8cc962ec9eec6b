"""Partition runtime: one shard of the fleet on one deterministic kernel.

A :class:`PartitionRuntime` hosts every vehicle assigned to one partition
as a full :class:`~repro.scenario.DriveScenario` (own world, own VCU, own
per-vehicle seed) sharing a single :class:`~repro.sim.core.Simulator`.
It advances in conservative time-sync rounds: deliver the round's inbound
envelope batch, run to the barrier, hand back what the shard sent.

Determinism is enforced at two grains:

* **Per-vehicle domain hashes** (:class:`VehicleTraceHash`) fold every
  V2V send, every V2V receive, and a per-barrier state record into a
  rolling BLAKE2 digest.  These depend only on the vehicle's own timeline
  and the canonical envelope order, so they are *partition-invariant*: a
  4-partition fleet must match a single-process run vehicle for vehicle.
* **The kernel trace hash** (via
  :class:`~repro.sim.sanitizer.DeterminismSanitizer`) covers every
  event the partition's loop fires.  It differs between partitionings
  (different kernels, different event sets) but must be *replay-stable*:
  a respawned worker re-fed the same inbound batches must reproduce it
  barrier for barrier.

The canonical-order rule: **all** V2V traffic -- including messages whose
receiver lives on the same partition -- routes through the barrier
exchange and is sorted by ``(deliver_s, dst, src, seq)`` before delivery
scheduling.  That single sort point is what makes event order independent
of how vehicles are sharded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from ..apps import make_adas_service
from ..obs.recorder import Collector
from ..scenario import DriveScenario, ScenarioReport
from ..sim import DeterminismSanitizer
from ..sim.core import KernelCheckpoint, Simulator
from ..topology.world import build_default_world
from .config import PartitionSpec
from .transport import Envelope, RoundAck, sort_envelopes

__all__ = [
    "PartitionRuntime",
    "RoundResult",
    "V2VBus",
    "VehicleTraceHash",
    "fmt_float",
]


def fmt_float(value: float) -> str:
    """Canonical float text for hashing (9 significant digits)."""
    return f"{value:.9g}"


class VehicleTraceHash:
    """Rolling digest of one vehicle's externally visible behaviour."""

    def __init__(self, vehicle: int):
        self.vehicle = vehicle
        self.records = 0
        self._hash = hashlib.blake2b(digest_size=16)

    def _fold(self, record: str) -> None:
        self.records += 1
        self._hash.update(record.encode())
        self._hash.update(b"\n")

    def record_send(self, env: Envelope) -> None:
        self._fold(
            f"send|{fmt_float(env.sent_s)}|{env.dst}|{env.seq}|{env.payload!r}"
        )

    def record_receive(self, env: Envelope) -> None:
        self._fold(
            f"rx|{fmt_float(env.deliver_s)}|{env.src}|{env.seq}|{env.payload!r}"
        )

    def record_state(
        self, barrier_s: float, invocations: int, misses: int, energy_j: float
    ) -> None:
        self._fold(
            f"state|{fmt_float(barrier_s)}|{invocations}|{misses}|"
            f"{fmt_float(energy_j)}"
        )

    @property
    def hexdigest(self) -> str:
        return self._hash.copy().hexdigest()


class V2VBus:
    """Cross-vehicle messaging for one partition, barrier-exchanged.

    :meth:`send` queues an envelope for the *coordinator* regardless of
    where the receiver lives; :meth:`deliver` schedules an inbound batch
    (already canonically sorted) onto the shard's simulator at each
    envelope's due time.  Envelopes addressed to vehicles outside this
    shard are ignored on delivery -- the coordinator fans the same batch
    to every partition in the single-process reference path.
    """

    def __init__(self, sim: Simulator, latency_s: float, local: frozenset[int]):
        if latency_s <= 0:
            raise ValueError("V2V latency must be positive")
        self.sim = sim
        self.latency_s = latency_s
        self.local = local
        self.on_send: Callable[[Envelope], None] | None = None
        self.on_receive: Callable[[Envelope], None] | None = None
        self._outbox: list[Envelope] = []
        self._seq: dict[int, int] = {}
        self.sent = 0
        self.received = 0

    def send(self, src: int, dst: int, payload: Any) -> Envelope:
        """Emit one message at the current sim time (src must be local)."""
        if src not in self.local:
            raise ValueError(f"vehicle {src} is not on this partition")
        seq = self._seq.get(src, 0)
        self._seq[src] = seq + 1
        now = self.sim.now
        env = Envelope(
            src=src, dst=dst, sent_s=now, deliver_s=now + self.latency_s,
            seq=seq, payload=payload,
        )
        self._outbox.append(env)
        self.sent += 1
        if self.on_send is not None:
            self.on_send(env)
        return env

    def drain_outbox(self) -> tuple[Envelope, ...]:
        """Everything sent since the last barrier, in send order."""
        out, self._outbox = tuple(self._outbox), []
        return out

    def deliver(self, inbound: tuple[Envelope, ...]) -> int:
        """Schedule an inbound batch; returns how many were local.

        Must be called with the clock parked at a barrier.  The batch is
        re-sorted canonically here so scheduling order (and therefore
        equal-time firing order) never depends on the caller.
        """
        count = 0
        for env in sort_envelopes([e for e in inbound if e.dst in self.local]):
            if env.deliver_s < self.sim.now:
                raise ValueError(
                    f"stale envelope: due {env.deliver_s} but now {self.sim.now} "
                    f"(conservative sync violated)"
                )
            self.sim.process(
                # Per-envelope process identity is load-bearing for traces.
                self._deliver_one(env), name=f"v2v/rx-{env.dst:03d}"
            )
            count += 1
        return count

    def _deliver_one(self, env: Envelope):
        yield self.sim.timeout(env.deliver_s - self.sim.now)
        self.received += 1
        if self.on_receive is not None:
            self.on_receive(env)


@dataclass(frozen=True)
class RoundResult:
    """What one barrier round produced on one partition."""

    round_index: int
    barrier_s: float
    outbound: tuple[Envelope, ...]
    checkpoint: KernelCheckpoint
    partition_hash: str
    vehicle_hashes: dict[int, str] = field(default_factory=dict)

    def to_ack(self, advance_wall_s: float = 0.0) -> RoundAck:
        """The wire form a worker sends back to the coordinator."""
        return RoundAck(
            round_index=self.round_index,
            barrier_s=self.barrier_s,
            outbound=self.outbound,
            partition_hash=self.partition_hash,
            vehicle_hashes=self.vehicle_hashes,
            events_fired=self.checkpoint.events_fired,
            queue_depth=self.checkpoint.queue_depth,
            advance_wall_s=advance_wall_s,
        )


class PartitionRuntime:
    """The in-process half of a fleet worker (also runs coordinator-side
    for the single-process golden reference)."""

    def __init__(self, spec: PartitionSpec):
        self.spec = spec
        self.config = spec.config
        self.collector = Collector()
        self.sim = Simulator(obs=self.collector)
        self.sanitizer = DeterminismSanitizer(self.sim, keep_records=False)
        self.bus = V2VBus(
            self.sim,
            latency_s=self.config.v2v_latency_s,
            local=frozenset(spec.vehicle_indices),
        )
        self.bus.on_send = self._on_send
        self.bus.on_receive = self._on_receive
        self.hashes = {v: VehicleTraceHash(v) for v in spec.vehicle_indices}
        self.scenarios: dict[int, DriveScenario] = {}
        self.reports: dict[int, ScenarioReport] = {}
        for v in spec.vehicle_indices:
            world = build_default_world(
                speed_mps=self.config.vehicle_speed_mps(v),
                edge_count=self.config.edge_count,
                edge_spacing_m=self.config.edge_spacing_m,
            )
            scenario = DriveScenario(
                world=world,
                seed=self.config.vehicle_seed(v),
                tick_s=self.config.tick_s,
                sim=self.sim,
                label=self.config.vehicle_label(v),
            )
            # The workload style decides how many service instances this
            # vehicle runs; copies get distinct names so the elastic
            # manager and the reports keep them apart.
            for copy in range(self.config.service_count(v)):
                service = make_adas_service(deadline_s=0.6)
                if copy:
                    service.name = f"{service.name}#{copy}"
                scenario.add_service(service, period_s=1.0)
            self.scenarios[v] = scenario
        self._launched = False

    # -- trace-hash hooks --------------------------------------------------

    def _on_send(self, env: Envelope) -> None:
        self.hashes[env.src].record_send(env)
        self.sim.obs.count(
            "fleet.v2v_tx", vehicle=self.config.vehicle_label(env.src)
        )

    def _on_receive(self, env: Envelope) -> None:
        self.hashes[env.dst].record_receive(env)
        self.sim.obs.count(
            "fleet.v2v_rx", vehicle=self.config.vehicle_label(env.dst)
        )

    # -- vehicle processes -------------------------------------------------

    def _vehicle_invocations(self, vehicle: int) -> int:
        report = self.reports[vehicle]
        return sum(s.invocations for s in report.services.values())

    def _vehicle_misses(self, vehicle: int) -> int:
        report = self.reports[vehicle]
        return sum(s.deadline_misses for s in report.services.values())

    def _beacon_loop(self, vehicle: int):
        """Periodic V2V beacon to the vehicle's ring neighbours."""
        config = self.config
        scenario = self.scenarios[vehicle]
        neighbors = config.neighbors(vehicle)
        while True:
            yield self.sim.timeout(config.beacon_period_s)
            now = self.sim.now
            if now >= config.duration_s:
                return
            position = round(scenario.world.vehicle.position(now), 3)
            payload = ("beacon", position, self._vehicle_invocations(vehicle))
            for dst in neighbors:
                self.bus.send(vehicle, dst, payload)

    def launch(self) -> None:
        """Register every vehicle's drive loop and beacon (idempotent-guarded)."""
        if self._launched:
            raise RuntimeError("partition already launched")
        self._launched = True
        for v in self.spec.vehicle_indices:
            self.reports[v] = self.scenarios[v].launch(self.config.duration_s)
            self.sim.process(
                self._beacon_loop(v),
                name=f"{self.config.vehicle_label(v)}/beacon",
            )

    # -- barrier rounds ----------------------------------------------------

    def advance(
        self,
        round_index: int,
        barrier_s: float,
        inbound: tuple[Envelope, ...] = (),
    ) -> RoundResult:
        """Deliver ``inbound``, simulate to ``barrier_s``, report the round."""
        if not self._launched:
            raise RuntimeError("advance() before launch()")
        self.bus.deliver(inbound)
        checkpoint = self.sim.run_to_barrier(barrier_s)
        for v in self.spec.vehicle_indices:
            self.hashes[v].record_state(
                barrier_s,
                self._vehicle_invocations(v),
                self._vehicle_misses(v),
                self.scenarios[v].dsf.energy.busy_joules(),
            )
        return RoundResult(
            round_index=round_index,
            barrier_s=barrier_s,
            outbound=self.bus.drain_outbox(),
            checkpoint=checkpoint,
            partition_hash=self.sanitizer.trace_hash,
            vehicle_hashes=self.vehicle_hashes(),
        )

    def vehicle_hashes(self) -> dict[int, str]:
        """Current per-vehicle domain-event digests."""
        return {v: h.hexdigest for v, h in self.hashes.items()}

    # -- completion --------------------------------------------------------

    def finalize(self) -> dict[int, dict[str, Any]]:
        """Complete every scenario; returns JSON-friendly vehicle reports."""
        out: dict[int, dict[str, Any]] = {}
        for v in self.spec.vehicle_indices:
            report = self.scenarios[v].finalize()
            out[v] = {
                "label": self.config.vehicle_label(v),
                "vehicle_energy_j": report.vehicle_energy_j,
                "services": {
                    name: {
                        "invocations": service.invocations,
                        "deadline_misses": service.deadline_misses,
                        "hung_ticks": service.hung_ticks,
                        "pipeline_switches": service.switches,
                    }
                    for name, service in sorted(report.services.items())
                },
                "v2v_records": self.hashes[v].records,
            }
        return out

    def metrics_snapshot(self) -> dict:
        """The partition collector's raw metric snapshot."""
        return self.collector.snapshot()
