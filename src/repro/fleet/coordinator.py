"""Fleet coordinator: conservative time sync over N partition workers.

The :class:`FleetCoordinator` is the control plane of the crash-tolerant
substrate.  Per time-sync round it (1) sends every worker an
:class:`~repro.fleet.transport.AdvanceCmd` carrying the inbound envelopes
due on that shard, journalling the batch first, (2) collects acks under a
wall-clock barrier deadline, classifying silence as *straggler*
(heartbeat seen: wait again with backoff) or *crash* (pipe EOF: respawn
from seed and replay the journal via :mod:`repro.fleet.recovery`), and
(3) commits each ack's kernel trace hash and routes its outbound
envelopes to the destination shards for the next round.

:func:`run_single_process` is the golden reference: the same config, the
same barrier exchange, one in-process runtime hosting every vehicle.
Because all V2V traffic routes through the barriers in both modes, a
partitioned run must reproduce the reference's per-vehicle trace hashes
and merged mergeable-view metrics exactly -- that equality is the
substrate's correctness contract and is asserted in CI, with and without
a worker killed mid-run.

Use the coordinator as a context manager: exit terminates and joins every
worker (KeyboardInterrupt included), so no orphan processes survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..obs.metrics import merge_many, mergeable_view
from ..obs.report import Report
from .config import FleetConfig
from .journal import PartitionJournal
from .recovery import FleetError, RecoveryPolicy, recv_ack, respawn_and_replay
from .runtime import PartitionRuntime
from .transport import (
    AdvanceCmd,
    BarrierTimeout,
    Envelope,
    FinishAck,
    FinishCmd,
    Heartbeat,
    Hello,
    WorkerFailed,
    WorkerGone,
    sort_envelopes,
)
from .worker import WorkerHandle, spawn_worker

__all__ = [
    "FleetCoordinator",
    "FleetResult",
    "FleetStats",
    "run_inline",
    "run_single_process",
]


@dataclass
class FleetStats:
    """What it took to complete the run."""

    rounds: int = 0
    envelopes_routed: int = 0
    stragglers: int = 0
    respawns: int = 0
    rounds_replayed: int = 0
    events_fired: int = 0
    #: Wall-clock seconds each partition spent advancing (diagnostic).
    partition_busy_s: dict[int, float] = field(default_factory=dict)
    #: Kernel events fired per partition (deterministic load signal).
    partition_events: dict[int, int] = field(default_factory=dict)

    def busy_spread_s(self) -> float:
        """Max-minus-min per-partition busy time: the imbalance signal."""
        if len(self.partition_busy_s) < 2:
            return 0.0
        values = self.partition_busy_s.values()
        return max(values) - min(values)

    def critical_events(self) -> int:
        """Events on the busiest partition: the per-round critical path.

        On hardware with a core per partition, round wall time tracks
        the heaviest shard, so this (unlike wall-clock) is the
        deterministic figure a partition plan is judged on.
        """
        return max(self.partition_events.values(), default=0)

    def as_dict(self) -> dict[str, float]:
        return {
            "rounds": self.rounds,
            "envelopes_routed": self.envelopes_routed,
            "stragglers": self.stragglers,
            "respawns": self.respawns,
            "rounds_replayed": self.rounds_replayed,
            "events_fired": self.events_fired,
            "critical_events": self.critical_events(),
            "busy_spread_s": round(self.busy_spread_s(), 6),
        }


@dataclass
class FleetResult:
    """The merged outcome of a fleet run (any partition count)."""

    config: FleetConfig
    vehicle_hashes: dict[int, str]
    partition_hashes: dict[int, str]
    vehicle_reports: dict[int, dict[str, Any]]
    metrics: dict
    stats: FleetStats = field(default_factory=FleetStats)

    def report(self) -> Report:
        """A unified :class:`~repro.obs.report.Report` of the run."""
        report = Report(
            "fleet_run",
            f"{self.config.vehicles} vehicles / {self.config.partitions} "
            f"partitions / {self.config.duration_s:g}s drive",
        )
        report.add_column("vehicle", 10)
        report.add_column("trace_hash", 18)
        report.add_column("energy_j", 12, fmt=".1f")
        report.add_column("invocations", 12)
        for vehicle in sorted(self.vehicle_hashes):
            info = self.vehicle_reports.get(vehicle, {})
            services = info.get("services", {})
            report.add_row(
                vehicle=info.get("label", str(vehicle)),
                trace_hash=self.vehicle_hashes[vehicle][:16],
                energy_j=info.get("vehicle_energy_j", 0.0),
                invocations=sum(
                    s.get("invocations", 0) for s in services.values()
                ),
            )
        for key, value in sorted(self.stats.as_dict().items()):
            report.note(f"{key}: {value}")
        return report


class FleetCoordinator:
    """Drives a partitioned fleet run end to end; owns the worker pool."""

    def __init__(
        self, config: FleetConfig, policy: RecoveryPolicy | None = None
    ):
        self.config = config
        self.policy = policy or RecoveryPolicy()
        self.stats = FleetStats()
        self.workers: dict[int, WorkerHandle] = {}
        self.journals = {
            p: PartitionJournal(p) for p in range(config.partitions)
        }
        self._dst_partition = {
            v: p
            for p, shard in enumerate(config.shards())
            for v in shard
        }
        self._finished = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Terminate and join every worker; close pipes (idempotent)."""
        for handle in self.workers.values():
            handle.terminate()
        self.workers.clear()

    # -- worker pool -------------------------------------------------------

    def _spawn_all(self) -> None:
        for p in range(self.config.partitions):
            self.workers[p] = spawn_worker(self.config.spec_for(p))
        for p, handle in self.workers.items():
            hello = handle.pipe.recv(self.config.barrier_deadline_s)
            if isinstance(hello, WorkerFailed):
                raise FleetError(
                    f"partition {p} failed to boot: {hello.error}"
                )
            if not isinstance(hello, Hello):
                raise FleetError(f"partition {p} sent {hello!r} before Hello")
            handle.hello = hello

    def _recover(self, partition: int) -> WorkerHandle:
        """Replace a dead/stuck worker with a replayed twin."""
        old = self.workers[partition]
        old.terminate()
        if old.respawns >= self.policy.max_respawns:
            raise FleetError(
                f"partition {partition} exceeded respawn budget "
                f"({self.policy.max_respawns})"
            )
        journal = self.journals[partition]
        handle = respawn_and_replay(
            old.spec,
            journal,
            self.config.barrier_deadline_s,
            previous=old,
        )
        self.workers[partition] = handle
        self.stats.respawns += 1
        self.stats.rounds_replayed += len(journal.committed_entries())
        return handle

    # -- the round protocol ------------------------------------------------

    def _send_advance(self, partition: int, cmd: AdvanceCmd) -> None:
        try:
            self.workers[partition].pipe.send(cmd)
        except WorkerGone:
            # Died between rounds: recover, then re-issue this round.
            self._recover(partition)
            self.workers[partition].pipe.send(cmd)

    def _await_ack(self, partition: int, cmd: AdvanceCmd):
        """Collect one round's ack, surviving stragglers and crashes."""
        deadline = self.config.barrier_deadline_s
        straggler_waits = 0
        while True:
            handle = self.workers[partition]
            try:
                return recv_ack(handle.pipe, deadline, cmd.round_index)
            except BarrierTimeout:
                if straggler_waits < self.policy.straggler_retries:
                    straggler_waits += 1
                    handle.stragglers += 1
                    self.stats.stragglers += 1
                    deadline *= self.policy.straggler_backoff
                    continue
                # Out of patience: treat the stuck worker as dead.
                self.stats.stragglers += 1
            except WorkerGone:
                pass
            self._recover(partition)
            self.workers[partition].pipe.send(cmd)
            deadline = self.config.barrier_deadline_s
            straggler_waits = 0

    def _collect_finish(self, partition: int) -> FinishAck:
        handle = self.workers[partition]
        handle.pipe.send(FinishCmd())
        while True:
            message = handle.pipe.recv(self.config.barrier_deadline_s)
            if isinstance(message, Heartbeat):
                continue
            if isinstance(message, WorkerFailed):
                raise FleetError(
                    f"partition {partition} failed at finish: {message.error}"
                )
            if not isinstance(message, FinishAck):
                raise FleetError(f"expected FinishAck, got {message!r}")
            return message

    # -- entry point -------------------------------------------------------

    def run(self) -> FleetResult:
        """Execute the whole drive; returns the merged fleet result."""
        if self._finished:
            raise RuntimeError("a coordinator runs exactly once")
        self._finished = True
        self._spawn_all()
        pending: dict[int, list[Envelope]] = {
            p: [] for p in range(self.config.partitions)
        }
        for round_index, barrier_s in enumerate(self.config.barriers()):
            commands: dict[int, AdvanceCmd] = {}
            for p in range(self.config.partitions):
                inbound = tuple(sort_envelopes(pending[p]))
                self.journals[p].record_advance(round_index, barrier_s, inbound)
                cmd = AdvanceCmd(round_index, barrier_s, inbound)
                commands[p] = cmd
                self._send_advance(p, cmd)
            pending = {p: [] for p in range(self.config.partitions)}
            for p in range(self.config.partitions):
                ack = self._await_ack(p, commands[p])
                self.journals[p].commit(round_index, ack.partition_hash)
                self.stats.partition_busy_s[p] = (
                    self.stats.partition_busy_s.get(p, 0.0)
                    + ack.advance_wall_s
                )
                for env in ack.outbound:
                    pending[self._dst_partition[env.dst]].append(env)
                    self.stats.envelopes_routed += 1
            self.stats.rounds += 1
        finishes = {
            p: self._collect_finish(p) for p in range(self.config.partitions)
        }
        self.shutdown()
        return self._merge(finishes)

    def _merge(self, finishes: dict[int, FinishAck]) -> FleetResult:
        vehicle_hashes: dict[int, str] = {}
        vehicle_reports: dict[int, dict[str, Any]] = {}
        for p, ack in finishes.items():
            vehicle_hashes.update(ack.vehicle_hashes)
            vehicle_reports.update(ack.vehicle_reports)
            self.stats.events_fired += ack.events_fired
            self.stats.partition_events[p] = ack.events_fired
        merged = mergeable_view(
            merge_many([finishes[p].metrics for p in sorted(finishes)])
        )
        return FleetResult(
            config=self.config,
            vehicle_hashes=dict(sorted(vehicle_hashes.items())),
            partition_hashes={
                p: finishes[p].partition_hash for p in sorted(finishes)
            },
            vehicle_reports=dict(sorted(vehicle_reports.items())),
            metrics=merged,
            stats=self.stats,
        )


def run_inline(config: FleetConfig) -> FleetResult:
    """A partitioned run without processes: N runtimes, one thread.

    Drives the exact coordinator round protocol -- journal-order
    delivery, canonical envelope sort, per-round routing -- but hosts
    every :class:`PartitionRuntime` in this process.  No fault injection
    and no recovery, so it is the cheap way to exercise *shard geometry*
    (plans, uneven and empty shards) against the single-process
    reference; the process-level path stays covered by the coordinator.
    """
    shards = config.shards()
    dst_partition = {v: p for p, shard in enumerate(shards) for v in shard}
    runtimes = {
        p: PartitionRuntime(config.spec_for(p).disarmed())
        for p in range(config.partitions)
    }
    stats = FleetStats()
    for runtime in runtimes.values():
        runtime.launch()
    pending: dict[int, list[Envelope]] = {
        p: [] for p in range(config.partitions)
    }
    for round_index, barrier_s in enumerate(config.barriers()):
        results = {
            p: runtimes[p].advance(
                round_index, barrier_s, tuple(sort_envelopes(pending[p]))
            )
            for p in range(config.partitions)
        }
        pending = {p: [] for p in range(config.partitions)}
        for p in sorted(results):
            for env in results[p].outbound:
                pending[dst_partition[env.dst]].append(env)
                stats.envelopes_routed += 1
        stats.rounds += 1
    vehicle_hashes: dict[int, str] = {}
    vehicle_reports: dict[int, dict[str, Any]] = {}
    for p, runtime in runtimes.items():
        vehicle_reports.update(runtime.finalize())
        vehicle_hashes.update(runtime.vehicle_hashes())
        stats.events_fired += runtime.sim.events_fired
        stats.partition_events[p] = runtime.sim.events_fired
    return FleetResult(
        config=config,
        vehicle_hashes=dict(sorted(vehicle_hashes.items())),
        partition_hashes={
            p: runtimes[p].sanitizer.trace_hash for p in sorted(runtimes)
        },
        vehicle_reports=dict(sorted(vehicle_reports.items())),
        metrics=mergeable_view(
            merge_many(
                [runtimes[p].metrics_snapshot() for p in sorted(runtimes)]
            )
        ),
        stats=stats,
    )


def run_single_process(config: FleetConfig) -> FleetResult:
    """The unsharded golden reference for ``config`` (no processes).

    Hosts every vehicle on one in-process runtime and drives the same
    barrier exchange the coordinator uses, so its per-vehicle hashes and
    mergeable-view metrics are the ground truth a partitioned run of the
    same config must reproduce exactly.
    """
    # ``plan`` is shard geometry, not behaviour: the reference collapses
    # to one partition, so any explicit plan must be dropped with it.
    reference = replace(
        config, partitions=1, plan=None, kill_plan=None, straggle_s=(),
    )
    runtime = PartitionRuntime(reference.spec_for(0))
    runtime.launch()
    stats = FleetStats()
    inbound: tuple[Envelope, ...] = ()
    for round_index, barrier_s in enumerate(reference.barriers()):
        result = runtime.advance(
            round_index, barrier_s, tuple(sort_envelopes(list(inbound)))
        )
        inbound = result.outbound
        stats.rounds += 1
        stats.envelopes_routed += len(result.outbound)
    vehicle_reports = runtime.finalize()
    stats.events_fired = runtime.sim.events_fired
    stats.partition_events[0] = runtime.sim.events_fired
    return FleetResult(
        config=reference,
        vehicle_hashes=dict(sorted(runtime.vehicle_hashes().items())),
        partition_hashes={0: runtime.sanitizer.trace_hash},
        vehicle_reports=vehicle_reports,
        metrics=mergeable_view(merge_many([runtime.metrics_snapshot()])),
        stats=stats,
    )
