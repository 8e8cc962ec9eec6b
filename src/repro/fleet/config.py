"""Fleet configuration: what a partitioned simulation is made of.

A :class:`FleetConfig` fully determines a fleet run -- vehicle count,
partition count, barrier cadence, V2V link latency, seeds -- so that one
config yields identical per-vehicle event traces whether it runs as a
single in-process simulator or as N coordinated worker processes.  The
conservative-time-sync invariant lives here: the barrier step may never
exceed the cross-partition lookahead (the minimum V2V link latency),
which is what guarantees a message sent in round *k* cannot be due before
round *k+1* starts.

A :class:`PartitionSpec` is the picklable sub-config one worker process
receives: the shared config, its partition index, and its vehicle shard.
Respawned workers get the same spec (minus any armed kill plan), which is
why seed+replay recovery reproduces the original run exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ..faults.prockill import KillPlan
from ..workloads.styles import STYLES, WorkloadStyle

__all__ = ["FleetConfig", "PartitionPlan", "PartitionSpec", "shard_vehicles"]


def shard_vehicles(
    vehicles: int, partitions: int,
    costs: Optional[Sequence[float]] = None,
) -> list[tuple[int, ...]]:
    """Assign vehicle indices to partitions.

    Without ``costs``: stable round-robin (the PR-6 default).  With
    ``costs`` (one non-negative weight per vehicle): greedy LPT --
    vehicles in descending cost order, each onto the currently lightest
    partition, ties broken by lowest index on both sides -- which is
    deterministic and within 4/3 of the optimal makespan.  Cost-balanced
    shards may be uneven, including empty (a planner may leave a
    partition idle rather than split a heavy vehicle's neighbours).
    """
    if vehicles < 1:
        raise ValueError(f"need at least one vehicle, got {vehicles}")
    if not 1 <= partitions <= vehicles:
        raise ValueError(
            f"partitions must be in [1, {vehicles}], got {partitions}"
        )
    if costs is None:
        return [
            tuple(v for v in range(vehicles) if v % partitions == p)
            for p in range(partitions)
        ]
    if len(costs) != vehicles:
        raise ValueError(
            f"need one cost per vehicle: got {len(costs)} for {vehicles}"
        )
    if any(c < 0 for c in costs):
        raise ValueError("vehicle costs must be non-negative")
    shards: list[list[int]] = [[] for _ in range(partitions)]
    loads = [0.0] * partitions
    for vehicle in sorted(range(vehicles), key=lambda v: (-costs[v], v)):
        target = min(range(partitions), key=lambda p: (loads[p], p))
        shards[target].append(vehicle)
        loads[target] += costs[vehicle]
    return [tuple(sorted(shard)) for shard in shards]


@dataclass(frozen=True)
class PartitionPlan:
    """A cost-balanced shard assignment, as emitted by ``--plan``.

    The JSON document the planner writes and :class:`FleetConfig`
    consumes.  ``shards`` is the contract: every vehicle exactly once,
    one (possibly empty) shard per partition.  The remaining fields are
    provenance -- the costs the partitioner balanced, the lookahead the
    commgraph proved, the workload the costs assumed -- so an executed
    plan can be audited against the config it runs under.
    """

    vehicles: int
    partitions: int
    shards: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...] = ()
    method: str = "greedy-lpt"
    seed: int = 0
    workload: str = "uniform"
    lookahead_s: float | None = None
    barrier_s: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "shards", tuple(tuple(shard) for shard in self.shards)
        )
        object.__setattr__(self, "costs", tuple(self.costs))
        validate_shards(self.shards, self.vehicles, self.partitions)
        if self.costs and len(self.costs) != self.vehicles:
            raise ValueError(
                f"plan carries {len(self.costs)} costs for "
                f"{self.vehicles} vehicles"
            )

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "method": self.method,
            "seed": self.seed,
            "vehicles": self.vehicles,
            "partitions": self.partitions,
            "workload": self.workload,
            "lookahead_s": self.lookahead_s,
            "barrier_s": self.barrier_s,
            "costs": list(self.costs),
            "shards": [list(shard) for shard in self.shards],
        }

    def dumps(self) -> str:
        """Stable JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, document: dict) -> "PartitionPlan":
        return cls(
            vehicles=document["vehicles"],
            partitions=document["partitions"],
            shards=tuple(tuple(s) for s in document["shards"]),
            costs=tuple(document.get("costs", ())),
            method=document.get("method", "greedy-lpt"),
            seed=document.get("seed", 0),
            workload=document.get("workload", "uniform"),
            lookahead_s=document.get("lookahead_s"),
            barrier_s=document.get("barrier_s"),
        )

    @classmethod
    def load(cls, path: str) -> "PartitionPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    def shards_for(self, config: "FleetConfig") -> tuple[tuple[int, ...], ...]:
        """This plan's shards, after checking it matches ``config``."""
        for name in ("vehicles", "partitions", "workload"):
            mine, theirs = getattr(self, name), getattr(config, name)
            if mine != theirs:
                raise ValueError(
                    f"plan was emitted for {name}={mine!r} but the config "
                    f"has {name}={theirs!r}"
                )
        return self.shards


def validate_shards(shards: Sequence[Sequence[int]], vehicles: int,
                    partitions: int) -> None:
    """Shard-assignment contract: every vehicle exactly once; empty OK.

    Violations name the offending vehicle ids (unknown, duplicated, or
    unassigned) so a mis-sharded plan fails loudly at load time instead
    of silently dropping or double-running vehicles.
    """
    if len(shards) != partitions:
        raise ValueError(
            f"plan has {len(shards)} shards for {partitions} partitions"
        )
    assigned = [v for shard in shards for v in shard]
    unknown = sorted({v for v in assigned if not 0 <= v < vehicles})
    if unknown:
        raise ValueError(
            f"plan names unknown vehicle ids {unknown} "
            f"(valid ids are 0..{vehicles - 1})"
        )
    seen: set[int] = set()
    duplicates: set[int] = set()
    for vehicle in assigned:
        (duplicates if vehicle in seen else seen).add(vehicle)
    if duplicates:
        raise ValueError(
            f"plan assigns vehicle ids {sorted(duplicates)} to more than "
            "one shard"
        )
    missing = sorted(set(range(vehicles)) - seen)
    if missing:
        raise ValueError(
            f"plan leaves vehicle ids {missing} unassigned "
            f"(every one of the {vehicles} vehicles needs a shard)"
        )
    for shard in shards:
        if list(shard) != sorted(set(shard)):
            raise ValueError("each shard must list vehicles sorted, once")


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines one fleet run (picklable, seed-stamped).

    ``barrier_s`` defaults to the lookahead (``v2v_latency_s``) -- the
    largest step conservative sync allows.  ``barrier_deadline_s`` is a
    **wall-clock** budget per barrier: a worker that misses it is a
    straggler (retried once with backoff), then failed over.
    """

    seed: int = 0
    vehicles: int = 4
    partitions: int = 2
    duration_s: float = 12.0
    tick_s: float = 1.0
    v2v_latency_s: float = 1.0
    barrier_s: float | None = None
    beacon_period_s: float = 2.0
    with_services: bool = True
    edge_count: int = 2
    edge_spacing_m: float = 450.0
    barrier_deadline_s: float = 60.0
    kill_plan: KillPlan | None = None
    straggle_s: tuple[tuple[tuple[int, int], float], ...] = field(
        default_factory=tuple
    )
    start_method: str | None = None
    workload: str = "uniform"
    #: Explicit shard assignment (e.g. from a :class:`PartitionPlan`);
    #: ``None`` falls back to round-robin.
    plan: tuple[tuple[int, ...], ...] | None = None
    #: Explicit workload style object (scenario-compiled rosters carry
    #: per-vehicle service tables here); ``None`` looks ``workload`` up
    #: in the shipped ``STYLES`` registry.
    style_spec: WorkloadStyle | None = None

    def __post_init__(self):
        if self.vehicles < 1:
            raise ValueError("need at least one vehicle")
        if not 1 <= self.partitions <= self.vehicles:
            raise ValueError("partitions must be in [1, vehicles]")
        if self.duration_s <= 0 or self.tick_s <= 0:
            raise ValueError("duration and tick must be positive")
        if self.v2v_latency_s <= 0:
            raise ValueError("v2v latency must be positive")
        if self.beacon_period_s <= 0:
            raise ValueError("beacon period must be positive")
        if self.barrier_deadline_s <= 0:
            raise ValueError("barrier deadline must be positive")
        if self.style_spec is None and self.workload not in STYLES:
            raise ValueError(
                f"unknown workload style {self.workload!r} "
                f"(have: {', '.join(sorted(STYLES))})"
            )
        if self.plan is not None:
            object.__setattr__(
                self, "plan", tuple(tuple(shard) for shard in self.plan)
            )
            validate_shards(self.plan, self.vehicles, self.partitions)
        step = self.barrier_step_s
        if step <= 0:
            raise ValueError("barrier step must be positive")
        if step > self.lookahead_s + 1e-12:
            raise ValueError(
                f"conservative sync violated: barrier step {step} exceeds "
                f"derived lookahead {self.lookahead_s} (min V2V link latency)"
            )

    # -- derived geometry --------------------------------------------------

    @property
    def lookahead_s(self) -> float:
        """The cross-partition lookahead this config guarantees."""
        return self.v2v_latency_s

    @property
    def barrier_step_s(self) -> float:
        """The time-sync round length (defaults to the lookahead)."""
        return self.barrier_s if self.barrier_s is not None else self.v2v_latency_s

    def barriers(self) -> list[float]:
        """The barrier times: ``step, 2*step, ..., duration`` (inclusive)."""
        step = self.barrier_step_s
        count = max(1, math.ceil(self.duration_s / step - 1e-9))
        times = [step * k for k in range(1, count)]
        times.append(self.duration_s)
        return times

    def shards(self) -> list[tuple[int, ...]]:
        """Vehicle indices per partition (the plan, else round-robin)."""
        if self.plan is not None:
            return list(self.plan)
        return shard_vehicles(self.vehicles, self.partitions)

    # -- per-vehicle derivations -------------------------------------------

    @property
    def style(self) -> WorkloadStyle:
        """The workload style this fleet runs (explicit spec wins)."""
        if self.style_spec is not None:
            return self.style_spec
        return STYLES[self.workload]

    def service_count(self, index: int) -> int:
        """Managed service instances vehicle ``index`` runs (style-driven)."""
        return self.style.service_count(index) if self.with_services else 0

    def vehicle_label(self, index: int) -> str:
        """Stable display/trace name for one vehicle."""
        return f"cav-{index:03d}"

    def vehicle_seed(self, index: int) -> int:
        """Independent per-vehicle seed (same derivation as RngRegistry.fork)."""
        return self.seed * 1_000_003 + index

    def vehicle_speed_mps(self, index: int) -> float:
        """Deterministic per-vehicle cruise speed (staggers the traces).

        Derived from the per-vehicle seed (not the partition layout), so
        it is partition-invariant but does change with ``seed`` -- the
        hook that makes the fleet's event traces seed-sensitive.
        """
        jitter = np.random.default_rng(self.vehicle_seed(index)).uniform()
        return 8.0 + 1.5 * (index % 6) + round(float(jitter), 3)

    def neighbors(self, index: int) -> tuple[int, ...]:
        """Ring-topology V2V neighbours of one vehicle (global indices)."""
        if self.vehicles < 2:
            return ()
        if self.vehicles == 2:
            return (1 - index,)
        return tuple(
            sorted({(index - 1) % self.vehicles, (index + 1) % self.vehicles})
        )

    def straggle_for(self, partition: int, round_index: int) -> float:
        """Injected wall-clock stall for one (partition, round), if any."""
        for (part, rnd), seconds in self.straggle_s:
            if part == partition and rnd == round_index:
                return seconds
        return 0.0

    def spec_for(self, partition: int) -> "PartitionSpec":
        """The spec handed to one worker process."""
        shard = self.shards()[partition]
        kill = (
            self.kill_plan.for_partition(partition)
            if self.kill_plan is not None and len(self.kill_plan.for_partition(partition))
            else None
        )
        return PartitionSpec(
            config=self,
            partition=partition,
            vehicle_indices=shard,
            kill_plan=kill,
            straggle_s=tuple(
                (key, seconds)
                for key, seconds in self.straggle_s
                if key[0] == partition
            ),
        )


@dataclass(frozen=True)
class PartitionSpec:
    """One worker's slice of the fleet (picklable; crosses the process gap).

    ``kill_plan`` and ``straggle_s`` carry only this partition's scheduled
    faults and are *disarmed* on respawn -- the fault already fired once,
    and a recovered worker that re-stalled or re-crashed on the replayed
    round would livelock the failover loop.
    """

    config: FleetConfig
    partition: int
    vehicle_indices: tuple[int, ...]
    kill_plan: KillPlan | None = None
    straggle_s: tuple[tuple[tuple[int, int], float], ...] = ()

    def __post_init__(self):
        # Empty shards are legal (a cost-balanced plan may idle a
        # partition); the shard just has to be canonical.
        if list(self.vehicle_indices) != sorted(set(self.vehicle_indices)):
            raise ValueError("a shard must list vehicles sorted, once")

    def straggle_for(self, round_index: int) -> float:
        """Injected wall-clock stall for one round of this partition."""
        for (_part, rnd), seconds in self.straggle_s:
            if rnd == round_index:
                return seconds
        return 0.0

    def disarmed(self) -> "PartitionSpec":
        """The same spec with every armed fault removed (for respawns)."""
        return replace(self, kill_plan=None, straggle_s=())
