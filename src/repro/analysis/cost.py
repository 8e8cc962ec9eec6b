"""Static per-vehicle cost model for the fleet planner.

Layer (b) of the planning compiler: estimate how much kernel work each
vehicle generates per simulated second, so the partitioner can balance
shards by cost instead of count.  The estimate has two factors:

* **Role weights** -- how expensive one invocation of each per-vehicle
  process role (drive tick, beacon, envelope receive, service submit)
  is, measured statically as call-graph breadth discounted by BFS depth
  from the role's root, with functions on the kernel's per-event paths
  (:class:`HotPathIndex`) counted double (:class:`RoleWeights`).
* **Role rates** -- how often each role fires for a given vehicle,
  derived from the fleet configuration (tick period, beacon period,
  ring-neighbour count) and the workload style's per-vehicle service
  multiplicity (:func:`vehicle_costs`).

Costs are relative, not wall-clock seconds: greedy-LPT only needs the
ratios.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .callgraph import ProjectGraph

__all__ = [
    "HOT_ROOT_SUFFIXES",
    "HotPathIndex",
    "ROLE_ROOTS",
    "RoleWeights",
    "vehicle_costs",
]

#: Qualname suffixes that seed the sim-hot set: the kernel event loop,
#: the fleet barrier exchange, and the per-event accounting fan-out.
#: Sim-process generators (``graph.process_roots``) are added dynamically.
HOT_ROOT_SUFFIXES = (
    # kernel event loop
    "Simulator.run",
    "Simulator.step",
    "Simulator.run_to_barrier",
    "Event._resolve",
    "Process._step",
    # fleet barrier exchange (the per-event side of a round)
    "PartitionRuntime.advance",
    "V2VBus.deliver",
    # per-event accounting: metrics, quantiles, trace hashing
    "Collector.count",
    "Collector.gauge",
    "Collector.observe",
    "MetricRegistry._get_or_create",
    "Histogram.observe",
    "DeterminismSanitizer._record",
    "VehicleTraceHash.record_send",
    "VehicleTraceHash.record_receive",
    "VehicleTraceHash.record_state",
)

#: Per-vehicle process roles -> the qualname suffix of the function that
#: roots the role's work.  The drive suffix is annotated at the source
#: (:data:`repro.scenario.PLANNER_DRIVE_ROOT`); it is duplicated here as
#: a plain string so this module never imports the simulation stack.
ROLE_ROOTS: dict[str, str] = {
    "drive": "DriveScenario.launch.control_loop",
    "beacon": "PartitionRuntime._beacon_loop",
    "receive": "V2VBus._deliver_one",
    "service": "DSF.submit",
}


class HotPathIndex:
    """Which functions run per kernel event, and how far from the loop.

    ``hot`` is the transitive closure of resolved call edges from the
    roots; ``depth`` maps each hot function to its BFS distance from the
    nearest root (0 = it *is* a per-event entry point).
    """

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        roots: set[str] = set()
        for qual in graph.functions:
            if qual.endswith(HOT_ROOT_SUFFIXES):
                roots.add(qual)
        roots.update(q for q in graph.process_roots if q in graph.functions)
        self.roots = roots
        self.depth: dict[str, int] = {}
        frontier = sorted(roots)
        level = 0
        while frontier:
            nxt: list[str] = []
            for qual in frontier:
                if qual in self.depth:
                    continue
                self.depth[qual] = level
                for site in graph.calls.get(qual, ()):
                    if site.callee and site.callee not in self.depth:
                        nxt.append(site.callee)
            frontier = sorted(set(nxt) - set(self.depth))
            level += 1
        self.hot = set(self.depth)


class RoleWeights:
    """Relative per-invocation cost of each process role.

    Static weight of a role = sum over every function reachable from the
    role root of ``1 / (1 + depth)`` (depth = BFS hops from the root):
    wide, shallow call trees cost more than narrow, deep ones.  Functions
    on the :class:`HotPathIndex` hot set count double -- they sit inside a
    simulation loop, so a role that reaches them fires that work every
    round, not once.  Weights are normalized so the drive loop is 1.0; a
    role whose root is not in the analyzed tree weighs 0.0 (it cannot
    fire there).
    """

    def __init__(self, graph: ProjectGraph,
                 hot: Optional[HotPathIndex] = None):
        self.graph = graph
        self.hot = hot if hot is not None else HotPathIndex(graph)
        self.roots: dict[str, Optional[str]] = {
            role: self._find_root(suffix)
            for role, suffix in ROLE_ROOTS.items()
        }
        static = {
            role: self._breadth(root) if root is not None else 0.0
            for role, root in self.roots.items()
        }
        anchor = static["drive"] or 1.0
        self.weights: dict[str, float] = {
            role: round(value / anchor, 6) for role, value in static.items()
        }

    def _find_root(self, suffix: str) -> Optional[str]:
        matches = sorted(
            qual for qual in self.graph.functions
            if qual == suffix or qual.endswith("." + suffix)
        )
        return matches[0] if len(matches) == 1 else None

    def _breadth(self, root: str) -> float:
        depth = {root: 0}
        queue = deque([root])
        while queue:
            current = queue.popleft()
            for site in self.graph.calls.get(current, ()):
                callee = site.callee
                if callee and callee in self.graph.functions \
                        and callee not in depth:
                    depth[callee] = depth[current] + 1
                    queue.append(callee)
        hot = self.hot.hot
        return sum(
            (2.0 if qual in hot else 1.0) / (1 + d)
            for qual, d in depth.items()
        )

    def to_debug_dict(self) -> dict:
        return {
            "roots": {role: self.roots[role] for role in sorted(self.roots)},
            "weights": {role: self.weights[role] for role in sorted(self.weights)},
        }


def vehicle_costs(config, weights: RoleWeights) -> list[float]:
    """Relative per-vehicle cost under ``config`` (any FleetConfig-shaped
    object: needs vehicles/tick_s/beacon_period_s/with_services,
    ``neighbors(v)``, ``service_count(v)`` and the workload ``style``).
    """
    w = weights.weights
    costs = []
    for vehicle in range(config.vehicles):
        fanout = len(config.neighbors(vehicle))
        tick_rate = 1.0 / config.tick_s
        beacon_rate = fanout / config.beacon_period_s
        services = config.service_count(vehicle) if config.with_services else 0
        service_rate = services * config.style.service_cost_weight
        cost = (
            tick_rate * (w["drive"] + service_rate * w["service"])
            + beacon_rate * w["beacon"]
            # Ring beacons are symmetric: each neighbour beacons back.
            + beacon_rate * w["receive"]
        )
        costs.append(round(cost, 6))
    return costs
