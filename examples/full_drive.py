#!/usr/bin/env python3
"""The whole platform in one call: a DriveScenario.

A CAV drives 1.2 km past three RSUs with coverage gaps, running two
managed polymorphic services (safety-critical ADAS perception every
second, the AMBER plate search every five), collecting OBD data into the
DDI each tick.  Elastic Management re-tunes pipelines as the vehicle moves
through and out of DSRC coverage; the DSF executes each tick's on-board
share on the heterogeneous VCU in simulation time.

With ``--observe DIR`` a :class:`repro.obs.Collector` is installed across
the whole platform (kernel, DSF, executor, scenario hooks) and the run
exports ``DIR/metrics.json`` plus ``DIR/trace.json`` -- open the trace at
https://ui.perfetto.dev.  Identical-seed runs export byte-identical JSON.

Run:  python examples/full_drive.py [--observe DIR]
"""

import argparse

from repro.apps import make_adas_service, make_amber_service
from repro.hw import catalog
from repro.obs import Collector
from repro.scenario import DriveScenario
from repro.topology import SpeedProfile, build_default_world


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--observe", metavar="DIR", default=None,
        help="collect platform metrics + a Chrome trace and write them here",
    )
    args = parser.parse_args()
    collector = Collector() if args.observe else None
    world = build_default_world(
        speed_mps=10.0,
        edge_count=3,
        edge_spacing_m=600.0,
        vehicle_processors=[catalog.intel_i7_6700(), catalog.intel_mncs()],
    )
    for edge in world.edges:
        edge.coverage_radius_m = 220.0  # leaves ~160 m gaps between RSUs

    scenario = DriveScenario(
        world=world, ddi_root="/tmp/openvdap-full-drive", observe=collector
    )
    scenario.add_service(make_adas_service(deadline_s=0.6), period_s=1.0)
    scenario.add_service(make_amber_service(deadline_s=3.0), period_s=5.0)
    scenario.attach_obd(SpeedProfile([(0.0, 10.0)]))

    report = scenario.run(duration_s=180.0)

    print(f"drive complete: {report.duration_s:.0f}s, "
          f"{report.ddi_records} DDI records, "
          f"{report.vehicle_energy_j:.1f} J of on-board compute\n")
    print(f"{'service':20s}{'invocations':>12s}{'mean ms':>9s}{'p95 ms':>8s}"
          f"{'misses':>8s}{'hung s':>8s}{'switches':>10s}")
    for name, svc in report.services.items():
        print(f"{name:20s}{svc.invocations:>12d}"
              f"{svc.latency.mean * 1e3:>9.1f}{svc.latency.p95 * 1e3:>8.1f}"
              f"{svc.deadline_misses:>8d}{svc.hung_ticks:>8d}{svc.switches:>10d}")

    adas = report.service("adas-perception")
    print("\nADAS pipeline over the drive (changes only):")
    current = None
    for t, value in zip(adas.pipeline_timeline.times, adas.pipeline_timeline.values):
        if value != current:
            x = world.vehicle.position(t)
            print(f"  t={t:5.0f}s  x={x:6.0f} m  -> {value}")
            current = value

    if collector is not None:
        metrics_path, trace_path = collector.write(args.observe)
        snap = collector.snapshot()
        print(f"\nobservability: {int(snap['counters']['sim.events_fired'])} "
              f"sim events, {len(collector.tracer)} trace events")
        print(f"  metrics -> {metrics_path}")
        print(f"  trace   -> {trace_path}  (open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
