"""Fleet + perception benchmark for the OpenVDAP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-inline-128 --seed 17 --seconds 20 --trace 0

``--trace 0`` times set-up and drive with no instrumentation and prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics of the
traced pass.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it are the host record and a human-readable metric table.  The
package under test is imported from ``src/`` next to this directory; the
run exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from statistics import median

__all__ = ["END_TO_END", "host_record", "main", "run"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: numpy's BLAS runs single-threaded: on a 2-core host its second thread
#: doubled CPU time during detector training without shortening it, and
#: made every timing depend on what the other core was doing.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

#: End-to-end metrics and their units, as printed by an untraced run.
END_TO_END = {
    "setup_s": "s",
    "vsim_per_s": "vs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def read_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    import numpy as np
    from repro.fleet.worker import _context

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": _context(None).get_start_method(),
        "commit": read_commit(ROOT),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (last output line)."""
    import traced
    from workloads import WORKLOADS, FleetWorkload, load_pins

    workload = WORKLOADS[workload_name]
    pins = load_pins()
    fleet = isinstance(workload, FleetWorkload)
    if trace:
        tracer = traced.trace_fleet if fleet else traced.trace_perception
        values, outcome = tracer(workload, seed, seconds, pins)
        units = traced.PER_LAYER
    else:
        from workloads import measure_fleet, measure_perception

        measure = measure_fleet if fleet else measure_perception
        outcome = measure(workload, seed, seconds, pins)
        values = outcome.end_to_end(workload.vsim_per_drive)
        units = END_TO_END
    failed_frac = outcome.failed / outcome.attempted
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:>16.6g} {unit}")
    print(f"{'failed_frac':34s} {failed_frac:>16.6g} fraction")
    if not trace and not fleet and outcome.drive_s:
        print(f"{'frames_per_s':34s} {1.0 / median(outcome.drive_s):>16.6g} 1/s")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    for name, value in BLAS_THREADS.items():
        os.environ.setdefault(name, value)
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    print("host " + json.dumps(host_record(), sort_keys=True))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
