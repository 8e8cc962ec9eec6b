"""OpenVDAP reproduction: an Open Vehicular Data Analytics Platform for CAVs.

A full-stack, simulation-backed reproduction of Zhang et al., ICDCS 2018:

* :mod:`repro.sim` -- deterministic discrete-event kernel
* :mod:`repro.hw` / :mod:`repro.net` / :mod:`repro.topology` -- hardware,
  network, and mobility substrates
* :mod:`repro.nn` / :mod:`repro.vision` -- numpy deep-learning and
  computer-vision substrates
* :mod:`repro.vcu` -- the heterogeneous vehicle computing unit (mHEP + DSF)
* :mod:`repro.offload` -- task graphs and offloading strategies
* :mod:`repro.edgeos` -- EdgeOSv: elastic management, security, privacy,
  data sharing
* :mod:`repro.ddi` -- the driving data integrator
* :mod:`repro.faults` -- deterministic fault injection + resilience primitives
* :mod:`repro.fleet` -- crash-tolerant partitioned multi-process simulation
* :mod:`repro.libvdap` -- the open application library (models, pBEAM, API)
* :mod:`repro.apps` -- the four in-vehicle service classes + V2V collab
* :mod:`repro.obs` -- deterministic observability: metric registry, span
  tracer (Chrome-trace export), benchmark reports
* :mod:`repro.workloads` -- workload generators
* :mod:`repro.scenarios` -- the declarative scenario DSL + compiler
* :mod:`repro.analysis` -- the ``vdaplint`` determinism & safety linter
  (not imported here: the runtime never loads the linter; import it
  explicitly)
"""

__version__ = "1.0.0"

from . import apps, ddi, edgeos, faults, fleet, hw, libvdap, net, nn, obs, offload
from . import scenario, scenarios, sim, topology, vcu, vision, workloads

__all__ = [
    "__version__",
    "apps",
    "ddi",
    "edgeos",
    "faults",
    "fleet",
    "hw",
    "libvdap",
    "net",
    "nn",
    "obs",
    "offload",
    "scenario",
    "scenarios",
    "sim",
    "topology",
    "vcu",
    "vision",
    "workloads",
]
