"""Re-export of :mod:`repro.sim.sanitizer`, the runtime determinism sanitizer."""

# perfbench/layer_trace.py patches _record via this path: same class, so it lands.
from ..sim.sanitizer import DeterminismSanitizer, Divergence, TraceRecord

__all__ = ["DeterminismSanitizer", "Divergence", "TraceRecord"]
