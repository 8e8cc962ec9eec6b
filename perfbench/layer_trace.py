"""Per-layer attribution, timed from outside the program.

A :class:`LayerTracer` swaps public entry points of ``repro`` layers for
thin wrappers (class attributes and module globals, restored on exit) and
keeps aggregated spans in memory: calls, total and self seconds per layer.
A layer's self time is its span time minus the part covered by spans
nested inside it, so the kernel's ``Simulator.run`` self time excludes
the observability, VCU, edge-OS and trace-hash work it dispatches.

Generator functions (the DSF's job and task processes) are wrapped so
that each resumption by the kernel is a span of the layer that owns the
process; creating the generator is free.

Nothing in ``src/`` is edited: the wrappers exist only while a tracer is
installed, in the benchmark's own process.
"""

from __future__ import annotations

import functools
import time  # vdaplint: disable=DET001
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["LayerTracer", "install_layer_spans", "patched"]

_clock = time.perf_counter  # vdaplint: disable=DET001
_MISSING = object()


def _swap(owner: Any, attr: str, value: Any) -> Any:
    """Set ``owner.attr`` and return what to restore (class dict entry)."""
    if isinstance(owner, type):
        original = owner.__dict__.get(attr, _MISSING)
    else:
        original = getattr(owner, attr)
    setattr(owner, attr, value)
    return original


def _unswap(owner: Any, attr: str, original: Any) -> None:
    if original is _MISSING:
        delattr(owner, attr)
    else:
        setattr(owner, attr, original)


@contextmanager
def patched(owner: Any, attr: str, value: Any) -> Iterator[None]:
    """Set ``owner.attr = value`` for the duration of the block."""
    original = _swap(owner, attr, value)
    try:
        yield
    finally:
        _unswap(owner, attr, original)


class _TimedGenerator:
    """A generator proxy that spans every ``send``/``throw`` as one layer.

    ``send`` and ``throw`` are all the kernel's ``Process`` calls.
    """

    __slots__ = ("_gen", "_enter", "_exit", "_layer")

    def __init__(self, gen, tracer: "LayerTracer", layer: str):
        self._gen = gen
        self._enter = tracer._enter
        self._exit = tracer._exit
        self._layer = layer

    def send(self, value):
        start = self._enter()
        try:
            return self._gen.send(value)
        finally:
            self._exit(self._layer, start)

    def throw(self, exc):
        start = self._enter()
        try:
            return self._gen.throw(exc)
        finally:
            self._exit(self._layer, start)


class LayerTracer:
    """In-memory span aggregates for one traced drive.

    ``calls[name]`` counts calls of each wrapped entry point (by the
    counter name given at :meth:`wrap`), ``self_s[layer]`` accumulates
    self time.  Probes (:meth:`probe_max`) record plain values such as the
    kernel's pending-set size at each barrier.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return _clock()

    def _exit(self, layer: str, start: float) -> None:
        elapsed = _clock() - start
        stack = self._stack
        child = stack.pop()
        self.self_s[layer] += elapsed - child
        self.total_s[layer] += elapsed
        if stack:
            stack[-1] += elapsed

    def timed(self, layer: str, fn: Callable, counter: str | None = None) -> Callable:
        """``fn`` wrapped in a span of ``layer`` (counting calls as ``counter``)."""
        enter, leave, calls = self._enter, self._exit, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                calls[counter] += 1
            start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, start)

        return wrapper

    def timed_generator(self, layer: str, genfn: Callable) -> Callable:
        """``genfn`` returning generators whose every resumption is a span."""
        tracer = self

        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(genfn(*args, **kwargs), tracer, layer)

        return wrapper

    # -- installing wrappers -----------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, _swap(owner, attr, value)))

    def wrap(self, owner: Any, attr: str, layer: str, counter: str | None = None) -> None:
        """Replace ``owner.attr`` with a span of ``layer`` until :meth:`restore`."""
        self._set(owner, attr, self.timed(layer, getattr(owner, attr), counter))

    def wrap_generator(self, owner: Any, attr: str, layer: str) -> None:
        self._set(owner, attr, self.timed_generator(layer, getattr(owner, attr)))

    def probe_max(self, owner: Any, attr: str, name: str,
                  read: Callable[[Any], float]) -> None:
        """Track the maximum of ``read(result)`` over calls of ``owner.attr``."""
        fn = getattr(owner, attr)
        maxima = self.maxima

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            value = read(result)
            if value > maxima[name]:
                maxima[name] = value
            return result

        self._set(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every wrapper, last first."""
        while self._patches:
            _unswap(*self._patches.pop())

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.restore()


#: Collector entry points counted as ``obs.calls``.
OBS_METHODS = (
    "count", "gauge", "observe", "observe_batch", "span", "async_span", "instant",
)


def install_layer_spans(tracer: LayerTracer) -> None:
    """Wrap every layer boundary the fleet drive crosses.

    Layers and their entry points:

    * ``sim`` -- ``Simulator.run`` (every barrier round's event loop);
    * ``obs`` -- the ``Collector`` recording calls; ``obs.merge`` --
      ``merge_many`` and ``mergeable_view`` as the fleet calls them;
    * ``vcu`` -- ``DSF.submit`` plus every resumption of the DSF's job
      and task processes;
    * ``edgeos`` -- ``ElasticManager.choose``; ``offload`` -- placement
      compilation and evaluation, a child span of ``choose``;
    * ``trace_hash`` -- the ``DeterminismSanitizer`` tap and
      ``VehicleTraceHash.record_*``.
    """
    from repro.analysis.sanitizer import DeterminismSanitizer
    from repro.edgeos import elastic
    from repro.fleet import coordinator
    from repro.fleet.runtime import VehicleTraceHash
    from repro.obs.recorder import Collector
    from repro.offload.placement import CompiledPlacement
    from repro.sim.core import Simulator
    from repro.vcu.dsf import DSF

    tracer.wrap(Simulator, "run", "sim", counter="sim.run")
    tracer.probe_max(Simulator, "run_to_barrier", "sim.pending_max",
                     lambda checkpoint: checkpoint.queue_depth)
    for method in OBS_METHODS:
        tracer.wrap(Collector, method, "obs", counter="obs.calls")
    tracer.wrap(coordinator, "merge_many", "obs.merge")
    tracer.wrap(coordinator, "mergeable_view", "obs.merge")
    tracer.wrap(DSF, "submit", "vcu", counter="vcu.dsf_submits")
    tracer.wrap_generator(DSF, "_run_job", "vcu")
    tracer.wrap_generator(DSF, "_run_task", "vcu")
    tracer.wrap(elastic.ElasticManager, "choose", "edgeos", counter="edgeos.choose_calls")
    tracer.wrap(elastic, "compile_placement", "offload")
    tracer.wrap(CompiledPlacement, "evaluate", "offload")
    tracer.wrap(DeterminismSanitizer, "_record", "trace_hash")
    for method in ("record_send", "record_receive", "record_state"):
        tracer.wrap(VehicleTraceHash, method, "trace_hash")
