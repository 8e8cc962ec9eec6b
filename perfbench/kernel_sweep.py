"""Kernel pending-set sweep: heap vs calendar queue at 10^2..10^5 pending.

A hold model through the public ``Simulator(queue=...)`` API: ``size``
slots, each cycling through its own seeded exponential delays, keep
exactly ``size`` timeouts pending (a fired timeout's callback arms the
slot's next one).  The timed segment fires about
:data:`TIMED_EVENTS` events; a shorter segment after it hashes the firing
order, which must be identical on both backends (same stream, same pops).
"""

from __future__ import annotations

import hashlib
import time  # vdaplint: disable=DET001

import numpy as np

from repro.sim import Simulator

__all__ = ["BACKENDS", "SIZES", "TIMED_EVENTS", "kernel_sweep", "metric_name"]

BACKENDS = ("heap", "calendar")
SIZES = (100, 1_000, 10_000, 100_000)
TIMED_EVENTS = 30_000
ORDER_EVENTS = 3_000
DELAYS_PER_SLOT = 16


def metric_name(backend: str, size: int) -> str:
    return f"sim.{backend}.events_per_s.p1e{len(str(size)) - 1}"


class _Hold:
    """``size`` slots, each re-arming its own timeout when it fires."""

    def __init__(self, sim: Simulator, delays: list[list[float]]):
        self.sim = sim
        self.delays = delays
        self.fired = [0] * len(delays)
        for slot in range(len(delays)):
            self._arm(slot)

    def _arm(self, slot: int) -> None:
        delay = self.delays[slot][self.fired[slot] % DELAYS_PER_SLOT]
        self.sim.timeout(delay, value=slot).callbacks.append(self._fire)

    def _fire(self, event) -> None:
        slot = event.value
        self.fired[slot] += 1
        self._arm(slot)


def _one_cell(backend: str, size: int, seed: int) -> tuple[float, str, int]:
    """(events per wall second, firing-order digest, events fired)."""
    rng = np.random.default_rng([seed, size])
    delays = rng.exponential(1.0, size=(size, DELAYS_PER_SLOT)).tolist()
    sim = Simulator(queue=backend)
    _Hold(sim, delays)
    # Each slot fires at rate 1 per unit of sim time (mean delay 1.0).
    horizon = TIMED_EVENTS / size
    start = time.perf_counter()  # vdaplint: disable=DET001
    sim.run(until=horizon)
    elapsed = time.perf_counter() - start  # vdaplint: disable=DET001
    fired = sim.events_fired
    order = hashlib.blake2b(digest_size=16)
    sim.add_trace_tap(
        lambda event, when: order.update(f"{when!r}|{event.value}\n".encode())
    )
    sim.run(until=horizon + ORDER_EVENTS / size)
    return fired / elapsed, order.hexdigest(), sim.events_fired


def kernel_sweep(seed: int) -> tuple[dict[str, float], list[str]]:
    """Events/s per backend and size, plus any pop-order mismatches."""
    rates: dict[str, float] = {}
    mismatches: list[str] = []
    for size in SIZES:
        cells = {backend: _one_cell(backend, size, seed) for backend in BACKENDS}
        for backend, (rate, _order, _fired) in cells.items():
            rates[metric_name(backend, size)] = rate
        reference = cells[BACKENDS[0]][1:]
        for backend in BACKENDS[1:]:
            if cells[backend][1:] != reference:
                mismatches.append(f"{backend} pops differ from {BACKENDS[0]} at {size} pending")
    return rates, mismatches
