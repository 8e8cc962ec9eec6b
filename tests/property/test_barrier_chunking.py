"""Chunked runs fire exactly what one run() fires (hypothesis).

The kernel loop pops first and checks ``until`` on the popped entry; the
one entry past the horizon is pushed back with its key unchanged.  These
properties cut one seeded schedule into ``run(until=...)`` and
``run_to_barrier`` chunks -- barriers exactly on event times, barriers
between events, ``stop()`` in the middle of a chunk -- and require the
same ``(when, seq)`` firing order as an uncut run, on both backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.queues import make_queue

BACKENDS = ("heap", "calendar")
#: Event times lie on this lattice, so a lattice barrier lands exactly
#: on event times and a half-step barrier falls between them.
STEP_S = 0.25


def recording_sim(backend: str) -> tuple[Simulator, dict[int, int]]:
    """A simulator whose queue logs each popped event's ``seq``."""
    queue = make_queue(backend)
    seqs: dict[int, int] = {}
    pop = queue.pop

    def logged_pop():
        entry = pop()
        seqs[id(entry[3])] = entry[2]
        return entry

    queue.pop = logged_pop
    return Simulator(queue=queue), seqs


def launch(sim: Simulator, plan, stop_at) -> None:
    """One process per plan row: wait, maybe stop(), fan out same-time events."""

    def worker(pid, steps):
        for index, (quarters, fanout) in enumerate(steps):
            yield sim.timeout(quarters * STEP_S)
            if (pid, index) == stop_at:
                sim.stop()
            for _ in range(fanout):
                sim.timeout(0.0)

    for pid, steps in enumerate(plan):
        sim.process(worker(pid, steps), name=f"w{pid}")


def drain(sim: Simulator) -> None:
    """run() until nothing is pending (a stop() ends one run early)."""
    while sim.peek() != float("inf"):
        sim.run()


def fire(backend: str, plan, stop_at, barriers=()) -> tuple[list, int]:
    """(when, seq) firing order and events fired for one driving pattern."""
    sim, seqs = recording_sim(backend)
    fired: list[tuple[float, object]] = []
    sim.add_trace_tap(lambda event, when: fired.append((when, event)))
    launch(sim, plan, stop_at)
    for barrier_s, use_barrier_api in barriers:
        if use_barrier_api:
            sim.run_to_barrier(barrier_s)
        else:
            sim.run(until=barrier_s)
    drain(sim)
    return [(when, seqs[id(event)]) for when, event in fired], sim.events_fired


plans = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=8),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=6,
    ),
    min_size=1, max_size=5,
)
barrier_times = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * STEP_S),
    st.integers(min_value=0, max_value=40).map(lambda k: (k + 0.5) * STEP_S),
)
barrier_lists = st.lists(st.tuples(barrier_times, st.booleans()), max_size=10).map(
    lambda items: sorted(items, key=lambda item: item[0])
)
stop_points = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=5)),
)


@pytest.mark.parametrize("backend", BACKENDS)
@given(plan=plans, barriers=barrier_lists, stop_at=stop_points)
@settings(max_examples=100, deadline=None)
def test_chunked_runs_fire_like_one_run(backend, plan, barriers, stop_at):
    expected = fire(backend, plan, stop_at)
    assert fire(backend, plan, stop_at, barriers) == expected


@given(plan=plans, barriers=barrier_lists, stop_at=stop_points)
@settings(max_examples=50, deadline=None)
def test_backends_fire_the_same_chunked_order(plan, barriers, stop_at):
    heap = fire("heap", plan, stop_at, barriers)
    assert fire("calendar", plan, stop_at, barriers) == heap


@pytest.mark.parametrize("backend", BACKENDS)
def test_barrier_on_an_event_time_fires_that_event(backend):
    sim, _seqs = recording_sim(backend)
    fired = []
    sim.timeout(1.0).callbacks.append(lambda _evt: fired.append(sim.now))
    sim.timeout(2.0).callbacks.append(lambda _evt: fired.append(sim.now))
    checkpoint = sim.run_to_barrier(1.0)
    assert fired == [1.0]
    assert checkpoint.queue_depth == 1
    assert checkpoint.next_event_s == 2.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_barrier_between_events_leaves_the_next_one_queued(backend):
    sim, _seqs = recording_sim(backend)
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.run(until=1.5) == 1.5
    assert sim.events_fired == 1
    assert sim.checkpoint().queue_depth == 1
    assert sim.peek() == 2.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_stop_mid_chunk_leaves_the_rest_for_the_next_run(backend):
    sim, _seqs = recording_sim(backend)
    sim.timeout(1.0).callbacks.append(lambda _evt: sim.stop())
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.run(until=5.0) == 1.0
    assert sim.events_fired == 1
    assert sim.run(until=5.0) == 5.0
    assert sim.events_fired == 3
