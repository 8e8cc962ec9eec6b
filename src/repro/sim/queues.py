"""Event-queue backends for the simulation kernel.

The kernel orders its future events by ``(when, priority, seq)``: absolute
simulation time first, then an explicit scheduling priority, then the
strictly increasing sequence number the simulator stamps at scheduling
time.  The ``seq`` component is the FIFO tiebreak that makes event order
-- and therefore every trace hash the platform commits to -- a pure
function of the schedule: two events scheduled for the same instant fire
in the order they were scheduled, on every backend.

Backends implement the small :class:`EventQueue` protocol and are
selected per simulator via ``Simulator(queue=...)``:

* :class:`HeapQueue` -- the binary heap the kernel runs on (the default,
  and the only backend fleet runs use).  Its per-event members are
  ``heapq`` calls bound to its list, so the kernel's event loop runs no
  Python frame of this module per event.
* :class:`CalendarQueue` -- dynamically resizing time buckets.  Events
  hash into a bucket by ``when // width``; within a bucket they are kept
  sorted by the full ``(when, priority, seq)`` key, and buckets drain in
  time order.  Kept as the comparison column of the kernel pending-set
  sweep (``perfbench/kernel_sweep.py``), where the heap is faster at
  every measured size.

Both backends yield *identical* pop sequences for identical push
sequences (property-tested in ``tests/property/test_queue_equivalence``),
so swapping backends never changes simulation results -- only wall-clock
speed.
"""

from __future__ import annotations

import heapq
from functools import partial
from heapq import heappop, heappush
from typing import Any, Iterator

__all__ = ["EventQueue", "HeapQueue", "CalendarQueue", "make_queue"]

#: An entry is ``(when, priority, seq, event)``; ``seq`` is unique per
#: simulator, so tuple comparison never reaches the (uncomparable) event.
Entry = tuple


class EventQueue:
    """Ordering contract for kernel event queues.

    Implementations store ``(when, priority, seq, event)`` entries and
    release them in ascending ``(when, priority, seq)`` order.  ``seq``
    values are unique and strictly increasing per simulator, which gives
    same-time, same-priority events FIFO semantics -- the determinism
    contract's load-bearing tiebreak.

    The kernel's event loop calls only ``push_entry``, ``pop`` and
    ``size``; it binds them once per run, so a backend may provide them
    as plain callables (see :class:`HeapQueue`).
    """

    def push(self, when: float, priority: int, seq: int, event: Any) -> None:
        """Insert one entry."""
        self.push_entry((when, priority, seq, event))

    def push_entry(self, entry: Entry) -> None:
        """Insert one ``(when, priority, seq, event)`` tuple."""
        raise NotImplementedError

    def pop(self) -> Entry:
        """Remove and return the smallest entry (IndexError when empty)."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of queued entries."""
        raise NotImplementedError

    def peek(self) -> float:
        """Time of the next entry, or ``+inf`` when empty."""
        raise NotImplementedError

    def remove(self, when: float, priority: int, seq: int) -> bool:
        """Remove the entry with this exact key; True if it was present.

        Cancellation hook (timer wheels, retracted timeouts): the key is
        the full ordering triple, so at most one entry can match.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        return self.size()

    def __bool__(self) -> bool:
        return self.size() > 0

    def __iter__(self) -> Iterator[Entry]:
        """Entries in pop order (non-destructive; for debugging/tests)."""
        raise NotImplementedError


class HeapQueue(EventQueue):
    """The binary-heap backend (``heapq`` underneath).

    ``push_entry``, ``pop`` and ``size`` are C callables bound to the
    heap list, not methods: the kernel calls each once per event, and a
    Python-level wrapper would cost a frame every time.  ``_items`` is
    therefore never rebound, only mutated in place.
    """

    def __init__(self):
        items: list[Entry] = []
        self._items = items
        self.push_entry = partial(heappush, items)
        self.pop = partial(heappop, items)
        self.size = items.__len__

    def peek(self) -> float:
        return self._items[0][0] if self._items else float("inf")

    def remove(self, when: float, priority: int, seq: int) -> bool:
        key = (when, priority, seq)
        for i, entry in enumerate(self._items):
            if entry[:3] == key:
                last = self._items.pop()
                if i < len(self._items):
                    self._items[i] = last
                    heapq.heapify(self._items)
                return True
        return False

    def __iter__(self) -> Iterator[Entry]:
        return iter(sorted(self._items, key=lambda e: e[:3]))


class CalendarQueue(EventQueue):
    """Dynamically resizing bucket queue keyed on simulation time.

    Design (a hashed-calendar variant): entries land in the bucket
    numbered ``floor(when / width)``, stored in a dict so the calendar
    is sparse -- idle stretches of simulated time cost nothing.  Bucket
    numbers are tracked in a small auxiliary heap, so ``pop`` costs
    O(log active-buckets) at bucket boundaries and O(1) within a bucket.
    Within a bucket, entries stay sorted by the full
    ``(when, priority, seq)`` key (binary-insertion on push), preserving
    the FIFO ``seq`` tiebreak byte-for-byte with :class:`HeapQueue`.

    Resize policy: the queue targets ``TARGET_OCCUPANCY`` entries per
    active bucket.  When mean occupancy leaves
    ``[TARGET/4, TARGET*4]`` at a resize checkpoint (every
    ``RESIZE_CHECK`` pushes), the width is re-derived from the current
    time span of queued events and the calendar is rebuilt -- O(n), but
    amortized over at least ``RESIZE_CHECK`` operations.
    """

    #: Desired mean entries per active bucket after a resize.
    TARGET_OCCUPANCY = 2.0
    #: Pushes between occupancy checks (amortizes rebuild cost).
    RESIZE_CHECK = 256

    def __init__(self, width: float = 1.0):
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self._width = float(width)
        self._buckets: dict[int, list[Entry]] = {}
        self._bucket_heap: list[int] = []  # may hold stale (emptied) numbers
        self._size = 0
        self._pushes_until_check = self.RESIZE_CHECK

    # -- protocol ----------------------------------------------------------

    def push_entry(self, entry: Entry) -> None:
        when = entry[0]
        number = int(when / self._width)
        bucket = self._buckets.get(number)
        if bucket is None:
            self._buckets[number] = [entry]
            heappush(self._bucket_heap, number)
        elif entry[:3] >= bucket[-1][:3]:
            # Kernel pushes are mostly time-ordered: appending beats bisect.
            bucket.append(entry)
        else:
            self._insort(bucket, entry)
        self._size += 1
        self._pushes_until_check -= 1
        if self._pushes_until_check <= 0:
            self._maybe_resize()

    def pop(self) -> Entry:
        bucket = self._current_bucket()
        if bucket is None:
            raise IndexError("pop from an empty CalendarQueue")
        entry = bucket.pop(0)
        if not bucket:
            del self._buckets[self._bucket_heap[0]]
            heappop(self._bucket_heap)
        self._size -= 1
        return entry

    def peek(self) -> float:
        bucket = self._current_bucket()
        return bucket[0][0] if bucket is not None else float("inf")

    def remove(self, when: float, priority: int, seq: int) -> bool:
        number = int(when / self._width)
        bucket = self._buckets.get(number)
        if not bucket:
            return False
        key = (when, priority, seq)
        lo, hi = 0, len(bucket)
        while lo < hi:
            mid = (lo + hi) // 2
            if bucket[mid][:3] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(bucket) and bucket[lo][:3] == key:
            bucket.pop(lo)
            self._size -= 1
            if not bucket:
                # The bucket heap is cleaned lazily by _current_bucket.
                del self._buckets[number]
            return True
        return False

    def size(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Entry]:
        entries: list[Entry] = []
        for bucket in self._buckets.values():
            entries.extend(bucket)
        entries.sort(key=lambda e: e[:3])
        return iter(entries)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _insort(bucket: list[Entry], entry: Entry) -> None:
        key = entry[:3]
        lo, hi = 0, len(bucket)
        while lo < hi:
            mid = (lo + hi) // 2
            if bucket[mid][:3] < key:
                lo = mid + 1
            else:
                hi = mid
        bucket.insert(lo, entry)

    def _current_bucket(self) -> list[Entry] | None:
        """The non-empty bucket with the smallest number, or None.

        Pops stale heap entries (buckets emptied by :meth:`remove`) on
        the way -- lazy deletion keeps ``remove`` O(log bucket).
        """
        heap = self._bucket_heap
        buckets = self._buckets
        while heap:
            bucket = buckets.get(heap[0])
            if bucket:
                return bucket
            heappop(heap)
        return None

    def _maybe_resize(self) -> None:
        self._pushes_until_check = self.RESIZE_CHECK
        active = len(self._buckets)
        if active == 0:
            return
        occupancy = self._size / active
        target = self.TARGET_OCCUPANCY
        if target / 4.0 <= occupancy <= target * 4.0:
            return
        self._resize()

    def _resize(self) -> None:
        """Re-derive the bucket width from the queued time span; rebuild."""
        entries: list[Entry] = []
        for bucket in self._buckets.values():
            entries.extend(bucket)
        if len(entries) < 2:
            return
        lo = min(e[0] for e in entries)
        hi = max(e[0] for e in entries)
        span = hi - lo
        if span <= 0.0:
            # Everything at one instant: widen so it shares one bucket.
            width = max(self._width * 2.0, 1.0)
        else:
            width = span / max(1.0, len(entries) / self.TARGET_OCCUPANCY)
        self._width = width
        buckets: dict[int, list[Entry]] = {}
        for entry in entries:
            buckets.setdefault(int(entry[0] / width), []).append(entry)
        for bucket in buckets.values():
            bucket.sort(key=lambda e: e[:3])
        self._buckets = buckets
        self._bucket_heap = list(buckets)
        heapq.heapify(self._bucket_heap)


#: Names accepted by ``Simulator(queue=...)``.
QUEUE_BACKENDS = {
    "heap": HeapQueue,
    "calendar": CalendarQueue,
}


def make_queue(queue: "EventQueue | str | None") -> EventQueue:
    """Resolve a queue selection to a fresh backend instance.

    ``None`` means the kernel's :class:`HeapQueue`; a string picks a
    registered backend by name; an :class:`EventQueue` instance is used
    as-is (it must be empty and unshared).
    """
    if queue is None:
        return HeapQueue()
    if isinstance(queue, str):
        try:
            backend = QUEUE_BACKENDS[queue]
        except KeyError:
            raise ValueError(
                f"unknown queue backend {queue!r} "
                f"(have: {', '.join(sorted(QUEUE_BACKENDS))})"
            ) from None
        return backend()
    if isinstance(queue, EventQueue):
        if len(queue) != 0:
            raise ValueError("queue backend must start empty")
        return queue
    raise TypeError(
        f"queue must be an EventQueue, a backend name, or None; "
        f"got {type(queue).__name__}"
    )
