"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so simultaneous events execute in scheduling order
and runs are fully deterministic.
"""

import itertools
from heapq import heappop, heappush


class Event:
    """A scheduled callback.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`;
    user code normally only keeps a reference in order to :meth:`cancel` it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        """Mark the event so the queue skips it; cancelling twice, or
        cancelling an event that has already fired, is a no-op."""
        if not self.fired:
            self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} {name}{state}>"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The heap holds ``(time, seq, event)`` tuples rather than bare events:
    ``seq`` is unique, so sift comparisons resolve on the first two
    scalar fields at C speed and never fall back to a Python-level
    ``Event.__lt__`` call -- heap maintenance is the kernel's single
    hottest loop.  Cancellation is lazy: cancelled events stay in the
    heap and are discarded on pop, which keeps both operations O(log n).

    :meth:`repro.sim.kernel.Simulator.schedule` inlines :meth:`push`
    (the heap, counter and live count are its only state), so the
    kernel's hottest call reaches the heap without a second Python call.
    """

    def __init__(self):
        self._heap = []  # (time, seq, Event) entries
        self._counter = itertools.count()
        self._live = 0

    def push(self, time, fn, args=()):
        """Insert a callback at absolute ``time``; returns the Event handle."""
        event = Event(time, next(self._counter), fn, args)
        heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def pop(self):
        """Remove and return the earliest non-cancelled event, or None."""
        while self._heap:
            event = heappop(self._heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            event.fired = True
            return event
        return None

    def pop_due(self, until=None):
        """Pop the earliest live event due at or before ``until``.

        Returns None when the earliest live event lies beyond ``until``
        or the queue is empty.  This fuses peek + pop into a single heap
        access for the kernel's inner loop.
        """
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and time > until:
                return None
            heappop(heap)
            self._live -= 1
            event.fired = True
            return event
        return None

    def peek_time(self):
        """Time of the earliest live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def notice_cancel(self):
        """Account for an externally cancelled event (kept internal to kernel).

        Must only be called for events that were live when cancelled; the
        kernel's :meth:`repro.sim.kernel.Simulator.cancel` guards against
        already-fired and already-cancelled events.
        """
        self._live -= 1
