"""Run times that hold still on a host whose speed wanders.

On a shared host the same code runs at speeds up to 2.5x apart, in spells
from under a second to half an hour (measured on a 2-vCPU KVM guest of a
shared Xeon).  A median over runs follows how much of the run fell in slow
spells.  Two steps take the spells out:

- Every run of one invocation is the same work, marked at the same points
  (:meth:`Slices.mark`).  The *envelope* sums, over the slices between
  marks, the fastest time each slice took in any run.  A spell shorter
  than a run is then missed by some run in every slice.
- At each mark a fixed pure-Python call (:func:`calibrate`) runs and is
  timed, outside the slices.  Its envelope says how fast the host was in
  the moments the workload's envelope was taken from; run and set-up
  times are scaled by ``REFERENCE_CALL_S`` over it.  That takes out a
  spell that covers a whole invocation.  Timed only next to the
  workload's own slices does it track the host: calibrating between runs
  did not.

A scaled time is in *reference seconds*: the time on a host where one
calibration call takes ``REFERENCE_CALL_S``, about the fast-spell time of
the host above.
"""

import heapq
import time

#: Seconds one :func:`calibrate` call takes on the reference host.
REFERENCE_CALL_S = 1.3e-4

CALIBRATION_STEPS = 100


class _Event:
    __slots__ = ("time", "node", "kind")

    def __init__(self, time, node, kind):
        self.time = time
        self.node = node
        self.kind = kind

    def __lt__(self, other):
        return self.time < other.time


def calibrate(steps=CALIBRATION_STEPS):
    """A fixed slice of interpreter work shaped like the simulator's:
    heap pops and pushes of small objects, dict updates, integer maths."""
    heap = [_Event(float(i), i, i & 3) for i in range(64)]
    seen = {}
    x = 12345
    for _ in range(steps):
        event = heapq.heappop(heap)
        key = (event.node, event.kind)
        seen[key] = seen.get(key, 0) + 1
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Event(event.time + (x & 1023) / 64.0,
                                    (event.node * 7 + 3) & 63,
                                    event.kind ^ 1))
    return len(seen)


class Slices:
    """Wall-clock and CPU time of the slices between marks of one run,
    and the time of the calibration call made at each mark."""

    def __init__(self):
        self.wall, self.cpu, self.calls = [], [], []
        self._last = None

    def mark(self):
        wall, cpu = time.perf_counter(), time.process_time()
        if self._last is not None:
            self.wall.append(wall - self._last[0])
            self.cpu.append(cpu - self._last[1])
        calibrate()
        after = time.perf_counter()
        self.calls.append(after - wall)
        self._last = (after, time.process_time())


def envelope(runs):
    """Sum over slices of the fastest time each slice took in any run.

    ``runs`` holds one list of slice durations per run of identical work.
    """
    lengths = {len(run) for run in runs}
    if len(lengths) != 1:
        raise ValueError(f"runs cut into different slice counts: {lengths}")
    return sum(min(column) for column in zip(*runs))


def host_scale(runs):
    """Factor from this host's seconds to reference seconds, from the
    calibration call times of ``runs`` (a list of :class:`Slices`)."""
    calls = [run.calls for run in runs]
    fastest_call = envelope(calls) / len(calls[0])
    return REFERENCE_CALL_S / fastest_call
