"""Lightweight tracing bus for simulation runs.

Components emit structured trace records (category + fields); subscribers --
metric collectors, tests, or a debugging printer -- receive them
synchronously.  Protocol-level metrics (sender elections, parents, segment
and image completions) are built on traces, so protocol code never needs to
know which figures are being produced.  Per-frame counts (transmissions,
receptions, collisions) are kept by the radio layer itself and read by the
metrics collector at the end of a run; the channel still publishes them as
``radio.tx`` / ``radio.rx`` / ``channel.collision`` records whenever a
subscriber (a trace writer, a test, a tap) watches those categories.

Thread-local *taps* let a harness observe simulations it does not
construct: :func:`push_tap` registers a subscriber that every
:class:`Tracer` created afterwards *in the same thread* attaches at
construction time.  The dissemination service uses this to stream
per-job progress events (and to abort cancelled jobs cooperatively: a
tap may raise, which unwinds the simulation).  With no tap installed the
hook costs one thread-local read per Tracer construction and nothing per
emit.
"""

import threading

_TAPS = threading.local()


def push_tap(fn, categories=None):
    """Attach ``fn(record)`` to every Tracer later built in this thread.

    ``categories`` limits delivery exactly like :meth:`Tracer.subscribe`.
    Taps stack; pop with :func:`pop_tap` (always, in a ``finally``).
    """
    stack = getattr(_TAPS, "stack", None)
    if stack is None:
        stack = _TAPS.stack = []
    stack.append((fn, frozenset(categories) if categories is not None
                  else None))
    return fn


def pop_tap(fn):
    """Remove the most recent tap registered for ``fn`` in this thread."""
    stack = getattr(_TAPS, "stack", None) or []
    for i in range(len(stack) - 1, -1, -1):
        if stack[i][0] is fn:
            del stack[i]
            return
    raise ValueError("tap not installed in this thread")


def current_taps():
    """The ``(fn, categories)`` taps active in this thread (a tuple)."""
    return tuple(getattr(_TAPS, "stack", ()))


class TraceRecord:
    """One trace entry: virtual time, category string, and a fields dict."""

    __slots__ = ("time", "category", "fields")

    def __init__(self, time, category, fields):
        self.time = time
        self.category = category
        self.fields = fields

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self):
        parts = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<{self.category} @{self.time:.1f}ms {parts}>"


class _Watchers(dict):
    """category -> tuple of the subscriber fns it reaches, in subscription
    order; filled on the first lookup of each category.

    An unwatched category -- or any category while the tracer is
    disabled -- maps to an empty tuple, so hot emitters guard with a
    plain subscript, ``if tracer.watchers[category]:``, before building
    a record's fields.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def __missing__(self, category):
        tracer = self._tracer
        fns = tuple(
            fn for fn, categories in tracer._subscribers
            if categories is None or category in categories
        ) if tracer.enabled else ()
        self[category] = fns
        return fns


class Tracer:
    """Publish/subscribe hub for :class:`TraceRecord` objects."""

    def __init__(self, sim):
        self._sim = sim
        self._subscribers = list(current_taps())
        self._enabled = True
        self.watchers = _Watchers(self)

    @property
    def enabled(self):
        """False silences every category (existing subscribers stay)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value):
        self._enabled = bool(value)
        self.watchers.clear()

    def subscribe(self, fn, categories=None):
        """Register ``fn(record)``; ``categories`` limits delivery if given."""
        if categories is not None:
            categories = frozenset(categories)
        self._subscribers.append((fn, categories))
        self.watchers.clear()
        return fn

    def unsubscribe(self, fn):
        self._subscribers = [(f, c) for f, c in self._subscribers if f is not fn]
        self.watchers.clear()

    def watches(self, category):
        """True if emitting ``category`` would reach a subscriber.

        Hot emitters test ``tracer.watchers[category]`` directly, which
        answers the same question without a method call.
        """
        return bool(self.watchers[category])

    def emit(self, category, **fields):
        """Publish a record stamped with the current virtual time."""
        fns = self.watchers[category]
        if not fns:
            return
        record = TraceRecord(self._sim.now, category, fields)
        for fn in fns:
            fn(record)

    def print_to(self, stream, categories=None):
        """Convenience: subscribe a printer writing one line per record."""

        def _printer(record):
            stream.write(f"{record}\n")

        return self.subscribe(_printer, categories)
