"""Per-layer spans and counters for the traced benchmark run.

:func:`install` wraps, in this process only, the calls each layer of
``repro`` receives from outside: kernel dispatch into event handlers,
``Simulator.run``/``run_until``/``schedule``, ``Timer.start``/``stop`` and
timer callbacks, ``CsmaMac.send`` and the MAC's client callbacks
(``on_receive``, ``on_send_done``), ``Channel.transmit``/``carrier_busy``,
``Eeprom.read``/``write``, ``Tracer.emit``, the ``GenerationEncoder``/
``GenerationDecoder``/``CodedSegmentTracker`` methods, ``Deployment``
set-up, ``execute_spec``, ``Runner.load_cached``/``store`` and
``JobStore.submit_run``.  No file of ``repro`` changes.

A span charges the thread-CPU time of its call to its layer, minus the
time of the spans nested in it, so a layer's *self time* excludes work it
handed to another layer -- also when a call re-enters a layer it came
from (radio -> core -> radio).  Each thread keeps its own span stack, so
spans opened in the service's worker threads nest correctly.  Thread-CPU
time (not wall time) is used because worker threads share the
interpreter lock: wall-clock spans in two threads would count the same
second twice.  Latency samples (``*_ms``) and inclusive phase totals are
wall-clock.
"""

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

#: The layers, in report order (this repository's modules).
LAYERS = ("sim", "radio", "core", "coding", "hardware", "trace",
          "experiments", "runner", "service")

#: Module prefix -> layer; the first match wins, so specific prefixes
#: come before their parents.  Code outside ``repro`` (the benchmark's
#: own workloads) belongs to no layer: its few statements are charged to
#: whichever span called it.
_MODULE_LAYERS = (
    ("repro.core.coding", "coding"),
    ("repro.sim.tracing", "trace"),
    ("repro.metrics", "trace"),
    ("repro.sim", "sim"),
    ("repro.radio", "radio"),
    ("repro.net", "radio"),
    ("repro.core", "core"),
    ("repro.baselines", "core"),
    ("repro.hardware", "hardware"),
    ("repro.experiments", "experiments"),
    ("repro.runner", "runner"),
    ("repro.service", "service"),
)


def module_layer(module):
    """The layer owning ``module`` (a dotted name), or None."""
    if not module:
        return None
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def layer_of(fn):
    """The layer of a callable: the module its code was defined in."""
    if isinstance(fn, functools.partial):
        return layer_of(fn.func)
    func = getattr(fn, "__func__", fn)
    return module_layer(getattr(func, "__module__", None))


#: Counters the program keeps on its own objects: metric -> (class name,
#: attribute).  Instances built while tracing are tracked and their
#: attributes summed, as the change since :meth:`SpanClock.rebase`.
OBJECT_COUNTERS = {
    "radio.collisions": ("Channel", "collisions"),
    "radio.bit_errors": ("Channel", "bit_error_losses"),
    "radio.link_cache_hits": ("Channel", "link_cache_hits"),
    "radio.link_cache_misses": ("Channel", "link_cache_misses"),
    "radio.mac_backoffs": ("CsmaMac", "congestion_backoffs"),
    "hw.radio_toggles": ("Radio", "on_off_transitions"),
}


def _object_counts(kind, obj):
    return {metric: getattr(obj, attr)
            for metric, (owner, attr) in OBJECT_COUNTERS.items()
            if owner == kind}


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "totals", "samples", "peaks",
                 "pending", "objects")

    def __init__(self):
        self.stack = []                     # [layer, child seconds] frames
        self.self_s = defaultdict(float)    # layer -> thread-CPU seconds
        self.counts = Counter()
        self.totals = defaultdict(float)    # name -> inclusive wall seconds
        self.samples = defaultdict(list)    # name -> values
        self.peaks = defaultdict(int)
        self.pending = {}                   # frame -> virtual send time
        self.objects = []                   # [kind, obj, baseline counts]

    def clear(self, keep_objects):
        self.self_s.clear()
        self.counts.clear()
        self.totals.clear()
        self.samples.clear()
        self.peaks.clear()
        self.pending.clear()
        if keep_objects:
            for entry in self.objects:
                entry[2] = _object_counts(entry[0], entry[1])
        else:
            self.objects.clear()


class Snapshot:
    """Merged per-layer data of every thread at one instant."""

    def __init__(self, states):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.totals = defaultdict(float)
        self.samples = defaultdict(list)
        self.peaks = defaultdict(int)
        for st in states:
            for layer, value in st.self_s.items():
                self.self_s[layer] += value
            self.counts.update(st.counts)
            for name, value in st.totals.items():
                self.totals[name] += value
            for name, values in st.samples.items():
                self.samples[name].extend(values)
            for name, value in st.peaks.items():
                self.peaks[name] = max(self.peaks[name], value)
            for kind, obj, baseline in st.objects:
                for metric, value in _object_counts(kind, obj).items():
                    self.counts[metric] += value - baseline[metric]


class SpanClock:
    """Self time per layer over nested spans, one span stack per thread.

    ``clock`` measures span durations (thread-CPU time by default; tests
    pass a fake).  ``wall`` measures inclusive totals and samples.
    """

    def __init__(self, clock=time.thread_time, wall=time.perf_counter):
        self.clock = clock
        self.wall = wall
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        #: mark name -> {service job key: value}: ``submitted`` and
        #: ``running`` wall times, ``exec_ms`` execute_spec wall time
        self.marks = defaultdict(dict)

    def state(self):
        """This thread's state, registered on first use."""
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def call(self, layer, fn, args, kwargs=None, total=None):
        """Run ``fn(*args, **kwargs)`` inside a ``layer`` span."""
        st = self.state()
        stack = st.stack
        frame = [layer, 0.0]
        stack.append(frame)
        if total is not None:
            w0 = self.wall()
        t0 = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dt = self.clock() - t0
            if total is not None:
                st.totals[total] += self.wall() - w0
            stack.pop()
            st.self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def wrap(self, layer, fn, count=None, total=None):
        """``fn`` as a ``layer`` span, optionally counted and timed."""
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(f"cannot span {fn!r}: it suspends mid-call")
        call = self.call
        state = self.state

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count is not None:
                state().counts[count] += 1
            return call(layer, fn, args, kwargs, total)

        return spanned

    def snapshot(self):
        with self._lock:
            states = list(self._states)
        return Snapshot(states)

    def track(self, kind, obj):
        """Sum ``obj``'s :data:`OBJECT_COUNTERS` of ``kind`` into counts."""
        self.state().objects.append([kind, obj, _object_counts(kind, obj)])

    def reset(self):
        """Forget everything recorded so far, tracked objects included."""
        self._clear(keep_objects=False)

    def rebase(self):
        """Zero the data but keep tracked objects, counting their counters
        from their current values (between set-up and run phases)."""
        self._clear(keep_objects=True)

    def _clear(self, keep_objects):
        with self._lock:
            for st in self._states:
                st.clear(keep_objects)
        self.marks.clear()


class Tracing:
    """The installed wrappers plus the :class:`SpanClock` they feed."""

    def __init__(self):
        self.clock = SpanClock()
        self._undo = []

    def patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, value)

    def uninstall(self):
        """Restore every replaced attribute, last replaced first."""
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


_ABSENT = object()


def install():
    """Wrap every layer boundary of the imported ``repro``; see module doc.

    Returns a :class:`Tracing`; call its ``uninstall()`` to restore the
    original attributes.  Objects built while installed keep their wrapped
    callbacks after uninstall (they only feed a clock nobody reads).
    """
    import repro.experiments.common as common
    import repro.runner as runner_mod
    import repro.service.jobs as jobs_mod
    from repro.core.coding import (CodedSegmentTracker, GenerationDecoder,
                                   GenerationEncoder)
    from repro.core.messages import DataPacket
    from repro.hardware.eeprom import Eeprom
    from repro.radio.channel import Channel
    from repro.radio.mac import CsmaMac
    from repro.radio.radio import Radio
    from repro.sim.events import EventQueue
    from repro.sim.kernel import Simulator
    from repro.sim.timers import Timer
    from repro.sim.tracing import Tracer

    try:  # the optional numpy channel, a Channel subclass
        import repro.radio.vector_channel  # noqa: F401
    except ImportError:
        pass
    tracing = Tracing()
    clock = tracing.clock
    patch = tracing.patch
    wrap = clock.wrap
    state = clock.state
    call = clock.call

    def wrap_method(cls, name, layer, **kw):
        patch(cls, name, wrap(layer, cls.__dict__[name], **kw))

    def tracked_init(cls):
        init = cls.__init__

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            clock.track(cls.__name__, obj)

        patch(cls, "__init__", traced_init)

    # -- sim: the run loop, event dispatch, scheduling, timers ----------
    wrap_method(Simulator, "run", "sim")
    layers_by_code = {}
    timer_fire = Timer._fire

    def dispatch(fn, *args):
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        try:
            layer = layers_by_code[key]
        except KeyError:
            layer = layers_by_code[key] = layer_of(fn)
        counts = state().counts
        counts["sim.events"] += 1
        if func is timer_fire:
            counts["sim.timer_fires"] += 1
        if layer is None:
            return fn(*args)
        return call(layer, fn, args)

    pop_due = EventQueue.pop_due

    def traced_pop_due(queue, until=None):
        event = pop_due(queue, until)
        if event is not None:
            event.args = (event.fn,) + event.args
            event.fn = dispatch
        return event

    patch(EventQueue, "pop_due", traced_pop_due)

    def push_counted(name):
        original = Simulator.__dict__[name]

        def traced(sim, *args):
            event = call("sim", original, (sim,) + args)
            st = state()
            st.counts["sim.pushes"] += 1
            depth = len(getattr(sim.queue, "_heap", sim.queue))
            if depth > st.peaks["sim.heap_peak"]:
                st.peaks["sim.heap_peak"] = depth
            return event

        patch(Simulator, name, traced)

    push_counted("schedule")
    push_counted("schedule_at")

    run_until = Simulator.run_until

    def traced_run_until(sim, predicate, *args, **kwargs):
        polled = wrap("experiments", predicate, count="experiments.polls",
                      total="experiments.poll")
        return call("sim", run_until, (sim, polled) + args, kwargs)

    patch(Simulator, "run_until", traced_run_until)
    wrap_method(Timer, "start", "sim", count="sim.timer_starts")
    wrap_method(Timer, "stop", "sim")
    timer_init = Timer.__init__

    def traced_timer_init(timer, sim, callback, *args, **kwargs):
        timer_init(timer, sim, callback, *args, **kwargs)
        layer = layer_of(callback)
        if layer is not None:
            timer.callback = wrap(layer, callback,
                                  count=f"{layer}.timer_callbacks")

    patch(Timer, "__init__", traced_timer_init)

    # -- radio: MAC, channel, radio bookkeeping -------------------------
    mac_send = CsmaMac.send

    def traced_send(mac, *args, **kwargs):
        st = state()
        caller = st.stack[-1][0] if st.stack else None
        st.counts[f"{caller}.sends"] += 1
        frame = call("radio", mac_send, (mac,) + args, kwargs)
        st.pending[frame] = mac.sim.now
        return frame

    patch(CsmaMac, "send", traced_send)

    def client_hook(name, on_call):
        def get(mac):
            return mac.__dict__.get(name)

        def set_(mac, fn):
            layer = layer_of(fn) if fn is not None else None
            if layer is not None:
                fn = on_call(layer, fn)
            mac.__dict__[name] = fn

        patch(CsmaMac, name, property(get, set_))

    def on_receive(layer, fn):
        def received(frame):
            counts = state().counts
            counts[f"{layer}.frames_in"] += 1
            if isinstance(frame.payload, DataPacket):
                counts[f"{layer}.data_frames_in"] += 1
            return call(layer, fn, (frame,))

        return received

    client_hook("on_receive", on_receive)
    client_hook("on_send_done", lambda layer, fn: wrap(layer, fn))

    transmit = Channel.transmit

    def traced_transmit(channel, radio, frame, *args, **kwargs):
        st = state()
        st.counts["radio.tx"] += 1
        sent_at = st.pending.pop(frame, None)
        if sent_at is not None:
            st.samples["radio.mac_wait_ms"].append(channel.sim.now - sent_at)
        return call("radio", transmit, (channel, radio, frame) + args, kwargs)

    patch(Channel, "transmit", traced_transmit)
    for cls in _channel_classes(Channel):
        if "carrier_busy" in cls.__dict__:
            wrap_method(cls, "carrier_busy", "radio",
                        count="radio.carrier_polls")
    rx_began = Radio.rx_began

    def counted_rx_began(radio):
        state().counts["radio.rx_opened"] += 1
        return rx_began(radio)

    patch(Radio, "rx_began", counted_rx_began)
    deliver = Radio.deliver

    def counted_deliver(radio, frame):
        state().counts["radio.delivered"] += 1
        return deliver(radio, frame)

    patch(Radio, "deliver", counted_deliver)
    for cls in (Channel, CsmaMac, Radio):
        tracked_init(cls)

    # -- hardware --------------------------------------------------------
    wrap_method(Eeprom, "read", "hardware", count="hw.eeprom_reads")
    wrap_method(Eeprom, "write", "hardware", count="hw.eeprom_writes")

    # -- trace -----------------------------------------------------------
    emit = Tracer.emit

    def traced_emit(tracer, category, **fields):
        counts = state().counts
        counts["trace.emits"] += 1
        counts["emit:" + category] += 1
        return call("trace", emit, (tracer, category), fields)

    patch(Tracer, "emit", traced_emit)

    # -- coding ----------------------------------------------------------
    for cls in (GenerationEncoder, GenerationDecoder, CodedSegmentTracker):
        for name, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if name.startswith("__") and name != "__init__":
                continue
            patch(cls, name, wrap("coding", fn,
                                  count=f"coding.{cls.__name__}.{name}"))
    absorb = CodedSegmentTracker.absorb   # the counted span just installed

    def traced_absorb(tracker, *args, **kwargs):
        innovative = absorb(tracker, *args, **kwargs)
        if innovative:
            state().counts["coding.innovative"] += 1
        return innovative

    patch(CodedSegmentTracker, "absorb", traced_absorb)

    # -- experiments: Deployment set-up ----------------------------------
    wrap_method(common.Deployment, "__init__", "experiments")
    patch(common, "make_channel",
          wrap("radio", common.make_channel, total="setup.channel"))

    # -- runner ----------------------------------------------------------
    execute_spec = runner_mod.execute_spec

    def traced_execute(spec):
        w0 = clock.wall()
        try:
            return call("runner", execute_spec, (spec,), None, "runner.exec")
        finally:
            clock.marks["exec_ms"][spec.cache_key()] = \
                (clock.wall() - w0) * 1000.0

    patch(runner_mod, "execute_spec", traced_execute)
    patch(jobs_mod, "execute_spec", traced_execute)
    load_cached = runner_mod.Runner.load_cached

    def traced_load_cached(runner, spec):
        metrics = call("runner", load_cached, (runner, spec), None,
                       "runner.load")
        counts = state().counts
        counts["runner.loads"] += 1
        if metrics is not None:
            counts["runner.load_hits"] += 1
        return metrics

    patch(runner_mod.Runner, "load_cached", traced_load_cached)
    wrap_method(runner_mod.Runner, "store", "runner", total="runner.store")

    # -- service ---------------------------------------------------------
    submit_run = jobs_mod.JobStore.submit_run

    def traced_submit_run(store, spec, *args, **kwargs):
        job, deduped = call("service", submit_run, (store, spec) + args,
                            kwargs)
        if not deduped:
            clock.marks["submitted"][job.key] = clock.wall()
        return job, deduped

    patch(jobs_mod.JobStore, "submit_run", traced_submit_run)
    add_event = jobs_mod.Job.add_event

    def traced_add_event(job, event_name, **fields):
        if event_name == "running":
            clock.marks["running"][job.key] = clock.wall()
        return add_event(job, event_name, **fields)

    patch(jobs_mod.Job, "add_event", traced_add_event)
    return tracing


def _channel_classes(base):
    """``base`` and every imported subclass (e.g. the vector channel)."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
