"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, drives ``repro``
through its public API in a closed loop, and checks the outputs.
``run.py`` calls, per iteration::

    state, phases = workload.setup()     # timed as setup_s
    handle = workload.run(state, clock, slices)   # run_wall_s / run_cpu_s
    check = workload.check(state, handle)
    workload.close(state)

``slices``, given on untraced runs, is a ``slices.Slices``: a simulation
workload marks it at fixed points of the simulation (every poll of
``run_until``, every ``SLICE_EVENTS`` events), the same points in every
run of a seed; the service marks every ``SLICE_JOBS`` completed jobs.
``phases`` holds the set-up phase times the workload can see itself
(``topology_s``, ``channel_s``, ``nodes_s``).  ``check`` returns a
:class:`Check`: the virtual outcomes, which must repeat exactly for a
seed, the attempted and failed job counts, and what failed.

No workload goes through ``repro.profiling`` or ``repro.service.loadgen``,
so a change to those modules cannot change the load.
"""

import asyncio
import hashlib
import ipaddress
import json
import os
import random
import shutil
import tempfile
import time
from statistics import fmean

import repro.baselines  # noqa: F401  (registers coded_mnp)
import repro.radio.channel as channel_module
from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.mac import CsmaMac
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.runner import Runner, RunSpec, execute_spec
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import Service
from repro.sim.kernel import MINUTE, SECOND, Simulator

SPACING_FT = 10.0
DEADLINE_MS = 480 * MINUTE
SLICE_EVENTS = 2000     # radio-saturation: events between two slice marks
SLICE_JOBS = 10         # service-burst: completed jobs between two marks

# The channel the program itself would build: make_channel picks the
# numpy channel when it can; a tree without the factory has one class.
_make_channel = getattr(channel_module, "make_channel", channel_module.Channel)


class Check:
    """What one iteration produced and whether it was right."""

    def __init__(self, outcome, jobs=1, failed_jobs=0, failures=(),
                 latencies_ms=None, detail=None):
        self.outcome = outcome          # virtual outcomes (exact per seed)
        self.jobs = jobs                # attempted units
        self.failed_jobs = failed_jobs
        self.failures = list(failures)  # human-readable reasons
        self.latencies_ms = latencies_ms    # per job, None if not done
        self.detail = detail or {}


def _sim_failures(result, image):
    failures = []
    if result.coverage != 1.0:
        failures.append(f"coverage {result.coverage} != 1.0")
    if result.deadline_hit:
        failures.append("deadline hit")
    if not result.images_intact(image):
        failures.append("an installed image differs from the source image")
    return failures


class Dissemination:
    """A full dissemination of one image over a grid (MNP or coded MNP)."""

    min_iterations = 3

    def __init__(self, protocol, rows, cols, n_segments, segment_packets,
                 range_ft, seed):
        self.protocol = protocol
        self.rows, self.cols = rows, cols
        self.n_segments = n_segments
        self.segment_packets = segment_packets
        self.range_ft = range_ft
        self.seed = seed

    def setup(self):
        t0 = time.perf_counter()
        topology = Topology.grid(self.rows, self.cols, SPACING_FT)
        t1 = time.perf_counter()
        image = CodeImage.random(1, n_segments=self.n_segments,
                                 segment_packets=self.segment_packets,
                                 seed=self.seed)
        deployment = Deployment(
            topology, image=image, protocol=self.protocol, seed=self.seed,
            propagation=PropagationModel(self.range_ft, 3.0),
            loss_model=EmpiricalLossModel(seed=self.seed),
        )
        t2 = time.perf_counter()
        # channel_s comes from the traced make_channel span; run.py
        # subtracts it from deployment_s to get nodes_s.
        return ({"deployment": deployment, "image": image},
                {"topology_s": t1 - t0, "deployment_s": t2 - t1})

    def run(self, state, clock=None, slices=None):
        deployment = state["deployment"]
        if slices is not None:
            # Mark each poll of the run_until that run_to_completion makes.
            run_until = deployment.sim.run_until

            def marked_run_until(predicate, *args, **kwargs):
                def polled():
                    slices.mark()
                    return predicate()
                return run_until(polled, *args, **kwargs)

            deployment.sim.run_until = marked_run_until
        state["result"] = deployment.run_to_completion(
            deadline_ms=DEADLINE_MS)

    def check(self, state, handle):
        deployment, result = state["deployment"], state["result"]
        failures = _sim_failures(result, state["image"])
        completion = result.completion_time_ms
        outcome = {
            "events": deployment.sim.events_executed,
            "sim_completion_s": completion / SECOND if completion else None,
            "messages_sent": sum(result.messages_sent().values()),
            "collisions": result.collector.collisions,
            "avg_active_radio_s": result.average_active_radio_s(),
        }
        return Check(outcome, failed_jobs=int(bool(failures)),
                     failures=failures,
                     detail={"channel": type(deployment.channel).__name__})

    def close(self, state):
        pass


class _Payload:
    """The saturation workload's frame body (the size of an MNP data
    packet); the MAC and channel only read its type name."""

    __slots__ = ()


class _SaturatingSender:
    """Keeps one MAC queue non-empty until its frame budget drains."""

    __slots__ = ("mac", "remaining")

    PAYLOAD = _Payload()
    WIRE_BYTES = 36

    def __init__(self, mac, frames):
        self.mac = mac
        self.remaining = frames
        mac.on_send_done = self._on_send_done

    def start(self):
        if self.remaining > 0:
            self.remaining -= 1
            self.mac.send(self.PAYLOAD, self.WIRE_BYTES)

    def _on_send_done(self, payload):
        self.start()


class RadioSaturation:
    """Every MAC broadcasts back to back until its frame budget drains."""

    min_iterations = 3

    def __init__(self, rows, cols, range_ft, frames_per_node, seed):
        self.rows, self.cols = rows, cols
        self.range_ft = range_ft
        self.frames = frames_per_node
        self.seed = seed

    def setup(self):
        seed = self.seed
        t0 = time.perf_counter()
        topology = Topology.grid(self.rows, self.cols, SPACING_FT)
        t1 = time.perf_counter()
        sim = Simulator(seed=seed)
        channel = _make_channel(sim, topology, EmpiricalLossModel(seed=seed),
                                PropagationModel(self.range_ft, 3.0),
                                seed=seed)
        t2 = time.perf_counter()
        radios, macs, senders = [], [], []
        for node_id in topology.node_ids():
            radio = Radio(sim, node_id)
            channel.attach(radio)
            radio.turn_on()
            mac = CsmaMac(sim, radio, channel, seed=seed)
            radios.append(radio)
            macs.append(mac)
            senders.append(_SaturatingSender(mac, self.frames))
        t3 = time.perf_counter()
        state = {"sim": sim, "channel": channel, "radios": radios,
                 "macs": macs, "senders": senders}
        return state, {"topology_s": t1 - t0, "channel_s": t2 - t1,
                       "nodes_s": t3 - t2}

    def run(self, state, clock=None, slices=None):
        for sender in state["senders"]:
            sender.start()
        sim = state["sim"]
        # Drains when every frame budget is spent.
        while sim.run(max_events=SLICE_EVENTS) == SLICE_EVENTS:
            if slices is not None:
                slices.mark()

    def check(self, state, handle):
        sim, channel = state["sim"], state["channel"]
        n = len(state["senders"])
        failures = []
        if channel.transmissions != n * self.frames:
            failures.append(f"{channel.transmissions} frames sent, "
                            f"budget {n * self.frames}")
        if any(s.remaining for s in state["senders"]) or \
                any(m.pending() for m in state["macs"]):
            failures.append("a frame budget did not drain")
        if sim.queue:
            failures.append("events left after the run")
        radios = state["radios"]
        outcome = {
            "events": sim.events_executed,
            "sim_completion_s": sim.now / SECOND,
            "messages_sent": channel.transmissions,
            "collisions": channel.collisions,
            "avg_active_radio_s":
                sum(r.on_time_ms() for r in radios) / len(radios) / SECOND,
        }
        return Check(outcome, failed_jobs=int(bool(failures)),
                     failures=failures,
                     detail={"channel": type(channel).__name__})

    def close(self, state):
        pass


class ServiceBurst:
    """Closed-loop clients drive an in-process service over loopback.

    Each iteration (one *burst*) starts a fresh service on a fresh cache
    directory that set-up pre-warms with the ``cached`` class of specs;
    the clients then submit the whole job sequence, each waiting for its
    job to be terminal before taking the next.
    """

    CLIENTS = 2
    CACHED_FRAC = 0.15      # pre-warmed specs: the Runner.load_cached path
    DUPLICATE_FRAC = 0.20   # specs already in the store: the dedup path
    VERIFY_SAMPLE = 3       # results re-executed locally per burst

    def __init__(self, jobs, min_iterations, seed, workdir):
        self.min_iterations = min_iterations
        self.seed = seed
        self.workdir = workdir
        self.payloads, self.prewarm = self._plan(jobs, seed)

    def _plan(self, jobs, seed):
        """The job sequence and the specs to pre-warm: a function of seed.

        Fresh jobs stay well above half of the sequence so the median
        latency sits inside one job class.
        """
        rng = random.Random(seed)
        payloads, fresh, prewarm = [], [], []

        def new_spec():
            index = len(fresh) + len(prewarm)
            return {"experiment": "probe", "protocol": "mnp",
                    "scale": "smoke", "seed": seed * 1_000_000 + index,
                    "overrides": {}}

        for _ in range(jobs):
            draw = rng.random()
            if draw < self.CACHED_FRAC:
                spec = new_spec()
                prewarm.append(spec)
            elif draw < self.CACHED_FRAC + self.DUPLICATE_FRAC and fresh:
                spec = rng.choice(fresh)
            else:
                spec = new_spec()
                fresh.append(spec)
            payloads.append(spec)
        return payloads, prewarm

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        loop = asyncio.new_event_loop()
        state = {"cache_dir": cache_dir, "loop": loop}
        try:
            Runner(cache_dir=cache_dir).run(
                [RunSpec.from_dict(p) for p in self.prewarm])
            service = Service(cache_dir=cache_dir)
            host, port = loop.run_until_complete(service.start(port=0))
        except BaseException:
            self.close(state)
            raise
        state.update(service=service, host=host, port=port)
        return state, {}

    def run(self, state, clock=None, slices=None):
        return state["loop"].run_until_complete(
            self._burst(state, clock, slices))

    async def _burst(self, state, clock, slices):
        host, port = state["host"], state["port"]
        order = iter(range(len(self.payloads)))
        jobs = [None] * len(self.payloads)   # (key, deduped, ms, status)
        rejected = finished = 0

        async def client():
            nonlocal rejected, finished
            conn = ServiceClient(host, port)
            try:
                for i in order:
                    start = time.perf_counter()
                    try:
                        sub = await conn.submit(self.payloads[i])
                        record = await conn.wait(sub["job"], timeout_s=120)
                    except ServiceError as exc:
                        rejected += exc.status == 503
                        jobs[i] = (None, False, None, f"http {exc.status}")
                    else:
                        jobs[i] = (sub["job"], sub["deduped"],
                                   (time.perf_counter() - start) * 1000.0,
                                   record["status"])
                    finished += 1
                    if slices is not None and finished % SLICE_JOBS == 0:
                        slices.mark()
            finally:
                await conn.close()

        lags = []
        probe = None
        if clock is not None:
            probe = asyncio.ensure_future(_loop_lag_probe(lags))
        try:
            await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
        finally:
            if probe is not None:
                probe.cancel()
                await asyncio.gather(probe, return_exceptions=True)
        return {"jobs": jobs, "rejected": rejected, "lags_ms": lags}

    def check(self, state, handle):
        loop, service = state["loop"], state["service"]
        results = loop.run_until_complete(
            self._fetch(state, {j[0] for j in handle["jobs"] if j[0]}))
        failures, bad_keys = [], set()
        for key, result in results.items():
            metrics = result["metrics"]
            if metrics.get("coverage") != 1.0 or metrics.get("deadline_hit"):
                bad_keys.add(key)
        if bad_keys:
            failures.append(f"{len(bad_keys)} result(s) without full "
                            f"coverage before the deadline")
        # A served result must be the one the current code computes:
        # re-execute a seeded sample locally, a pre-warmed one included.
        rng = random.Random(self.seed)
        keys = sorted(results)
        cached = sorted(RunSpec.from_dict(p).cache_key()
                        for p in self.prewarm)
        sample = set(rng.sample(keys, min(self.VERIFY_SAMPLE, len(keys))))
        sample.update(k for k in cached[:1] if k in results)
        for key in sorted(sample):
            result = results[key]
            again = execute_spec(RunSpec.from_dict(result["spec"]))
            if _canonical(again) != _canonical(result["metrics"]):
                bad_keys.add(key)
                failures.append(f"served result {key} differs from a local "
                                f"re-execution")
        failed_jobs = sum(1 for key, _d, _ms, status in handle["jobs"]
                          if status != "done" or key in bad_keys)
        if failed_jobs:
            failures.append(f"{failed_jobs} job(s) not done or wrong")
        distinct = [results[k]["metrics"] for k in keys]
        store = service.store
        outcome = {
            "results_sha256": _results_digest(results),
            "distinct_results": len(keys),
            "submissions": store.submissions,
            "dedup_hits": store.dedup_hits,
            "cache_hits": store.cache_hits,
            "executions": store.executions,
            "sim_completion_s":
                fmean([m["completion_ms"] for m in distinct]) / SECOND,
            "messages_sent": fmean([m["messages_sent"] for m in distinct]),
            "avg_active_radio_s":
                fmean([m["avg_active_radio_s"] for m in distinct]),
        }
        latencies = [ms if status == "done" else None
                     for _k, _d, ms, status in handle["jobs"]]
        detail = {
            "loopback": ipaddress.ip_address(state["host"]).is_loopback,
            "rejected": handle["rejected"],
            "lags_ms": handle["lags_ms"],
            "jobs": handle["jobs"],
        }
        return Check(outcome, jobs=len(handle["jobs"]),
                     failed_jobs=failed_jobs, failures=failures,
                     latencies_ms=latencies, detail=detail)

    async def _fetch(self, state, keys):
        conn = ServiceClient(state["host"], state["port"])
        try:
            return {key: await conn.result(key) for key in sorted(keys)}
        finally:
            await conn.close()

    def close(self, state):
        loop = state["loop"]
        try:
            if "service" in state:
                loop.run_until_complete(state["service"].stop(drain=True))
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()
            shutil.rmtree(state["cache_dir"], ignore_errors=True)


async def _loop_lag_probe(lags, period_s=0.002):
    """Record how late the event loop wakes a task that sleeps ``period_s``."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + period_s
        await asyncio.sleep(period_s)
        lags.append((loop.time() - due) * 1000.0)


def _canonical(metrics):
    return json.dumps(json.loads(json.dumps(metrics)), sort_keys=True)


def _results_digest(results):
    """SHA-256 over every distinct job's result payload, in key order."""
    hasher = hashlib.sha256()
    for key in sorted(results):
        hasher.update(key.encode() + b"\x00")
        hasher.update(json.dumps(results[key], sort_keys=True,
                                 separators=(",", ":")).encode() + b"\x01")
    return hasher.hexdigest()


WORKLOADS = ("mnp-grid20", "radio-saturation", "coded-grid", "service-burst")


def make(name, seed, size="full", workdir=None):
    """The workload ``name`` for ``seed``; ``size`` is ``full`` (the
    benchmark) or ``tiny`` (a smoke size for the tests)."""
    tiny = size == "tiny"
    if name == "mnp-grid20":
        n = 4 if tiny else 20
        return Dissemination("mnp", n, n, 1 if tiny else 2,
                             8 if tiny else 32, 13.0, seed)
    if name == "coded-grid":
        n = 3 if tiny else 12
        return Dissemination("coded_mnp", n, n, 1, 8 if tiny else 32,
                             13.0, seed)
    if name == "radio-saturation":
        n = 4 if tiny else 20
        return RadioSaturation(n, n, 21.0, 4 if tiny else 96, seed)
    if name == "service-burst":
        if workdir is None:
            raise ValueError("service-burst needs a work directory")
        # A burst of 1000 jobs is the smallest with a p99 (ten samples
        # beyond it); two or more per run give a median of bursts.
        return ServiceBurst(24 if tiny else 1000, 1 if tiny else 2, seed,
                            workdir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
