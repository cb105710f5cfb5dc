"""Benchmark of the MNP reproduction: one seeded workload per invocation.

    python3 perfbench/run.py --workload mnp-grid20 --seed 0 --seconds 30 --trace 0

Runs the workload's iterations (set-up, run, check) until ``--seconds``
would be exceeded, prints every metric by name and unit, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured with no wrapper installed;
``--trace 1`` runs one untraced iteration, installs the per-layer spans
(``perfbench/layers.py``) and reports the per-layer metrics.  See
``perfbench/README.md``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKDIR = ROOT / ".perfbench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("run_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_completion_s", "s"),
    ("messages_sent", "count"),
    ("avg_active_radio_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
)

PER_LAYER = (
    ("sim.events", "count"), ("sim.pushes", "count"),
    ("sim.useful_frac", "ratio"), ("sim.timer_starts", "count"),
    ("sim.timer_fires", "count"), ("sim.heap_peak", "count"),
    ("sim.self_s", "s"),
    ("radio.tx", "count"), ("radio.rx_opened", "count"),
    ("radio.delivered", "count"), ("radio.delivered_frac", "ratio"),
    ("radio.collisions", "count"), ("radio.bit_errors", "count"),
    ("radio.carrier_polls", "count"), ("radio.mac_backoffs", "count"),
    ("radio.link_cache_hit_frac", "ratio"), ("radio.mac_wait_ms_p50", "ms"),
    ("radio.self_s", "s"),
    ("core.frames_in", "count"), ("core.timer_callbacks", "count"),
    ("core.sends", "count"), ("core.state_transitions", "count"),
    ("core.fails", "count"), ("core.useful_rx_frac", "ratio"),
    ("core.self_s", "s"),
    ("coding.encodes", "count"), ("coding.absorbs", "count"),
    ("coding.innovative_frac", "ratio"), ("coding.self_s", "s"),
    ("hw.eeprom_writes", "count"), ("hw.eeprom_reads", "count"),
    ("hw.radio_toggles", "count"), ("hw.self_s", "s"),
    ("trace.emits", "count"), ("trace.self_s", "s"),
    ("experiments.polls", "count"), ("experiments.poll_s", "s"),
    ("experiments.self_s", "s"), ("setup.topology_s", "s"),
    ("setup.channel_s", "s"), ("setup.nodes_s", "s"),
    ("runner.exec_s", "s"), ("runner.load_s", "s"), ("runner.store_s", "s"),
    ("runner.hit_frac", "ratio"), ("runner.self_s", "s"),
    ("service.submissions", "count"), ("service.dedup_hits", "count"),
    ("service.cache_hits", "count"), ("service.executions", "count"),
    ("service.rejected", "count"), ("service.queue_wait_ms_p50", "ms"),
    ("service.exec_ms_p50", "ms"), ("service.overhead_ms_p50", "ms"),
    ("service.loop_lag_ms_p99", "ms"), ("service.self_s", "s"),
    ("bench.untraced_wall_s", "s"), ("bench.traced_wall_s", "s"),
    ("bench.overhead_s", "s"), ("bench.unattributed_s", "s"),
)

#: Layer -> its self-time metric (``hardware`` reports as ``hw``).
SELF_METRIC = {"sim": "sim.self_s", "radio": "radio.self_s",
               "core": "core.self_s", "coding": "coding.self_s",
               "hardware": "hw.self_s", "trace": "trace.self_s",
               "experiments": "experiments.self_s",
               "runner": "runner.self_s", "service": "service.self_s"}


class Iteration:
    def __init__(self, setup_s, run_wall_s, run_cpu_s, check, phases=None,
                 snapshot=None, marks=None, slices=None):
        self.setup_s = setup_s
        self.run_wall_s = run_wall_s
        self.run_cpu_s = run_cpu_s
        self.check = check
        self.slices = slices    # a slices.Slices on untraced runs
        self.phases = phases or {}
        self.snapshot = snapshot
        self.marks = marks


def run_iteration(workload, clock=None):
    """Set up, run and check once; ``clock`` set means traced.

    An untraced run is also cut into slices (``slices.Slices``); its run
    times are then the sums of its slices, calibration calls left out.
    """
    from perfbench.slices import Slices

    if clock is not None:
        clock.reset()
    # The previous run's cyclic garbage (deployments, a stopped service)
    # would otherwise be collected at a random point of this run.
    gc.collect()
    t0 = time.perf_counter()
    state, phases = workload.setup()
    setup_s = time.perf_counter() - t0
    try:
        if clock is not None:
            phases = _setup_phases(phases, clock.snapshot())
            clock.rebase()
        slices = Slices() if clock is None else None
        c0, w0 = time.process_time(), time.perf_counter()
        if slices is not None:
            slices.mark()
        handle = workload.run(state, clock, slices)
        if slices is not None:
            slices.mark()
        run_wall_s = time.perf_counter() - w0
        run_cpu_s = time.process_time() - c0
        if slices is not None:
            run_wall_s, run_cpu_s = sum(slices.wall), sum(slices.cpu)
        snapshot = marks = None
        if clock is not None:
            snapshot = clock.snapshot()
            marks = {k: dict(v) for k, v in clock.marks.items()}
        check = workload.check(state, handle)
    finally:
        workload.close(state)
    return Iteration(setup_s, run_wall_s, run_cpu_s, check, phases,
                     snapshot, marks, slices)


def _setup_phases(phases, snapshot):
    """Fill in the channel phase seen by the traced make_channel span."""
    phases = dict(phases)
    if "deployment_s" in phases:
        channel_s = snapshot.totals.get("setup.channel", 0.0)
        phases["channel_s"] = channel_s
        phases["nodes_s"] = phases.pop("deployment_s") - channel_s
    return phases


def iterate(workload, seconds, minimum, clock=None, spent=0.0):
    """Iterations until another would overrun ``seconds`` (at least
    ``minimum``)."""
    start = time.perf_counter() - spent
    iterations = []
    while True:
        t0 = time.perf_counter()
        iterations.append(run_iteration(workload, clock))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(iterations) >= minimum and elapsed + last > seconds:
            return iterations


def measure(workload, seconds, traced):
    """``(untraced iterations, traced iterations)``.

    A traced run times one untraced iteration (the overhead reference),
    then as many traced ones as fit; their counts must agree, so one is
    enough."""
    if not traced:
        return iterate(workload, seconds, workload.min_iterations), []
    from perfbench import layers

    t0 = time.perf_counter()
    warm = run_iteration(workload)
    tracing = layers.install()
    try:
        spent = time.perf_counter() - t0
        return [warm], iterate(workload, seconds, 1, tracing.clock, spent)
    finally:
        tracing.uninstall()


def verdicts(iterations, reference):
    """``(attempted, failed, reasons)`` over every iteration run."""
    attempted = failed = 0
    reasons = []
    first = iterations[0].check.outcome
    for index, it in enumerate(iterations):
        check = it.check
        whole = []
        if check.outcome != first:
            whole.append("virtual outcomes differ between runs of one seed")
        if reference is not None and check.outcome != reference:
            whole.append("virtual outcomes differ from perfbench/"
                         "reference.json for this seed")
        attempted += check.jobs
        failed += check.jobs if whole else check.failed_jobs
        reasons.extend(f"run {index + 1}: {r}" for r in check.failures + whole)
    return attempted, failed, reasons


def end_to_end(iterations):
    """End-to-end metric values, each with how it was taken.

    Every run of one invocation is the same work cut into the same slices,
    so run times are envelopes over the runs (see ``perfbench/slices.py``);
    set-up time is the median over the runs.  All are scaled to reference
    seconds.
    """
    from statistics import median

    from perfbench.slices import envelope, host_scale

    outcome = iterations[0].check.outcome
    runs = [it.slices for it in iterations]
    scale = host_scale(runs)
    label = (f"envelope of {len(runs)} runs' {len(runs[0].wall)} slices "
             f"x {scale:.3f}")
    wall = envelope([run.wall for run in runs]) * scale
    values = {
        "setup_s": (median([it.setup_s for it in iterations]) * scale,
                    f"median of {len(iterations)} x {scale:.3f}"),
        "run_wall_s": (wall, label),
        "run_cpu_s": (envelope([run.cpu for run in runs]) * scale, label),
        "peak_rss_mb": (_peak_rss_mb(), "process peak"),
        "sim_completion_s": (outcome["sim_completion_s"], "virtual"),
        "messages_sent": (outcome["messages_sent"], "virtual"),
        "avg_active_radio_s": (outcome["avg_active_radio_s"], "virtual"),
        "jobs_per_s": (iterations[0].check.jobs / wall, label),
        "job_p50_ms": _job_percentile(iterations, 50, wall, scale),
        "job_p99_ms": _job_percentile(iterations, 99, wall, scale),
    }
    return values


def raw_times(iterations):
    """Host seconds of a run, unscaled: the envelope and the median."""
    from statistics import median

    from perfbench.slices import envelope

    return (envelope([it.slices.wall for it in iterations]),
            median([it.run_wall_s for it in iterations]))


def _job_percentile(iterations, q, wall, scale):
    """The ``q``-th percentile of job latency, from submit to terminal.

    Job ``i`` is the same job in every burst, so, like a slice of the
    envelope, its latency is its fastest over the bursts, scaled to
    reference seconds; a job done in no burst counts as infinitely late.
    A simulation run is one job, whose latency is the run time ``wall``.
    """
    from perfbench.stats import tail

    if iterations[0].check.latencies_ms is None:
        return wall * 1000.0, "the run's envelope"
    per_job = zip(*(it.check.latencies_ms for it in iterations))
    fastest = [min((ms for ms in job if ms is not None), default=math.inf)
               * scale for job in per_job]
    value, how = tail(fastest, q)
    return value, f"{how}, each job's fastest of {len(iterations)} bursts"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(it):
    """Per-layer metric values of one traced iteration."""
    snap, c = it.snapshot, it.snapshot.counts
    self_s = snap.self_s
    samples = {
        "radio.mac_wait_ms": snap.samples["radio.mac_wait_ms"],
        "service.queue_wait_ms": [], "service.exec_ms": [],
        "service.overhead_ms": [],
        "service.loop_lag_ms": it.check.detail.get("lags_ms", []),
    }
    marks = it.marks
    submitted = marks.get("submitted", {})
    exec_ms = marks.get("exec_ms", {})
    for key, t in marks.get("running", {}).items():
        if key in submitted:
            samples["service.queue_wait_ms"].append(
                (t - submitted[key]) * 1000.0)
    samples["service.exec_ms"].extend(exec_ms.values())
    for key, deduped, ms, status in it.check.detail.get("jobs", ()):
        if status == "done" and not deduped:
            samples["service.overhead_ms"].append(ms - exec_ms.get(key, 0.0))
    outcome = it.check.outcome
    absorbs = c["coding.CodedSegmentTracker.absorb"]
    hits, misses = c["radio.link_cache_hits"], c["radio.link_cache_misses"]
    values = {
        "sim.events": c["sim.events"],
        "sim.pushes": c["sim.pushes"],
        "sim.useful_frac": _ratio(c["sim.events"], c["sim.pushes"]),
        "sim.timer_starts": c["sim.timer_starts"],
        "sim.timer_fires": c["sim.timer_fires"],
        "sim.heap_peak": snap.peaks["sim.heap_peak"],
        "radio.tx": c["radio.tx"],
        "radio.rx_opened": c["radio.rx_opened"],
        "radio.delivered": c["radio.delivered"],
        "radio.delivered_frac": _ratio(c["radio.delivered"],
                                       c["radio.rx_opened"]),
        "radio.collisions": c["radio.collisions"],
        "radio.bit_errors": c["radio.bit_errors"],
        "radio.carrier_polls": c["radio.carrier_polls"],
        "radio.mac_backoffs": c["radio.mac_backoffs"],
        "radio.link_cache_hit_frac": _ratio(hits, hits + misses),
        "core.frames_in": c["core.frames_in"],
        "core.timer_callbacks": c["core.timer_callbacks"],
        "core.sends": c["core.sends"],
        "core.state_transitions": c["emit:mnp.state"],
        "core.fails": c["emit:mnp.fail"],
        "core.useful_rx_frac": _ratio(c["hw.eeprom_writes"],
                                      c["core.data_frames_in"]),
        "coding.encodes": c["coding.GenerationEncoder.next_coded"],
        "coding.absorbs": absorbs,
        "coding.innovative_frac": _ratio(c["coding.innovative"], absorbs),
        "hw.eeprom_writes": c["hw.eeprom_writes"],
        "hw.eeprom_reads": c["hw.eeprom_reads"],
        "hw.radio_toggles": c["hw.radio_toggles"],
        "trace.emits": c["trace.emits"],
        "experiments.polls": c["experiments.polls"],
        "experiments.poll_s": snap.totals["experiments.poll"],
        "setup.topology_s": it.phases.get("topology_s", 0.0),
        "setup.channel_s": it.phases.get("channel_s", 0.0),
        "setup.nodes_s": it.phases.get("nodes_s", 0.0),
        "runner.exec_s": snap.totals["runner.exec"],
        "runner.load_s": snap.totals["runner.load"],
        "runner.store_s": snap.totals["runner.store"],
        "runner.hit_frac": _ratio(c["runner.load_hits"], c["runner.loads"]),
        "service.submissions": outcome.get("submissions", 0),
        "service.dedup_hits": outcome.get("dedup_hits", 0),
        "service.cache_hits": outcome.get("cache_hits", 0),
        "service.executions": outcome.get("executions", 0),
        "service.rejected": it.check.detail.get("rejected", 0),
        "bench.traced_wall_s": it.run_wall_s,
    }
    for layer, name in SELF_METRIC.items():
        values[name] = self_s[layer]
    return values, samples


def per_layer(untraced, traced):
    """Per-layer metrics: counts from every traced run (which must agree),
    times as means over the traced runs, percentiles over pooled samples."""
    from statistics import fmean

    from perfbench.stats import tail

    units = dict(PER_LAYER)
    rows = [layer_values(it) for it in traced]
    reasons = []
    values = {}
    for name, _unit in PER_LAYER:
        column = [row[name] for row, _samples in rows if name in row]
        if not column:
            continue
        if units[name] in ("count", "ratio"):
            if any(v != column[0] for v in column):
                reasons.append(f"{name} differs between traced runs: "
                               f"{column}")
            values[name] = (column[0], "exact")
        else:
            values[name] = (fmean(column), f"mean of {len(column)}")
    for name, q, metric in (
            ("radio.mac_wait_ms", 50, "radio.mac_wait_ms_p50"),
            ("service.queue_wait_ms", 50, "service.queue_wait_ms_p50"),
            ("service.exec_ms", 50, "service.exec_ms_p50"),
            ("service.overhead_ms", 50, "service.overhead_ms_p50"),
            ("service.loop_lag_ms", 99, "service.loop_lag_ms_p99")):
        pooled = [v for _row, samples in rows for v in samples[name]]
        values[metric] = tail(pooled, q) if pooled else (0.0, "no samples")
    untraced_wall = untraced[0].run_wall_s
    traced_wall = values["bench.traced_wall_s"][0]
    attributed = sum(values[name][0] for name in SELF_METRIC.values())
    values["bench.untraced_wall_s"] = (untraced_wall, "1 run")
    values["bench.overhead_s"] = (traced_wall - untraced_wall,
                                  "traced - untraced")
    values["bench.unattributed_s"] = (traced_wall - attributed,
                                      "traced wall - layer self times")
    return values, reasons


def metadata(workload, checks):
    """Run metadata: code identity, host, and the program's choices."""
    try:
        import numpy
    except ImportError:     # the program runs without it (scalar channel)
        numpy = None
    meta = {
        "workload": workload,
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "repro"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
    }
    channels = {c.detail["channel"] for c in checks if "channel" in c.detail}
    if channels:
        meta["channel"] = sorted(channels)
    if any("loopback" in c.detail for c in checks):
        meta["loopback"] = all(c.detail["loopback"] for c in checks)
    meta["outcome"] = checks[0].outcome
    return meta


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(package):
    hasher = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        hasher.update(str(path.relative_to(package)).encode() + b"\x00")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def load_reference(workload, seed, size):
    """Recorded virtual outcomes for this workload and seed, if any."""
    if size != "full" or not REFERENCE.exists():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if seed != recorded["seed"]:
        return None
    return recorded["outcomes"].get(workload)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mnp-grid20", "radio-saturation",
                                 "coded-grid", "service-burst"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size for tests")
    return parser.parse_args(argv)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def refusal():
    """Why this process cannot run the benchmark, or None."""
    # These variables change the program under test (channel choice,
    # scale, service width), so a run under any of them is not this
    # benchmark.
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        return f"refusing to run with {', '.join(overrides)} set"
    if not (SRC / "repro").is_dir():
        return f"no repro package under {SRC}"
    return None


def remove_workdir():
    if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
        WORKDIR.rmdir()


def main(argv=None):
    args = parse_args(argv)
    reason = refusal()
    if reason:
        return _fail(reason)
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    workload = workloads.make(args.workload, args.seed, args.size,
                              workdir=str(WORKDIR))
    try:
        untraced, traced = measure(workload, args.seconds, bool(args.trace))
    finally:
        remove_workdir()
    iterations = untraced + traced
    reference = load_reference(args.workload, args.seed, args.size)
    attempted, failed, reasons = verdicts(iterations, reference)
    if args.trace:
        values, layer_reasons = per_layer(untraced, traced)
        if layer_reasons:
            reasons.extend(layer_reasons)
            failed = max(failed, 1)
        table = PER_LAYER
    else:
        values = end_to_end(iterations)
        table = END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(iterations)} run(s)")
    for name, unit in table:
        value, how = values[name]
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {how}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} attempted")
    if not args.trace:
        envelope_s, median_s = raw_times(iterations)
        print(f"  host seconds of a run, unscaled: envelope "
              f"{envelope_s:.6g} s, median {median_s:.6g} s")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print("meta " + json.dumps(metadata(args.workload,
                                        [it.check for it in iterations]),
                               sort_keys=True))
    result = {
        "correct": failed == 0 and not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
