"""Tests of the benchmark's own arithmetic and output contract.

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, run, slices, stats  # noqa: E402


class FakeClock:
    """A clock that advances only when told to, one reading per thread."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "t", 0.0)

    def advance(self, seconds):
        self._local.t = self() + seconds


def nested_calls(clock, fake):
    """radio (1) -> core (3) -> radio (5) -> core (4) -> radio (2)."""
    def radio_inner():
        fake.advance(5)

    def core():
        fake.advance(3)
        clock.wrap("radio", radio_inner)()
        fake.advance(4)

    def radio_outer():
        fake.advance(1)
        clock.wrap("core", core)()
        fake.advance(2)

    clock.wrap("radio", radio_outer)()


def test_self_time_excludes_children_across_reentry():
    fake = FakeClock()
    clock = layers.SpanClock(clock=fake)
    nested_calls(clock, fake)
    snap = clock.snapshot()
    assert snap.self_s["radio"] == 1 + 2 + 5
    assert snap.self_s["core"] == 3 + 4
    assert sum(snap.self_s.values()) == fake()   # nothing counted twice
    assert clock.state().stack == []


def test_exception_closes_the_span():
    fake = FakeClock()
    clock = layers.SpanClock(clock=fake)

    def failing():
        fake.advance(2)
        raise KeyError("boom")

    def outer():
        fake.advance(1)
        with pytest.raises(KeyError):
            clock.wrap("hardware", failing)()

    clock.wrap("core", outer)()
    snap = clock.snapshot()
    assert snap.self_s == {"core": 1, "hardware": 2}
    assert clock.state().stack == []


def test_spans_in_worker_threads_keep_their_own_stacks():
    fake = FakeClock()
    clock = layers.SpanClock(clock=fake)
    barrier = threading.Barrier(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker():
            barrier.wait(timeout=10)
            for _ in range(200):
                nested_calls(clock, fake)
            return clock.state().stack

        with ThreadPoolExecutor(max_workers=4) as pool:
            stacks = [f.result(timeout=60)
                      for f in [pool.submit(worker) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert stacks == [[], [], [], []]
    snap = clock.snapshot()
    assert snap.self_s["radio"] == 4 * 200 * 8
    assert snap.self_s["core"] == 4 * 200 * 7


def test_installed_wrappers_attribute_a_run_in_a_worker_thread():
    from repro.radio.mac import CsmaMac
    from repro.runner import RunSpec
    from repro.sim.kernel import Simulator

    run_until = Simulator.__dict__["run_until"]
    tracing = layers.install()
    try:
        clock = tracing.clock
        spec = RunSpec(experiment="probe", protocol="mnp", scale="smoke",
                       seed=3)
        import repro.runner as runner_mod
        with ThreadPoolExecutor(max_workers=1) as pool:
            metrics = pool.submit(runner_mod.execute_spec, spec).result(60)
        snap = clock.snapshot()
    finally:
        tracing.uninstall()
    assert metrics["coverage"] == 1.0
    for layer in ("sim", "radio", "core", "trace", "experiments", "runner"):
        assert snap.self_s[layer] > 0, layer
    assert snap.self_s["coding"] == 0
    assert snap.counts["sim.events"] > 0
    assert snap.counts["radio.tx"] == metrics["messages_sent"]
    assert list(clock.marks["exec_ms"]) == [spec.cache_key()]
    # Uninstalling restores the original attributes.
    assert Simulator.__dict__["run_until"] is run_until
    assert "on_receive" not in vars(CsmaMac)


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values[:-1], 99) is None   # only 9 beyond
    assert stats.percentile(list(range(1, 21)), 50) == 10
    assert stats.percentile(list(range(1, 20)), 50) is None
    assert stats.percentile([], 50) is None
    assert stats.percentile(list(reversed(values)), 99) == 990  # sorts
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_tail_labels_its_fallback():
    assert stats.tail(list(range(1, 1001)), 99) == (990, "p99 of 1000")
    assert stats.tail([3.0, 1.0, 2.0], 99) == \
        (2.0, "median of 3: too few for p99")


def test_envelope_sums_the_fastest_run_of_each_slice():
    runs = [[1.0, 5.0, 2.0],
            [3.0, 1.0, 2.5],
            [2.0, 2.0, 0.5]]
    assert slices.envelope(runs) == 1.0 + 1.0 + 0.5
    assert slices.envelope([[4.0, 1.0]]) == 5.0
    with pytest.raises(ValueError):
        slices.envelope([[1.0, 2.0], [1.0]])


def test_host_scale_maps_the_fastest_calibration_call_to_the_reference():
    fast, slow = slices.Slices(), slices.Slices()
    fast.calls = [2e-4, 4e-4]
    slow.calls = [3e-4, 4e-4]
    # Envelope 2e-4 + 4e-4 over two calls: 3e-4 per call.
    assert slices.host_scale([fast, slow]) == \
        pytest.approx(slices.REFERENCE_CALL_S / 3e-4)


def test_runs_of_a_seed_are_cut_into_the_same_slices():
    from perfbench import workloads

    for name in ("mnp-grid20", "radio-saturation", "coded-grid"):
        workload = workloads.make(name, 2, "tiny")
        its = [run.run_iteration(workload) for _ in range(2)]
        walls = [it.slices.wall for it in its]
        # The tiny saturation run is shorter than one slice.
        assert len(walls[0]) > (name != "radio-saturation"), name
        assert len(walls[0]) == len(walls[1]) == len(its[0].slices.cpu)
        assert len(its[0].slices.calls) == len(walls[0]) + 1
        assert sum(walls[0]) == its[0].run_wall_s
        slices.envelope(walls)


def test_metric_lists_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        ["mnp-grid20", "radio-saturation", "coded-grid", "service-burst"]


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mnp-grid20", "radio-saturation",
                                      "coded-grid", "service-burst"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(expected)
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in lines), name
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        attributed = sum(metrics[m] for m in run.SELF_METRIC.values())
        assert attributed + metrics["bench.unattributed_s"] == \
            pytest.approx(metrics["bench.traced_wall_s"])
        if workload != "service-burst":
            for name in ("runner.self_s", "service.self_s",
                         "service.submissions"):
                assert metrics[name] == 0, name
        if workload != "coded-grid":
            assert metrics["coding.self_s"] == 0
        if workload == "radio-saturation":
            assert metrics["core.self_s"] == 0
    else:
        assert all(metrics[name] > 0 for name, _unit in run.END_TO_END)


def test_refuses_repro_overrides():
    env = dict(os.environ, REPRO_NO_VECTOR="1")
    out = _bench("--workload", "radio-saturation", "--size", "tiny", env=env)
    assert out.returncode != 0
    assert "REPRO_NO_VECTOR" in out.stderr
    assert '"correct"' not in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _bench("--workload", "mnp-grid20", "--size", "tiny", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
