"""Tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


def test_run_small_grid():
    code, text = run_cli([
        "run", "--grid", "3x3", "--spacing", "12", "--segments", "1",
        "--segment-packets", "8", "--seed", "1",
    ])
    assert code == 0
    assert "coverage:          100%" in text
    assert "images intact:     True" in text


def test_run_xnp_multihop_fails_coverage():
    code, text = run_cli([
        "run", "--grid", "1x5", "--spacing", "20", "--segments", "1",
        "--segment-packets", "8", "--protocol", "xnp",
        "--deadline-min", "5",
    ])
    assert code == 1
    assert "100%" not in text.split("coverage:")[1].splitlines()[0]


def test_figure_list():
    code, text = run_cli(["figure", "list"])
    assert code == 0
    for name in ("table1", "fig5", "fig8", "fig10", "fig13", "sec5"):
        assert name in text


def test_figure_unknown(capsys):
    code, text = run_cli(["figure", "fig99"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "repro figure: error: unknown figure 'fig99'; try 'figure list'\n")


def test_figure_table1():
    code, text = run_cli(["figure", "table1"])
    assert code == 0
    assert "83.333" in text
    assert "idle share" in text


def test_figure_fig13_smoke():
    code, text = run_cli(["figure", "fig13"])
    assert code == 0
    assert "30%" in text and "90%" in text


def test_compare():
    code, text = run_cli([
        "compare", "mnp", "deluge", "--grid", "4x4", "--segments", "1",
    ])
    assert code == 0
    assert "mnp" in text and "deluge" in text
    assert "completion(s)" in text


def test_bad_grid_argument():
    with pytest.raises(SystemExit):
        run_cli(["run", "--grid", "banana"])


def test_python_dash_m_entrypoint():
    import subprocess
    import sys

    env = dict(os.environ, REPRO_SCALE="smoke")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "figure", "list"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "fig8" in proc.stdout


def test_run_json_output():
    import json

    code, text = run_cli([
        "run", "--grid", "3x3", "--spacing", "12", "--segments", "1",
        "--segment-packets", "8", "--seed", "1", "--json",
    ])
    assert code == 0
    summary = json.loads(text)
    assert summary["coverage"] == 1.0
    assert summary["protocol"] == "mnp"
    assert summary["image_bytes"] > 0


@pytest.mark.parametrize("figure,needle", [
    ("fig8", "active radio time"),
    ("fig9", "without initial idle listening"),
    ("fig10", "program size"),
    ("fig11", "messages transmitted"),
    ("fig12", "one-minute window"),
    ("sec5", "protocol comparison"),
    ("ablations", "design-choice ablations"),
    ("fig7", "sender order"),
])
@pytest.mark.slow
def test_every_figure_command_renders(figure, needle):
    code, text = run_cli(["figure", figure])
    assert code == 0
    assert needle.lower() in text.lower()


def test_conformance_clean_budget():
    code, text = run_cli([
        "conformance", "--budget", "2", "--seed", "123", "--no-cache",
        "--quiet",
    ])
    assert code == 0
    assert "conformance: 2/2 scenario(s) clean" in text
    assert "all oracles satisfied" in text


def test_conformance_json_verdict(tmp_path):
    import json

    out_path = tmp_path / "verdict.json"
    code, text = run_cli([
        "conformance", "--budget", "2", "--seed", "123", "--no-cache",
        "--quiet", "--json", "--output", str(out_path),
    ])
    assert code == 0
    verdict = json.loads(text)
    assert verdict["ok"] and verdict["budget"] == 2
    assert out_path.read_text() == text


def test_conformance_exit_1_and_shrunk_spec_on_violation(monkeypatch,
                                                         tmp_path):
    # The surviving-violation exit path, without needing a real bug in
    # the tree: substitute a verdict with one shrunk failure.
    import repro.cli as cli

    failing = {
        "version": 1, "budget": 1, "seed": 0, "fault_fraction": 0.3,
        "total_runs": 2, "ok": False,
        "scenarios": [{"index": 0, "key": "deadbeef0000",
                       "label": "grid 1x2", "runs": 2, "ok": False,
                       "violations": [{"oracle": "delivery",
                                       "detail": "stuck"}]}],
        "failures": [{
            "index": 0, "key": "deadbeef0000",
            "violations": [{"oracle": "delivery", "detail": "stuck"}],
            "spec": {"seed": 0},
            "shrunk": {"spec": {"seed": 0}, "oracles": ["delivery"],
                       "shrink_evals": 3, "shrink_steps": []},
            "artifacts": [str(tmp_path / "deadbeef0000.json")],
        }],
    }
    monkeypatch.setattr("repro.conformance.harness.run_conformance",
                        lambda **kw: failing)
    code, text = run_cli(["conformance", "--budget", "1", "--quiet",
                          "--no-cache"])
    assert code == 1
    assert "FAIL scenario 0" in text
    assert "delivery: stuck" in text
    assert "shrunk after 3 evaluation(s)" in text


def test_chaos_text_table():
    code, text = run_cli([
        "chaos", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--fault-classes", "crash",
        "--protocols", "mnp", "--no-cache", "--quiet",
    ])
    assert code == 0
    assert "Chaos: 3x3 grid" in text
    assert "crash" in text and "mnp" in text
    assert "watchdog" in text


def test_chaos_json_matrix():
    import json

    code, text = run_cli([
        "chaos", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--fault-classes", "crash,eeprom",
        "--protocols", "mnp", "--seed", "2", "--no-cache", "--quiet",
        "--json",
    ])
    assert code == 0
    payload = json.loads(text)
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        metrics = run["metrics"]
        assert {"survivor_coverage", "fails", "watchdog_ok",
                "faults"} <= set(metrics)
        assert not metrics["watchdog"]["violations"]


def test_chaos_rejects_unknown_fault_class():
    code, _ = run_cli([
        "chaos", "--fault-classes", "gamma-rays", "--no-cache", "--quiet",
    ])
    assert code == 2


def test_adversary_text_table():
    code, text = run_cli([
        "adversary", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--attacks", "tamper",
        "--protocols", "mnp", "--no-cache", "--quiet",
        "--deadline-min", "120",
    ])
    assert code == 0
    assert "Adversary (secured): 3x3 grid" in text
    assert "tamper" in text and "mnp" in text
    assert "quarant" in text and "tampered" in text


def test_adversary_json_matrix():
    import json

    code, text = run_cli([
        "adversary", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--attacks", "forge",
        "--protocols", "mnp", "--no-cache", "--quiet", "--json",
        "--deadline-min", "120",
    ])
    assert code == 0
    payload = json.loads(text)
    assert payload["secured"] is True
    (run,) = payload["runs"]
    metrics = run["metrics"]
    assert metrics["tampered_installs"] == 0
    assert metrics["auth_rejects"] > 0
    assert metrics["installs"]["installed"] == 9
    assert not metrics["watchdog"]["violations"]


def test_adversary_rejects_unknown_attack_class():
    code, _ = run_cli([
        "adversary", "--attacks", "quantum", "--no-cache", "--quiet",
    ])
    assert code == 2


# ----------------------------------------------------------------------
# The matrix driver behind sweep / chaos / adversary: outputs pinned to
# the text and JSON the per-command handlers produced before they were
# folded into one path.
# ----------------------------------------------------------------------
TINY_SWEEP = ["--scale", "smoke", "--grid", "3x3", "--segments", "1",
              "--segment-packets", "8", "--quiet"]


def _untimed(text):
    """Drop the wall-clock part of the cache line."""
    import re

    return re.sub(r" \(\d+\.\ds total\)", "", text)


def test_sweep_grid_text_and_json(tmp_path):
    import json

    cache = ["--cache-dir", str(tmp_path)]
    code, text = run_cli(["sweep", "--seeds", "0-1", *TINY_SWEEP, *cache])
    assert code == 0
    assert _untimed(text) == (
        "Sweep: mnp at scale=smoke, 2 seed(s), 0 worker(s)\n"
        "seed  coverage  completion_s  art_s  collisions  messages_sent"
        "  mean_energy_nah\n"
        "----  --------  ------------  -----  ----------  -------------"
        "  ---------------\n"
        "0     1.0       8.9           7.5    46          127          "
        "  9890.6         \n"
        "1     1.0       4.9           4.3    0           60           "
        "  6191.2         \n"
        "  completion_s: mean 6.9 +/- 2.8 [4.9, 8.9]\n"
        "  art_s: mean 5.9 +/- 2.3 [4.3, 7.5]\n"
        "  collisions: mean 23.0 +/- 32.5 [0.0, 46.0]\n"
        "  cache: 0 hit(s), 2 miss(es)\n"
    )
    code, text = run_cli(["sweep", "--seeds", "0-2", "--json",
                          *TINY_SWEEP, *cache])
    assert code == 0
    payload = json.loads(text)
    assert list(payload) == ["protocol", "scale", "cache", "elapsed_s",
                             "runs"]
    assert payload["protocol"] == "mnp" and payload["scale"] == "smoke"
    assert payload["cache"] == {"hits": 2, "misses": 1}
    assert [list(run) for run in payload["runs"]] == \
        [["seed", "key", "metrics"]] * 3
    assert [run["seed"] for run in payload["runs"]] == [0, 1, 2]
    assert payload["runs"][0]["key"] == "0905561f3af5a62c62b4"
    assert payload["runs"][0]["metrics"]["messages_sent"] == 127
    assert payload["runs"][1]["metrics"]["collisions"] == 0


def test_sweep_require_cached_exit_3_cold_exit_0_warm(tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    argv = ["sweep", "--seeds", "0-1", "--require-cached", *TINY_SWEEP,
            *cache]
    code, text = run_cli(argv)
    assert code == 3
    assert text == ("2/2 spec(s) not cached (first: grid/mnp scale=smoke "
                    "seed=0 cols=3 n_segments=1 rows=3 segment_packets=8)\n")
    assert not tmp_path.joinpath("0905561f3af5a62c62b4.json").exists()
    assert run_cli(["sweep", "--seeds", "0-1", *TINY_SWEEP, *cache])[0] == 0
    code, text = run_cli(argv)
    assert code == 0
    assert _untimed(text).endswith("  cache: 2 hit(s), 0 miss(es)\n")


def test_sweep_coding_pivot_tables_and_json_axes():
    import json

    argv = ["sweep", "--experiment", "coding", "--seeds", "0",
            "--loss", "0,30", "--no-cache", *TINY_SWEEP]
    code, text = run_cli(argv)
    assert code == 0
    assert _untimed(text) == (
        "Coding sweep (mean messages sent): 1 seed(s) per cell\n"
        "loss  mnp  coded_mnp  deluge  coded_deluge\n"
        "----  ---  ---------  ------  ------------\n"
        "0%    68   78         22      26          \n"
        "30%   213  77         50      50          \n"
        "Coding sweep (mean energy (nAh/node)): 1 seed(s) per cell\n"
        "loss  mnp    coded_mnp  deluge  coded_deluge\n"
        "----  -----  ---------  ------  ------------\n"
        "0%    5948   6769       5950    5813        \n"
        "30%   18732  7196       10686   7932        \n"
        "  cache: 0 hit(s), 8 miss(es)\n"
    )
    code, text = run_cli(argv + ["--json"])
    assert code == 0
    payload = json.loads(text)
    assert list(payload) == ["experiment", "protocols", "loss_pcts",
                             "seeds", "cache", "elapsed_s", "runs"]
    assert payload["protocols"] == ["mnp", "coded_mnp", "deluge",
                                    "coded_deluge"]
    assert payload["loss_pcts"] == [0, 30] and payload["seeds"] == [0]
    assert [(r["protocol"], r["loss_pct"], r["seed"])
            for r in payload["runs"]] == [
        (p, loss, 0) for p in payload["protocols"] for loss in (0, 30)]
    assert [list(r)[3:] for r in payload["runs"]] == \
        [["key", "metrics"]] * 8


def test_adversary_insecure_title():
    code, text = run_cli([
        "adversary", "--grid", "3x3", "--segments", "1",
        "--segment-packets", "16", "--attacks", "tamper",
        "--protocols", "mnp", "--no-cache", "--quiet",
        "--deadline-min", "120", "--insecure",
    ])
    assert code == 0
    assert text.startswith(
        "Adversary (insecure): 3x3 grid, intensity 0.5, seed 0\n")
    assert "mnp       tamper  100%      3          6" in text


def _watchdog(violations=0, stalls=0, warnings=0):
    return {"violations": ["v"] * violations, "stalls": ["s"] * stalls,
            "warnings": ["w"] * warnings}


def test_chaos_exit_1_on_watchdog_violation(monkeypatch):
    import json

    def stub(spec):
        crash = spec.overrides["fault_class"] == "crash"
        return {"survivor_coverage": 1.0, "completion_s": None,
                "fails": 0, "corrupt_images": 0, "messages_sent": 5,
                "watchdog": _watchdog(violations=2) if crash
                else _watchdog(stalls=1, warnings=3)}

    monkeypatch.setattr("repro.experiments.chaos.chaos_experiment", stub)
    argv = ["chaos", "--protocols", "mnp", "--fault-classes", "crash,link",
            "--no-cache", "--quiet"]
    code, text = run_cli(argv)
    assert code == 1
    assert "mnp       crash  100%      -             0      0        5"\
        "         VIOLATED(2)" in text
    assert "stalled(1) +3w" in text
    assert text.endswith("  1 run(s) breached protocol invariants\n")
    code, text = run_cli(argv + ["--json"])
    assert code == 1
    assert [r["fault_class"] for r in json.loads(text)["runs"]] == \
        ["crash", "link"]


def test_adversary_exit_1_on_watchdog_violation(monkeypatch):
    def stub(spec):
        return {"survivor_coverage": 1.0,
                "installs": {"installed": 9, "rejected": 0},
                "auth_rejects": 0, "quarantines": 0, "tampered_installs": 1,
                "watchdog": _watchdog(violations=1, warnings=4)}

    monkeypatch.setattr(
        "repro.experiments.adversary.adversary_experiment", stub)
    argv = ["adversary", "--protocols", "mnp", "--attacks", "tamper,swap",
            "--no-cache", "--quiet"]
    code, text = run_cli(argv)
    assert code == 1
    assert text.count("VIOLATED(1)\n") == 2       # no warning suffix here
    assert text.endswith(
        "  2 run(s) breached install/protocol invariants\n")
    assert run_cli(argv + ["--json"])[0] == 1


# ----------------------------------------------------------------------
# Bad input exits 2 before anything runs or is cached
# ----------------------------------------------------------------------
def _exit_code(argv):
    try:
        return main(argv, out=io.StringIO())
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,message", [
    (["chaos", "--protocols", "bogus"],
     "repro chaos: error: unknown protocol(s) bogus; known: coded_deluge, "
     "coded_mnp, deluge, flood, mnp, moap, xnp\n"),
    (["chaos", "--protocols", "mnp,bogus"],
     "repro chaos: error: unknown protocol(s) bogus; known: "),
    (["adversary", "--protocols", "mnp,bogus"],
     "repro adversary: error: unknown protocol(s) bogus; known: "),
    (["sweep", "--protocol", "bogus"],
     "repro sweep: error: unknown protocol(s) bogus; known: "),
    (["sweep", "--experiment", "coding", "--protocols", "mnp,bogus"],
     "repro sweep: error: unknown protocol(s) bogus; known: "),
    (["chaos", "--fault-classes", "crash,gamma-rays"],
     "repro chaos: error: unknown fault class(es) gamma-rays; "
     "known: crash, eeprom, link\n"),
    (["chaos", "--intensity", "2"],
     "argument --intensity: must be a number in [0, 1], got '2'"),
    (["adversary", "--intensity", "-1"],
     "argument --intensity: must be a number in [0, 1], got '-1'"),
    (["conformance", "--fault-fraction", "7"],
     "argument --fault-fraction: must be a number in [0, 1], got '7'"),
    (["conformance", "--security-fraction", "nan"],
     "argument --security-fraction: must be a number in [0, 1]"),
    (["loadgen", "--duplicate-fraction", "7"],
     "argument --duplicate-fraction: must be a number in [0, 1], got '7'"),
    (["conformance", "--budget", "-5"],
     "argument --budget: must be a positive integer, got '-5'"),
    (["conformance", "--budget", "0"],
     "argument --budget: must be a positive integer, got '0'"),
    (["sweep", "--segments", "0"],
     "argument --segments: must be a positive integer, got '0'"),
    (["sweep", "--segment-packets", "0"],
     "argument --segment-packets: must be a positive integer, got '0'"),
    (["chaos", "--segments", "0"],
     "argument --segments: must be a positive integer, got '0'"),
    (["adversary", "--segment-packets", "-1"],
     "argument --segment-packets: must be a positive integer, got '-1'"),
    (["chaos", "--segment-packets", "x"],
     "argument --segment-packets: must be a positive integer, got 'x'"),
])
def test_bad_input_exits_2_and_caches_nothing(argv, message, tmp_path,
                                              capsys):
    cache = tmp_path / "cache"
    assert _exit_code(argv + ["--cache-dir", str(cache), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--grid", "2x2", "--segments", "0"],
    ["run", "--grid", "2x2", "--segment-packets", "0"],
    ["compare", "mnp", "deluge", "--grid", "2x2", "--segments", "0"],
    ["profile", "--grid", "2x2", "--segment-packets", "0"],
])
def test_non_positive_size_exits_2(argv, capsys):
    assert _exit_code(argv) == 2
    assert "must be a positive integer, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--grid", "2x2", "--protocol", "bogus"],
    ["compare", "mnp", "bogus", "--grid", "2x2"],
])
def test_unknown_protocol_exits_2_on_run_and_compare(argv, capsys):
    assert _exit_code(argv) == 2
    assert f"repro {argv[0]}: error: unknown protocol(s) bogus; known: " \
        in capsys.readouterr().err
