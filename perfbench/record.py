"""Re-record ``perfbench/reference.json`` for the default seed.

    python3 perfbench/record.py [--seconds 30]

For each workload, one traced run (``run.measure``) gives the virtual
outcomes the benchmark then requires of every later run on this seed, and
the layer-share table: each layer's self time, and the unattributed
remainder, as a share of the traced wall time.  The file also carries
:data:`METRIC_MAP`, which end-to-end metric each per-layer metric is
expected to move, and on which workloads.  Re-record only for a change
that is meant to alter the virtual outcomes, and say so in that change.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, workloads  # noqa: E402

SEED = 0

#: per-layer metric prefix -> (end-to-end metrics it should move, workloads)
METRIC_MAP = [
    {"per_layer": "sim.*", "moves": ["run_wall_s"],
     "workloads": ["radio-saturation", "mnp-grid20"],
     "note": "most on radio-saturation; little on coded-grid"},
    {"per_layer": "radio.self_s", "moves": ["run_wall_s"],
     "workloads": ["radio-saturation"],
     "note": "little effect on coded-grid"},
    {"per_layer": "radio.<counts and ratios>",
     "moves": ["sim_completion_s", "messages_sent"],
     "workloads": ["mnp-grid20", "radio-saturation", "coded-grid"],
     "note": "any change is a behaviour change"},
    {"per_layer": "core.self_s", "moves": ["run_wall_s"],
     "workloads": ["mnp-grid20"], "note": "zero on radio-saturation"},
    {"per_layer": "core.<ratios>",
     "moves": ["messages_sent", "avg_active_radio_s"],
     "workloads": ["mnp-grid20", "coded-grid"], "note": ""},
    {"per_layer": "coding.*", "moves": ["run_wall_s"],
     "workloads": ["coded-grid"], "note": "zero on the other three"},
    {"per_layer": "hw.*", "moves": ["run_wall_s", "avg_active_radio_s"],
     "workloads": ["mnp-grid20"], "note": ""},
    {"per_layer": "trace.*", "moves": ["run_wall_s"],
     "workloads": ["mnp-grid20"], "note": "about zero on radio-saturation"},
    {"per_layer": "experiments.polls, experiments.poll_s",
     "moves": ["run_wall_s"], "workloads": ["mnp-grid20"], "note": ""},
    {"per_layer": "setup.*", "moves": ["setup_s", "peak_rss_mb"],
     "workloads": ["mnp-grid20", "radio-saturation", "coded-grid"],
     "note": ""},
    {"per_layer": "runner.*", "moves": ["job_p50_ms", "jobs_per_s"],
     "workloads": ["service-burst"], "note": "zero elsewhere"},
    {"per_layer": "service.*", "moves": ["job_p99_ms", "jobs_per_s"],
     "workloads": ["service-burst"], "note": "zero elsewhere"},
]


def layer_shares(values):
    wall = values["bench.traced_wall_s"][0]
    shares = {layer: round(values[name][0] / wall, 4)
              for layer, name in run.SELF_METRIC.items()}
    shares["unattributed"] = round(values["bench.unattributed_s"][0] / wall,
                                   4)
    return {
        "traced_wall_s": round(wall, 3),
        "untraced_wall_s": round(values["bench.untraced_wall_s"][0], 3),
        "self_time_share": shares,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    reason = run.refusal()
    if reason:
        print(f"record: {reason}", file=sys.stderr)
        return 2
    outcomes, shares = {}, {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, SEED, workdir=str(run.WORKDIR))
        try:
            untraced, traced = run.measure(workload, args.seconds,
                                           traced=True)
        finally:
            run.remove_workdir()
        _attempted, failed, reasons = run.verdicts(untraced + traced, None)
        values, layer_reasons = run.per_layer(untraced, traced)
        reasons += layer_reasons
        if failed or reasons:
            print(f"{name}: not recorded, a run failed: {reasons}",
                  file=sys.stderr)
            return 1
        outcomes[name] = untraced[0].check.outcome
        shares[name] = layer_shares(values)
        print(f"{name}: {json.dumps(shares[name]['self_time_share'])}")
    recorded = {"seed": SEED, "outcomes": outcomes, "layer_shares": shares,
                "metric_map": METRIC_MAP}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
