"""Golden-run regression pin.

The simulator is fully deterministic, so one fixed-seed run can be pinned
exactly: any unintentional change to protocol logic, timer math, channel
resolution order, or RNG stream derivation shows up here immediately.

If you change the protocol *on purpose*, re-record the constants below
(they are printed by running this file's ``record()``) and mention the
behavioural change in your commit.
"""

from repro.core.coded_mnp import CodedMNPNode
from repro.core.segments import CodeImage
from repro.experiments.common import PROTOCOLS, Deployment
from repro.net.loss_models import EmpiricalLossModel
from repro.net.topology import Topology
from repro.radio.propagation import PropagationModel
from repro.sim.kernel import MINUTE

import pytest

# Full grid/chaos simulations: deselected by `make test-fast`.
pytestmark = pytest.mark.slow

GOLDEN_SEED = 42
GOLDEN_COMPLETION_MS = 30681.958991649193
GOLDEN_MESSAGES = 416
GOLDEN_COLLISIONS = 89
GOLDEN_SENDER_ORDER = [0, 1, 4, 5, 7, 3, 8]


def golden_run():
    image = CodeImage.random(1, n_segments=2, segment_packets=16,
                             seed=GOLDEN_SEED)
    dep = Deployment(
        Topology.grid(3, 3, 15), image=image, protocol="mnp",
        seed=GOLDEN_SEED,
        loss_model=EmpiricalLossModel(seed=GOLDEN_SEED),
        propagation=PropagationModel.outdoor(25.0),
    )
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep, res


# Coded family: the coefficient stream and the decoder's arithmetic both
# feed the outcome, so any change to the coding layer that alters a
# single coded byte or innovation verdict moves these numbers.  The
# "coded_mnp_gf2" key is registered only for the duration of its run
# (the stock registry has no GF(2) protocol).
# key -> (completion ms, messages, collisions, events executed)
CODED_GOLDENS = {
    "coded_mnp": (26326.907803402002, 378, 117, 1264),
    "coded_mnp_gf2": (24853.685757572053, 362, 66, 1208),
    "coded_deluge": (22748.300252892015, 236, 80, 794),
}


def _coded_mnp_gf2(mote, config, image):
    return CodedMNPNode(mote, config=config, image=image, field="gf2")


def coded_golden_run(protocol):
    image = CodeImage.random(1, n_segments=2, segment_packets=16,
                             seed=GOLDEN_SEED)
    registered = protocol == "coded_mnp_gf2"
    if registered:
        PROTOCOLS[protocol] = _coded_mnp_gf2
    try:
        dep = Deployment(
            Topology.grid(3, 3, 15), image=image, protocol=protocol,
            seed=GOLDEN_SEED,
            loss_model=EmpiricalLossModel(seed=GOLDEN_SEED),
            propagation=PropagationModel.outdoor(25.0),
        )
    finally:
        if registered:
            del PROTOCOLS[protocol]
    res = dep.run_to_completion(deadline_ms=60 * MINUTE)
    return dep, image, res


def _coded_outcome(dep, res):
    return (res.completion_time_ms, sum(res.messages_sent().values()),
            res.collector.collisions, dep.sim.events_executed)


def record():  # pragma: no cover - developer tool
    dep, res = golden_run()
    print("GOLDEN_COMPLETION_MS =", repr(res.completion_time_ms))
    print("GOLDEN_MESSAGES =", sum(res.messages_sent().values()))
    print("GOLDEN_COLLISIONS =", res.collector.collisions)
    print("GOLDEN_SENDER_ORDER =", res.sender_order())
    print("CODED_GOLDENS = {")
    for protocol in ("coded_mnp", "coded_mnp_gf2", "coded_deluge"):
        dep, _, res = coded_golden_run(protocol)
        print(f"    {protocol!r}: {_coded_outcome(dep, res)!r},")
    print("}")


def test_golden_run_matches_recorded_values():
    dep, res = golden_run()
    assert res.all_complete
    assert res.completion_time_ms == GOLDEN_COMPLETION_MS
    assert sum(res.messages_sent().values()) == GOLDEN_MESSAGES
    assert res.collector.collisions == GOLDEN_COLLISIONS
    assert res.sender_order() == GOLDEN_SENDER_ORDER


@pytest.mark.parametrize("protocol", sorted(CODED_GOLDENS))
def test_coded_golden_run_matches_recorded_values(protocol):
    dep, image, res = coded_golden_run(protocol)
    assert res.all_complete
    assert _coded_outcome(dep, res) == CODED_GOLDENS[protocol]
    blob = image.to_bytes()
    for node in dep.nodes.values():
        assert node.assemble_image() == blob


if __name__ == "__main__":  # pragma: no cover
    record()
