"""Tests for the CSMA MAC."""

import pytest

from repro.radio.mac import MacConfig
from repro.radio.packet import BROADCAST
from repro.sim.rng import derive_rng
from tests.conftest import make_world


def test_send_delivers_to_neighbor(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = got.append
    a.mac.send("ping", 10)
    world2.sim.run()
    assert [f.payload for f in got] == ["ping"]


def test_send_done_callback(world2):
    a, _ = world2.motes
    a.radio.turn_on()
    done = []
    a.mac.on_send_done = done.append
    a.mac.send("msg", 10)
    world2.sim.run()
    assert done == ["msg"]


def test_queue_serializes_frames(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = lambda f: got.append(f.payload)
    for i in range(5):
        a.mac.send(i, 10)
    world2.sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_send_with_radio_off_raises(world2):
    a, _ = world2.motes
    with pytest.raises(RuntimeError):
        a.mac.send("x", 10)


def test_carrier_sense_defers_and_counts_backoff():
    # Deterministic congestion: a very long frame is on the air when the
    # second sender attempts.
    world = make_world([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
    a, b, c = world.motes
    for m in world.motes:
        m.radio.turn_on()
    got = []
    c.mac.on_receive = lambda f: got.append(f.payload)
    a.mac.send("long", 500)  # ~215 ms on air
    world.sim.run(until=30.0)  # a is now certainly transmitting
    assert world.channel.carrier_busy(1)
    b.mac.send("after", 10)
    world.sim.run()
    assert b.mac.congestion_backoffs >= 1
    assert "after" in got


def test_unicast_filtering(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = got.append
    a.mac.send("notyours", 10, dst=42)
    a.mac.send("yours", 10, dst=b.node_id)
    a.mac.send("everyone", 10, dst=BROADCAST)
    world2.sim.run()
    assert [f.payload for f in got] == ["yours", "everyone"]


def test_cancel_pending_drops_queue(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    got = []
    b.mac.on_receive = got.append
    a.mac.send("one", 10)
    a.mac.send("two", 10)
    a.mac.cancel_pending()
    world2.sim.run()
    assert got == []  # both still in backoff when cancelled


def test_reset_clears_in_flight_state(world2):
    a, b = world2.motes
    a.radio.turn_on()
    b.radio.turn_on()
    a.mac.send("x", 10)
    world2.sim.run(until=30.0)
    a.mote_sleep = a.radio.turn_off()  # aborts frame at channel
    a.mac.reset()
    a.radio.turn_on()
    got = []
    b.mac.on_receive = lambda f: got.append(f.payload)
    a.mac.send("fresh", 10)
    world2.sim.run()
    assert got[-1] == "fresh"


def test_pending_counts_queue_and_in_flight(world2):
    a, _ = world2.motes
    a.radio.turn_on()
    assert a.mac.pending() == 0
    a.mac.send("one", 10)
    a.mac.send("two", 10)
    assert a.mac.pending() == 2
    world2.sim.run()
    assert a.mac.pending() == 0


def test_mac_config_validation():
    with pytest.raises(ValueError):
        MacConfig(initial_backoff_min=-1.0)
    with pytest.raises(ValueError):
        MacConfig(initial_backoff_min=5.0, initial_backoff_max=1.0)
    with pytest.raises(ValueError):
        MacConfig(congestion_backoff_min=10.0, congestion_backoff_max=1.0)


def test_frames_queued_counter(world2):
    a, _ = world2.motes
    a.radio.turn_on()
    a.mac.send("x", 10)
    a.mac.send("y", 10)
    assert a.mac.frames_queued == 2


# ----------------------------------------------------------------------
# Backoff draws and a saturated-medium golden
# ----------------------------------------------------------------------
def _recording_schedules(sim, macs):
    """Wrap ``sim.schedule`` to log each MAC backoff as
    ``(node_id, window, delay)``; the window is told apart by whether the
    MAC's congestion counter moved since its previous draw."""
    log = []
    seen_backoffs = {mac.radio.node_id: 0 for mac in macs}
    by_attempt = {mac._attempt: mac for mac in macs}
    schedule = sim.schedule

    def recording(delay, fn, *args):
        mac = by_attempt.get(fn)
        if mac is not None:
            node = mac.radio.node_id
            window = ("congestion"
                      if mac.congestion_backoffs > seen_backoffs[node]
                      else "initial")
            seen_backoffs[node] = mac.congestion_backoffs
            log.append((node, window, delay))
        return schedule(delay, fn, *args)

    sim.schedule = recording
    return log


def test_backoff_delays_are_the_seeded_uniform_draws():
    seed = 11
    world = make_world([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], seed=seed)
    macs = [m.mac for m in world.motes]
    log = _recording_schedules(world.sim, macs)
    for m in world.motes:
        m.radio.turn_on()
    for i, m in enumerate(world.motes):
        for k in range(4):
            m.mac.send((i, k), 120)  # long frames: plenty of busy polls
    world.sim.run()
    windows = {w for _node, w, _delay in log}
    assert windows == {"initial", "congestion"}
    config = MacConfig()
    bounds = {
        "initial": (config.initial_backoff_min, config.initial_backoff_max),
        "congestion": (config.congestion_backoff_min,
                       config.congestion_backoff_max),
    }
    for m in world.motes:
        node = m.radio.node_id
        rng = derive_rng(seed, "mac", node)
        draws = [(w, d) for n, w, d in log if n == node]
        assert len(draws) >= 4
        for window, delay in draws:
            assert delay == rng.uniform(*bounds[window])  # bit for bit


# A small seeded saturation run on the scalar channel: every MAC
# broadcasts back to back until its budget drains.
SATURATION_GOLDEN = {
    "events": 3403,
    "sim_ms": 2292.207094930688,
    "transmissions": 432,
    "collisions": 3063,
    "bit_error_losses": 132,
    "carrier_polls": 2971,
    "congestion_backoffs": 2539,
    "frames_received": 597,
    "frames_corrupted": 3063,
}


def test_saturation_golden():
    from repro.net.loss_models import EmpiricalLossModel
    from repro.net.topology import Topology
    from repro.profiling import _SaturatingSender
    from repro.radio.channel import Channel
    from repro.radio.mac import CsmaMac
    from repro.radio.propagation import PropagationModel
    from repro.radio.radio import Radio
    from repro.sim.kernel import Simulator

    seed = 3
    sim = Simulator(seed=seed)
    topology = Topology.grid(6, 6, 10.0)
    channel = Channel(sim, topology, EmpiricalLossModel(seed=seed),
                      PropagationModel(21.0, 3.0), seed=seed)
    radios, macs, senders = [], [], []
    for node_id in topology.node_ids():
        radio = Radio(sim, node_id)
        channel.attach(radio)
        radio.turn_on()
        mac = CsmaMac(sim, radio, channel, seed=seed)
        radios.append(radio)
        macs.append(mac)
        senders.append(_SaturatingSender(mac, 12))
    for sender in senders:
        sender.start()
    sim.run()
    got = {
        "events": sim.events_executed,
        "sim_ms": sim.now,
        "transmissions": channel.transmissions,
        "collisions": channel.collisions,
        "bit_error_losses": channel.bit_error_losses,
        "carrier_polls": channel.carrier_polls,
        "congestion_backoffs": sum(m.congestion_backoffs for m in macs),
        "frames_received": sum(r.frames_received for r in radios),
        "frames_corrupted": sum(r.frames_corrupted for r in radios),
    }
    assert got == SATURATION_GOLDEN
