"""Tests for the metrics collector and report rendering."""

from collections import Counter

from repro.core.segments import CodeImage
from repro.experiments.common import Deployment
from repro.metrics.collector import MetricsCollector
from repro.metrics.reports import (
    format_grid,
    format_table,
    format_timeline,
    summarize,
)
from repro.net.loss_models import EmpiricalLossModel, PerfectLossModel
from repro.net.topology import Topology
from repro.radio.channel import Channel
from repro.radio.packet import Frame
from repro.radio.propagation import PropagationModel
from repro.radio.radio import Radio
from repro.sim.kernel import MINUTE, Simulator


def radio_line(n=3):
    """A perfect channel over ``n`` nodes 10 ft apart, every radio on;
    all nodes are within range of each other."""
    sim = Simulator(seed=1)
    topo = Topology([(10.0 * i, 0.0) for i in range(n)])
    channel = Channel(sim, topo, PerfectLossModel(),
                      PropagationModel.outdoor(60.0), seed=1)
    radios = []
    for node_id in topo.node_ids():
        radio = Radio(sim, node_id)
        channel.attach(radio)
        radio.turn_on()
        radios.append(radio)
    return sim, channel, radios


def send_at(sim, channel, radio, kind, t):
    """Transmit a frame whose payload type is named ``kind`` at time ``t``."""
    payload = type(kind, (), {})()
    sim.schedule(t - sim.now, channel.transmit, radio,
                 Frame(radio.node_id, payload, 20))


def emit(sim, category, t=None, **fields):
    if t is not None:
        sim.now = t
    sim.tracer.emit(category, **fields)


def test_tx_rx_counting():
    sim, channel, radios = radio_line()
    collector = MetricsCollector(channel)
    radios[0].turn_off()
    send_at(sim, channel, radios[1], "DataPacket", 0.0)
    sim.schedule(100.0, radios[2].turn_off)
    send_at(sim, channel, radios[1], "Advertisement", 200.0)
    sim.run()
    assert collector.tx_by_node[1] == 2
    assert collector.tx_by_node_kind[1]["DataPacket"] == 1
    assert collector.rx_by_node[2] == 1
    assert 0 not in collector.rx_by_node      # never received anything


def test_sender_order_dedups_and_sorts():
    sim, channel, _ = radio_line()
    collector = MetricsCollector(channel)
    emit(sim, "mnp.sender", t=10.0, node=5, seg=1, req_ctr=2, packets=4)
    emit(sim, "mnp.sender", t=20.0, node=3, seg=1, req_ctr=1, packets=4)
    emit(sim, "mnp.sender", t=30.0, node=5, seg=2, req_ctr=1, packets=4)
    assert collector.sender_order() == [5, 3]


def test_got_code_first_time_wins():
    sim, channel, _ = radio_line()
    collector = MetricsCollector(channel)
    emit(sim, "mnp.got_code", t=100.0, node=7, parent=1)
    emit(sim, "mnp.got_code", t=200.0, node=7, parent=1)
    assert collector.got_code[7] == 100.0
    assert collector.completion_time(1) == 100.0
    assert collector.completion_time(2) is None


def test_tx_per_window_buckets():
    sim, channel, radios = radio_line()
    collector = MetricsCollector(channel)
    send_at(sim, channel, radios[1], "A", 100.0)
    send_at(sim, channel, radios[1], "A", 59_000.0)
    send_at(sim, channel, radios[2], "B", 61_000.0)
    sim.run()
    series = collector.tx_per_window(60_000.0)
    assert series["A"] == [2, 0]
    assert series["B"] == [0, 1]


def test_tx_per_window_kind_filter_and_until():
    sim, channel, radios = radio_line()
    collector = MetricsCollector(channel)
    send_at(sim, channel, radios[1], "A", 100.0)
    sim.run()
    series = collector.tx_per_window(60_000.0, kinds=["A", "Z"],
                                     until=120_000.0)
    assert series["A"] == [1, 0, 0]
    assert series["Z"] == [0, 0, 0]


def test_first_adv_snapshot():
    sim, channel, _ = radio_line()
    collector = MetricsCollector(channel)
    emit(sim, "mnp.first_adv", t=500.0, node=4, radio_on_ms=500.0)
    assert collector.first_adv[4] == (500.0, 500.0)


# ----------------------------------------------------------------------
# The per-frame views against the trace records the channel emits
# ----------------------------------------------------------------------
class FrameRecorder:
    """Rebuilds the per-frame metrics from ``radio.tx``/``radio.rx``/
    ``channel.collision`` trace records, the way a trace consumer sees
    them."""

    def __init__(self, tracer):
        self.tx_log = []
        self.rx = Counter()
        self.collisions = 0
        tracer.subscribe(self._on_record, categories=(
            "radio.tx", "radio.rx", "channel.collision"))

    def _on_record(self, rec):
        if rec.category == "radio.tx":
            self.tx_log.append((rec.time, rec.node, rec.kind))
        elif rec.category == "radio.rx":
            self.rx[rec.node] += 1
        else:
            self.collisions += 1

    def assert_matches(self, collector):
        assert collector.tx_log == self.tx_log
        by_node = Counter(node for _, node, _ in self.tx_log)
        assert list(collector.tx_by_node.items()) == list(by_node.items())
        by_kind = {}
        for _, node, kind in self.tx_log:
            by_kind.setdefault(node, Counter())[kind] += 1
        assert [(node, list(kinds.items()))
                for node, kinds in collector.tx_by_node_kind.items()] == \
            [(node, list(kinds.items())) for node, kinds in by_kind.items()]
        assert dict(collector.rx_by_node) == dict(self.rx)
        assert collector.collisions == self.collisions


def test_views_match_traces_on_a_lossy_mnp_grid():
    image = CodeImage.random(1, n_segments=1, segment_packets=16, seed=3)
    dep = Deployment(Topology.grid(6, 6, 10), image=image, protocol="mnp",
                     seed=3, loss_model=EmpiricalLossModel(seed=3),
                     propagation=PropagationModel.outdoor(25.0))
    recorder = FrameRecorder(dep.sim.tracer)
    result = dep.run_to_completion(deadline_ms=60 * MINUTE)
    assert result.coverage == 1.0
    assert dep.collector.collisions > 0
    assert dep.channel.bit_error_losses > 0
    recorder.assert_matches(dep.collector)


def test_views_skip_frames_a_decode_hook_drops():
    sim, channel, radios = radio_line()
    collector = MetricsCollector(channel)
    recorder = FrameRecorder(sim.tracer)
    channel.decode_hook = lambda frame, dst: None if dst == 2 else frame
    for i in range(4):
        send_at(sim, channel, radios[1], "DataPacket", 100.0 * i)
    sim.run()
    assert channel.bit_error_losses == 4
    assert dict(collector.rx_by_node) == {0: 4}
    recorder.assert_matches(collector)


def test_views_count_a_transmission_aborted_by_radio_off():
    sim, channel, radios = radio_line()
    collector = MetricsCollector(channel)
    recorder = FrameRecorder(sim.tracer)
    send_at(sim, channel, radios[1], "DataPacket", 0.0)
    sim.schedule(2.0, radios[1].turn_off)    # mid-frame
    sim.run()
    assert radios[1].frames_sent == 0        # never finished ...
    assert collector.tx_by_node[1] == 1      # ... but counted at start
    assert not collector.rx_by_node
    recorder.assert_matches(collector)


def test_bare_channel_keeps_no_log():
    sim, channel, radios = radio_line()
    send_at(sim, channel, radios[1], "DataPacket", 0.0)
    sim.run()
    assert channel.transmissions == 1
    assert channel.tx_log is None


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 22]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)
    assert "long-name" in text


def test_format_grid_layout():
    topo = Topology.grid(2, 3, 10)
    values = {i: float(i) for i in topo.node_ids()}
    text = format_grid(values, topo, fmt="{:3.0f}")
    rows = text.splitlines()
    assert len(rows) == 2
    assert rows[0].split() == ["0", "1", "2"]
    assert rows[1].split() == ["3", "4", "5"]


def test_format_grid_missing_values():
    topo = Topology.grid(1, 2, 10)
    text = format_grid({0: 1.0}, topo, fmt="{:3.0f}", missing="  .")
    assert "." in text


def test_format_timeline():
    text = format_timeline({"A": [1, 2], "B": [0, 5]}, 60_000.0, title="F12")
    assert "F12" in text
    lines = text.splitlines()
    assert len(lines) == 1 + 2 + 2  # title, header, separator, 2 windows


def test_summarize():
    stats = summarize([1.0, 2.0, 3.0])
    assert stats == {"min": 1.0, "mean": 2.0, "max": 3.0, "n": 3}
    assert summarize([])["mean"] is None


def test_format_parent_arrows():
    from repro.metrics.reports import format_parent_arrows

    topo = Topology.grid(2, 2, 10)  # ids: 0 (0,0), 1 (10,0), 2 (0,10), 3
    parents = {1: 0, 2: 0, 3: 0}
    text = format_parent_arrows(parents, topo, base_id=0, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    # y grows upward: top row printed first holds nodes 2 and 3.
    assert lines[1] == "↓ ↙"
    assert lines[2] == "◎ ←"


def test_format_parent_arrows_missing_parent():
    from repro.metrics.reports import format_parent_arrows

    topo = Topology.grid(1, 3, 10)
    text = format_parent_arrows({1: 0}, topo, base_id=0)
    assert text == "◎ ← ·"
