"""The network-coding layer: fields, codec, trackers, coded protocols.

The unit half is a seeded fuzz of the GF(2^8) and GF(2) generation
encoder/decoder -- random rank-deficient batches, duplicated coded
packets, truncated coefficient headers, out-of-field coefficients, and a
differential check of the whole-row table/XOR kernel against the scalar
field definition -- plus the EEPROM-flush and power-cycle behavior of
:class:`CodedSegmentTracker`.  The integration half runs ``coded_mnp``
and ``coded_deluge`` end to end: completion, byte-exact content,
determinism, and the headline property that coding beats stock MNP on
message count under heavy loss.

All randomness comes from per-test ``random.Random`` seeds, so a
failure replays exactly.
"""

import random

import pytest

from repro import (
    CodeImage,
    Deployment,
    MINUTE,
    PerfectLossModel,
    Topology,
    UniformLossModel,
)
from repro.core.coding import (
    FIELDS,
    CodedSegmentTracker,
    GenerationDecoder,
    GenerationEncoder,
    RankDemand,
    coeff_wire_bytes,
    gf256_inv,
    gf256_mul,
    pack_coeffs,
    unpack_coeffs,
)
from repro.core.messages import CodedDataPacket, DataPacket, RankReport
from repro.hardware.eeprom import EepromError


# ---------------------------------------------------------------------------
# GF(2^8) arithmetic
# ---------------------------------------------------------------------------

def test_gf256_field_axioms_sampled():
    rng = random.Random(0xF1E1D)
    for _ in range(500):
        a = rng.randrange(1, 256)
        b = rng.randrange(1, 256)
        c = rng.randrange(256)
        assert gf256_mul(a, gf256_inv(a)) == 1
        assert gf256_mul(a, b) == gf256_mul(b, a)
        assert gf256_mul(a, gf256_mul(b, c)) == gf256_mul(gf256_mul(a, b), c)
    assert gf256_mul(0, 7) == 0 and gf256_mul(7, 0) == 0
    with pytest.raises(ZeroDivisionError):
        gf256_inv(0)


# ---------------------------------------------------------------------------
# Differential: whole-row kernel vs the scalar field definition
# ---------------------------------------------------------------------------

#: field -> (scalar multiply, scalar inverse): the readable definitions
#: the row tables must reproduce byte for byte.  Under GF(2) a payload
#: byte is eight independent bits, so a coefficient keeps or clears it.
SCALAR = {
    "gf256": (gf256_mul, gf256_inv),
    "gf2": (lambda c, x: x if c else 0, lambda a: 1),
}


class ScalarDecoder:
    """Gauss-Jordan over per-byte scalar multiplies: the reference the
    table-translate/big-int-XOR decoder is checked against."""

    def __init__(self, n, field):
        self.n = n
        self.mul, self.inv = SCALAR[field]
        self.pivots = {}  # pivot column -> list of coeffs + payload

    def _subtract_scaled(self, row, factor, pivot_row):
        for j, x in enumerate(pivot_row):
            row[j] ^= self.mul(factor, x)

    def add(self, coeffs, payload):
        row = list(coeffs) + list(payload)
        for col, p_row in self.pivots.items():
            self._subtract_scaled(row, row[col], p_row)
        nonzero = [col for col in range(self.n) if row[col]]
        if not nonzero:
            return False
        pivot = nonzero[0]
        factor = self.inv(row[pivot])
        row = [self.mul(factor, x) for x in row]
        for p_row in self.pivots.values():
            self._subtract_scaled(p_row, p_row[pivot], row)
        self.pivots[pivot] = row
        return True


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_row_tables_match_scalar_multiply(field):
    mul, _ = SCALAR[field]
    table = FIELDS[field].table
    row = bytes(range(256))
    for c in range(len(table)):
        assert row.translate(table[c]) == bytes(mul(c, x) for x in row)


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_decoder_rows_match_scalar_elimination(field):
    """Every add() -- innovative, duplicate or dependent -- leaves the
    decoder's reduced rows byte-equal to scalar Gauss-Jordan."""
    rng = random.Random(0xD1FF)
    order = len(FIELDS[field].table)
    for trial in range(20):
        n = rng.randrange(1, 17)
        payload_len = rng.randrange(1, 24)
        decoder = GenerationDecoder(n, payload_len, field=field)
        reference = ScalarDecoder(n, field)
        sent = []
        for _ in range(2 * n + 4):
            if sent and rng.random() < 0.25:
                coeffs, payload = rng.choice(sent)  # a duplicate
            else:
                coeffs = tuple(rng.randrange(order) for _ in range(n))
                payload = bytes(rng.randrange(256)
                                for _ in range(payload_len))
                sent.append((coeffs, payload))
            assert decoder.add(coeffs, payload) == \
                reference.add(coeffs, payload)
            assert decoder.rank == len(reference.pivots)
            assert {col: list(row) for col, row in
                    decoder._pivots.items()} == reference.pivots


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_next_coded_matches_scalar_combination(field):
    mul, _ = SCALAR[field]
    rng = random.Random(0xC0DE)
    for trial in range(20):
        n = rng.randrange(1, 33)
        packets = _random_generation(rng, n, rng.randrange(1, 24))
        rows = [pkt.ljust(23, b"\x00") for pkt in packets]
        encoder = GenerationEncoder(packets, random.Random(trial),
                                    field=field)
        for _ in range(5):
            coeffs, payload = encoder.next_coded()
            expected = bytearray(23)
            for c, row in zip(coeffs, rows):
                for j in range(23):
                    expected[j] ^= mul(c, row[j])
            assert payload == bytes(expected)


# ---------------------------------------------------------------------------
# Seeded encode/decode round-trip fuzz
# ---------------------------------------------------------------------------

def _random_generation(rng, n, tail_len):
    packets = [bytes(rng.randrange(256) for _ in range(23))
               for _ in range(n)]
    packets[-1] = packets[-1][:tail_len]
    return packets


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_roundtrip_fuzz(field):
    rng = random.Random(42)
    for trial in range(25):
        n = rng.randrange(1, 33)
        tail = rng.randrange(1, 24)
        packets = _random_generation(rng, n, tail)
        encoder = GenerationEncoder(
            packets, random.Random(1000 + trial), field=field)
        decoder = GenerationDecoder(n, field=field)
        sent = 0
        while not decoder.is_complete:
            coeffs, payload = encoder.next_coded()
            # Round-trip the coefficient header through the wire codec.
            wire = pack_coeffs(coeffs, field)
            assert len(wire) == coeff_wire_bytes(n, field)
            decoder.add(unpack_coeffs(wire, n, field), payload)
            sent += 1
            assert sent < 20 * n + 50, "decoder failed to converge"
        recovered = [decoder.packet(i) for i in range(n)]
        recovered[-1] = recovered[-1][:tail]
        assert recovered == packets


@pytest.mark.parametrize("field", ["gf256", "gf2"])
def test_rank_deficient_batches_never_overreport(field):
    """Feeding fewer than n combinations can never reach full rank, and
    duplicates of the same coded packet never raise rank."""
    rng = random.Random(7)
    for trial in range(10):
        n = rng.randrange(2, 17)
        packets = _random_generation(rng, n, 23)
        encoder = GenerationEncoder(
            packets, random.Random(trial), field=field)
        decoder = GenerationDecoder(n, field=field)
        batch = [encoder.next_coded() for _ in range(n - 1)]
        for coeffs, payload in batch:
            decoder.add(coeffs, payload)
        assert decoder.rank <= n - 1
        assert not decoder.is_complete
        rank_before = decoder.rank
        # Every duplicate is linearly dependent by construction.
        for coeffs, payload in batch:
            assert decoder.add(coeffs, payload) is False
        assert decoder.rank == rank_before
        with pytest.raises(ValueError):
            decoder.packet(0)


def test_truncated_coefficient_headers_rejected():
    n = 12
    coeffs = tuple(range(1, n + 1))
    for field in ("gf256", "gf2"):
        wire = pack_coeffs(coeffs[:n] if field == "gf256"
                           else tuple(c & 1 for c in coeffs), field)
        with pytest.raises(ValueError):
            unpack_coeffs(wire[:-1], n, field)
    # A short coefficient vector reaching the decoder (corrupted decode
    # surviving the CRC) is dropped, not absorbed.
    decoder = GenerationDecoder(n)
    assert decoder.add((1,) * (n - 1), b"\x00" * 23) is False
    assert decoder.add((1,) * n, b"\x00" * 22) is False
    assert decoder.rank == 0


def test_gf2_decoder_rejects_out_of_field_coefficients():
    """Regression: a GF(2) coefficient of 3 used to become an unnormalised
    pivot; a later valid (1, 0) then overwrote pivot 0 and reported
    itself innovative while rank stayed 1."""
    payload = bytes(range(23))
    decoder = GenerationDecoder(2, field="gf2")
    assert decoder.add((3, 0), payload) is False
    assert decoder.add((0, 2), payload) is False
    assert decoder.rank == 0
    assert decoder.add((1, 0), payload) is True
    assert decoder.add((1, 0), payload) is False
    assert decoder.add((3, 1), payload) is False
    assert decoder.rank == 1
    assert decoder.add((1, 1), bytes(23)) is True
    assert decoder.is_complete
    assert decoder.packet(0) == payload and decoder.packet(1) == payload


def test_gf256_decoder_rejects_out_of_field_coefficients():
    decoder = GenerationDecoder(2)
    assert decoder.add((300, 0), b"\x00" * 23) is False
    assert decoder.add((1, -1), b"\x00" * 23) is False
    assert decoder.rank == 0
    tracker = CodedSegmentTracker(2)
    assert tracker.absorb((256, 1), b"\x00" * 23) is False
    assert tracker.rank == 0
    assert tracker.absorb((255, 1), b"\x00" * 23) is True


def test_encoder_rejects_malformed_generations():
    with pytest.raises(ValueError):
        GenerationEncoder([], random.Random(0))
    with pytest.raises(ValueError):
        GenerationEncoder([b"\x00" * 5, b"\x00" * 23], random.Random(0))
    with pytest.raises(ValueError):
        GenerationEncoder([b"\x00" * 24], random.Random(0))
    with pytest.raises(ValueError):
        GenerationEncoder([b"\x00" * 23], random.Random(0), field="gf7")


# ---------------------------------------------------------------------------
# CodedSegmentTracker: flush, EEPROM faults, power cycle
# ---------------------------------------------------------------------------

def test_tracker_flush_is_write_once():
    rng = random.Random(3)
    packets = _random_generation(rng, 8, 9)
    encoder = GenerationEncoder(packets, random.Random(4))
    tracker = CodedSegmentTracker(8)
    writes = []
    while not tracker.decoded:
        coeffs, payload = encoder.next_coded()
        tracker.absorb(coeffs, payload, tail_len=9)
    assert tracker.count() == 8  # decoded but nothing flushed yet
    tracker.flush(lambda pid, data: writes.append((pid, data)))
    assert tracker.is_empty() and tracker.count() == 0
    assert sorted(pid for pid, _ in writes) == list(range(8))
    assert dict(writes)[7] == packets[7]  # tail trimmed to 9 bytes
    # A second flush writes nothing: write-once preserved.
    tracker.flush(lambda pid, data: writes.append((pid, data)))
    assert len(writes) == 8


def test_tracker_flush_resumes_after_eeprom_fault():
    rng = random.Random(5)
    packets = _random_generation(rng, 6, 23)
    encoder = GenerationEncoder(packets, random.Random(6))
    tracker = CodedSegmentTracker(6)
    while not tracker.decoded:
        coeffs, payload = encoder.next_coded()
        tracker.absorb(coeffs, payload, tail_len=23)
    store = {}

    failed = []

    def failing_write(pid, data):
        if pid == 3 and not failed:
            failed.append(pid)
            raise EepromError("injected")
        store[pid] = data

    with pytest.raises(EepromError):
        tracker.flush(failing_write)
    assert not tracker.is_empty()
    assert tracker.written.count() == 3  # pids 0..2 landed before the fault
    tracker.flush(failing_write)  # retry completes the remainder once
    assert tracker.is_empty()
    assert [store[i] for i in range(6)] == packets


def test_tracker_reboot_reseeds_from_flash():
    rng = random.Random(8)
    packets = _random_generation(rng, 5, 23)
    tracker = CodedSegmentTracker(5)
    # Simulate a crash after packets 1 and 4 were flushed.
    tracker.written.set(1)
    tracker.written.set(4)
    tracker.reboot(lambda pid: packets[pid])
    assert tracker.rank == 2
    assert tracker.count() == 3
    encoder = GenerationEncoder(packets, random.Random(9))
    while not tracker.decoded:
        coeffs, payload = encoder.next_coded()
        tracker.absorb(coeffs, payload, tail_len=23)
    store = {}
    tracker.flush(lambda pid, data: store.__setitem__(pid, data))
    assert sorted(store) == [0, 2, 3]  # flushed packets are not rewritten


def test_rank_demand_merge_and_report_wire():
    demand = RankDemand(16)
    assert demand.is_empty()
    demand.merge(RankReport(16, 12))
    demand.merge(RankReport(16, 14))
    demand.merge(RankReport(8, 0))  # mismatched geometry: ignored
    assert demand.count() == 4
    demand.take()
    assert demand.count() == 3
    assert RankReport(16, 12).wire_bytes() == 2
    pkt = CodedDataPacket(1, 2, (1,) * 16, b"\x00" * 23, tail_len=23)
    assert isinstance(pkt, DataPacket)
    assert pkt.wire_bytes() == 2 + 1 + 1 + 16 + 23
    gf2_pkt = CodedDataPacket(1, 2, (1,) * 16, b"\x00" * 23, tail_len=23,
                              field="gf2")
    assert gf2_pkt.wire_bytes() == 2 + 1 + 1 + 2 + 23


# ---------------------------------------------------------------------------
# End-to-end: the coded protocol family
# ---------------------------------------------------------------------------

def _run(protocol, seed=3, loss=None, rows=3, cols=3, segment_packets=12):
    topo = Topology.grid(rows, cols, 10.0)
    image = CodeImage.random(program_id=1, n_segments=2,
                             segment_packets=segment_packets, seed=seed)
    loss_model = PerfectLossModel() if loss is None else \
        UniformLossModel(1.0 - (1.0 - loss) ** (1.0 / (8 * 63.0)))
    deployment = Deployment(topo, image=image, protocol=protocol,
                            seed=seed, loss_model=loss_model)
    result = deployment.run_to_completion(deadline_ms=480 * MINUTE)
    return deployment, image, result


@pytest.mark.parametrize("protocol", ["coded_mnp", "coded_deluge"])
def test_coded_protocol_delivers_byte_exact(protocol):
    deployment, image, result = _run(protocol)
    metrics = result.summary_metrics()
    assert metrics["coverage"] == 1.0
    blob = image.to_bytes()
    for node in deployment.nodes.values():
        assert node.assemble_image() == blob


@pytest.mark.parametrize("protocol", ["coded_mnp", "coded_deluge"])
def test_coded_protocol_deterministic(protocol):
    metrics = [
        _run(protocol, seed=11)[2].summary_metrics() for _ in range(2)
    ]
    assert metrics[0] == metrics[1]


@pytest.mark.slow
def test_coded_mnp_beats_stock_under_heavy_loss():
    """The acceptance headline: fewer messages than stock MNP at 30%+
    packet loss (any innovative combination serves every listener)."""
    results = {}
    for protocol in ("mnp", "coded_mnp"):
        _, _, result = _run(protocol, seed=3, loss=0.30,
                            rows=5, cols=5, segment_packets=24)
        metrics = result.summary_metrics()
        assert metrics["coverage"] == 1.0
        results[protocol] = metrics["messages_sent"]
    assert results["coded_mnp"] < results["mnp"], results


@pytest.mark.parametrize("protocol", ["coded_mnp", "coded_deluge"])
def test_coded_delivers_under_loss(protocol):
    deployment, image, result = _run(protocol, seed=7, loss=0.20)
    assert result.summary_metrics()["coverage"] == 1.0
    blob = image.to_bytes()
    for node in deployment.nodes.values():
        assert node.assemble_image() == blob


def test_coded_requester_survives_sender_selection_loss():
    """Regression (found by the adversarial conformance budget): on a
    quiet line a coded requester would lose Fig. 2(b) sender selection
    to the very advertisement answering its own request and sleep --
    radio off -- through the deficit-sized transfer it had solicited.
    On a loss-free channel the round then replayed verbatim forever
    (stock rounds stream whole segments that outlast the nap, so only
    the coded family livelocked)."""
    from repro.core.config import MNPConfig
    from repro.radio.propagation import PropagationModel

    topo = Topology.grid(1, 4, 13.4)
    image = CodeImage.random(program_id=1, n_segments=2,
                             segment_packets=32, seed=302517)
    dep = Deployment(topo, image=image, protocol="coded_mnp", seed=302517,
                     protocol_config=MNPConfig(fail_backoff_base_ms=250.0),
                     propagation=PropagationModel(25.0, 3.0),
                     loss_model=PerfectLossModel())
    result = dep.run_to_completion(deadline_ms=240 * MINUTE)
    assert result.summary_metrics()["coverage"] == 1.0, \
        "coded requester starved after conceding sender selection"
