"""Passive metrics collection.

A :class:`MetricsCollector` is attached to a deployment's channel *before*
the run; at the end of the run the experiment harness combines what it
holds with the radios' time integrals to produce the paper's metrics.
Collection is entirely passive -- protocols are unaware of it.

Two sources feed it:

* **Per-frame counts** (Figs. 11 and 12, collisions) are views over
  counters the radio layer keeps anyway: the channel's collision count,
  each radio's ``frames_received``, and the channel's transmission log,
  which the collector switches on by attaching a list.  No trace record
  is built per frame for them.
* **Protocol progress** (sender elections, parents, segment and image
  completions, first advertisements, fails) arrives as trace records.
"""

from collections import Counter, defaultdict


class MetricsCollector:
    """Per-run metrics over one :class:`repro.radio.channel.Channel`.

    The per-frame views count everything since the channel was built, so
    attach the collector before the first transmission.
    """

    CATEGORIES = (
        "mnp.sender",
        "mnp.parent",
        "mnp.got_segment",
        "mnp.got_code",
        "mnp.first_adv",
        "mnp.fail",
        "proto.sender",
        "proto.parent",
        "proto.got_code",
    )

    def __init__(self, channel):
        self.channel = channel
        if channel.tx_log is None:
            channel.tx_log = []
        # (time, node, kind) per transmission start, in order.
        self.tx_log = channel.tx_log
        # Protocol progress
        self.got_code = {}  # node -> time
        self.got_segment = defaultdict(dict)  # node -> seg -> (time, parent)
        self.parents = {}  # node -> last parent used
        self.sender_events = []  # (time, node, seg, req_ctr)
        self.first_adv = {}  # node -> (time, radio_on_ms at that instant)
        self.fails = Counter()
        channel.sim.tracer.subscribe(self._on_record,
                                     categories=self.CATEGORIES)

    # ------------------------------------------------------------------
    # Per-frame views
    # ------------------------------------------------------------------
    @property
    def tx_by_node(self):
        """node -> transmissions, in first-transmission order."""
        return Counter(node for _, node, _ in self.tx_log)

    @property
    def tx_by_node_kind(self):
        """node -> Counter of transmitted payload kinds, in
        first-transmission order."""
        by_kind = defaultdict(Counter)
        for _, node, kind in self.tx_log:
            by_kind[node][kind] += 1
        return by_kind

    @property
    def rx_by_node(self):
        """node -> frames delivered to it, for nodes with at least one."""
        return Counter({radio.node_id: radio.frames_received
                        for radio in self.channel.radios()
                        if radio.frames_received})

    @property
    def collisions(self):
        """Frames corrupted by overlapping transmissions at a receiver."""
        return self.channel.collisions

    # ------------------------------------------------------------------
    def _on_record(self, rec):
        fields = rec.fields
        category = rec.category
        if category in ("mnp.sender", "proto.sender"):
            self.sender_events.append(
                (rec.time, fields["node"], fields.get("seg"),
                 fields.get("req_ctr"))
            )
        elif category in ("mnp.parent", "proto.parent"):
            self.parents[fields["node"]] = fields["parent"]
        elif category == "mnp.got_segment":
            self.got_segment[fields["node"]][fields["seg"]] = (
                rec.time, fields["parent"],
            )
        elif category in ("mnp.got_code", "proto.got_code"):
            self.got_code.setdefault(fields["node"], rec.time)
        elif category == "mnp.first_adv":
            self.first_adv[fields["node"]] = (rec.time, fields["radio_on_ms"])
        elif category == "mnp.fail":
            self.fails[fields["node"]] += 1

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def sender_order(self):
        """Nodes in the order they first became senders (Figs. 5-7)."""
        seen = []
        for _, node, _, _ in sorted(self.sender_events):
            if node not in seen:
                seen.append(node)
        return seen

    def tx_per_window(self, window_ms, kinds=None, until=None):
        """Message transmissions bucketed into fixed windows (Fig. 12).

        Returns ``{kind: [count per window]}`` with all lists equally long.
        """
        if until is None:
            until = max((t for t, _, _ in self.tx_log), default=0.0)
        n_windows = int(until // window_ms) + 1 if until else 1
        if kinds is None:
            kinds = sorted({kind for _, _, kind in self.tx_log})
        series = {kind: [0] * n_windows for kind in kinds}
        for time, _, kind in self.tx_log:
            if kind in series and time <= until:
                series[kind][int(time // window_ms)] += 1
        return series

    def completion_time(self, n_nodes):
        """Time the last of ``n_nodes`` nodes got the full image, or None."""
        if len(self.got_code) < n_nodes:
            return None
        return max(self.got_code.values())
