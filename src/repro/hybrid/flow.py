"""Analytical bulk-data delivery: one event per FEC group, not per hop.

Packet fidelity forwards every data packet over every tree link as its own
scheduler event — ``O(packets × links)`` events for traffic whose fate is
a chain of independent Bernoulli draws.  :class:`FlowDataEngine` collapses
the whole CBR data plane to **one event per FEC group**: at the emission
time of the group's last packet it walks the compiled multicast tree once,
draws the per-link Bernoulli losses for all ``k`` packets as a bitmask
sweep, and schedules a single *apply* event per (receiver, group) at the
analytically exact arrival time.  Receivers that lost nothing advance
their group state in bulk; NACK generation, scoping, and repair stay at
full packet fidelity because the apply path drives the very same
``GroupState`` / finalize / request machinery as ``handle_data``.

Statistical faithfulness, not trace equality:

* Per-link survival of packet ``i`` at a node is an independent Bernoulli
  draw with the same compounding as the packet engine (a draw per
  surviving-at-parent bit per link; down links lose everything without
  consuming randomness, exactly like ``Network._drops``).  Draws come
  from a dedicated ``"hybrid.flow"`` RNG stream in canonical tree
  preorder, so a sharded run computes the *identical* loss pattern in
  every shard regardless of ownership splits.
* Gilbert–Elliott (or any stateful) link models contribute their
  ``stationary_loss_rate`` — the same marginal :meth:`Network.path_loss`
  reports — instead of stepping the model's state machine.  Burst
  *correlation structure* is a documented casualty of hybrid mode; the
  per-receiver loss *marginals* are preserved.
* Arrival times are exact: cumulative serialization + propagation along
  the tree path, with packet ``i`` offset by ``i × ipt`` from the group
  base.  Link ``busy_until`` is not advanced for bulk data (CBR spacing
  dwarfs per-packet serialization; the approximation is documented in
  docs/HYBRID.md), and ``loss_oracle`` scripts do not apply to bulk data.
* Traffic accounting (link counters, :class:`TrafficMonitor` histograms
  via ``record_bulk``) matches the packet engine's shard-ownership
  gating, so merged sharded results fold identically.

What the flow engine does **not** model per packet: per-arrival IPT
re-estimation (the configured ``inter_packet_interval`` is already exact
for a queue-free CBR source) and mid-group speculative requests (losses
are requested at the group's loss-detection point, i.e. the same time the
LDP timer would have fired).
"""

from __future__ import annotations

from repro.core.config import PACKET_SIZE


class FlowDataEngine:
    """Flow-model replacement for the sender's per-packet CBR emission."""

    def __init__(self, protocol) -> None:
        self.protocol = protocol
        self.network = protocol.network
        self.sim = protocol.sim
        self.config = protocol.config
        #: Shared, shard-suffix-free stream: every shard of a sharded run
        #: consumes it in the same canonical order and sees the same fates.
        self.rng = self.sim.rng.stream("hybrid.flow")
        self.groups_delivered = 0

    # ------------------------------------------------------------------ launch

    def begin(self, data_start: float) -> None:
        """Schedule one delivery event per FEC group of the stream."""
        config = self.config
        ipt = config.inter_packet_interval
        for g in range(config.n_groups):
            k = config.group_k(g)
            t_last = data_start + (g * config.group_size + k - 1) * ipt
            self.sim.at(t_last, self._on_group, g, data_start)

    # ------------------------------------------------------------ per group

    def _on_group(self, g: int, data_start: float) -> None:
        """Deliver group ``g`` analytically, at its last packet's emit time."""
        protocol = self.protocol
        network = self.network
        config = self.config
        source = protocol.source_id
        if not network.nodes[source].up:
            # A crashed source emits nothing (Network.multicast stifles).
            return
        now = self.sim.now
        ipt = config.inter_packet_interval
        k = config.group_k(g)
        size = PACKET_SIZE
        t0 = data_start + g * config.group_size * ipt  # emit time of index 0
        full_mask = (1 << k) - 1
        observers = [
            o for o in network._observers if hasattr(o, "record_bulk")
        ]
        owned = network._owned

        # Sender bookkeeping first: entering the repair phase pushes the
        # proactive-FEC reply timer *now*, giving its (and hence the FEC
        # arrivals') events a lower push sequence than the apply events we
        # schedule below only where timestamps differ — at equal
        # timestamps apply events still fire first because FEC arrival
        # events are pushed later, when the reply timer fires.  That
        # preserves the packet engine's data-before-repair ordering.
        sender = protocol.sender
        if sender is not None and not sender._stopped:
            state = sender.group_state(g)
            sender.packets_sent += k
            if g == config.n_groups - 1:
                sender.finished_at = now
            for observer in observers:
                observer.record_bulk("send", "DATA", source, t0, ipt, full_mask, size)
            sender._enter_repair_phase(state)

        data_group = network._group(protocol.channels.data_group_id)
        root = network._schedule_for(source, data_group)
        rng_random = self.rng.random
        subscribers = data_group.subscribers
        receivers = protocol.receivers

        # Iterative preorder walk of the compiled tree: (record, mask,
        # delay) where ``mask`` is the set of the group's packets still
        # alive at this node and ``delay`` the cumulative one-way latency
        # from the source.  ``reversed`` on push keeps pop order equal to
        # the compiler's child order, making RNG consumption canonical.
        stack = [(root, full_mask, 0.0)]
        while stack:
            record, mask, delay = stack.pop()
            node_id = record[0]
            if node_id != source and node_id in subscribers:
                if owned is None or node_id in owned:
                    for observer in observers:
                        observer.record_bulk(
                            "recv", "DATA", node_id, t0 + delay, ipt, mask, size
                        )
                receiver = receivers.get(node_id)
                if receiver is not None:
                    self._schedule_apply(receiver, g, k, mask, t0, delay, now, ipt)
            # An empty mask still walks the subtree: receivers below a
            # total-loss point must get their finalize-only apply events
            # (the packet engine reaches them through FEC/repair traffic).
            # With no live packets there are no draws, so RNG consumption
            # stays identical to the packet engine's (no packet, no
            # Bernoulli).
            for link, child_record in reversed(record[3]):
                child_id = child_record[0]
                parent_owned = owned is None or node_id in owned
                if not link.up:
                    # Down link: every packet dies, no randomness consumed
                    # (Network._drops checks link.up before drawing).  The
                    # subtree below is unreachable for repair traffic too,
                    # so — unlike the total-loss case — it is not walked.
                    if parent_owned and mask:
                        link.packets_dropped += mask.bit_count()
                        self._record_drops(
                            observers, child_id, t0 + delay, ipt, mask, size
                        )
                    continue
                p = self._link_loss_rate(link)
                if mask == 0 or p <= 0.0:
                    survived = mask
                else:
                    survived = 0
                    m = mask
                    while m:
                        bit = m & -m
                        if rng_random() >= p:
                            survived |= bit
                        m ^= bit
                lost = mask ^ survived
                child_delay = delay + link.serialization_delay(size) + link.latency_s
                if parent_owned:
                    n_ok = survived.bit_count()
                    link.packets_dropped += lost.bit_count()
                    link.packets_sent += n_ok
                    link.bytes_sent += n_ok * size
                    if lost:
                        self._record_drops(
                            observers, child_id, t0 + delay, ipt, lost, size
                        )
                if not network.nodes[child_id].up:
                    # Survivors reach a crashed node: dropped there, and
                    # nothing forwards into the subtree below (matches
                    # _arrive_fast).  Skipping the subtree is RNG-faithful
                    # for the same reason as the mask==0 case.
                    if survived and (owned is None or child_id in owned):
                        self._record_drops(
                            observers, child_id, t0 + child_delay, ipt, survived, size
                        )
                    continue
                stack.append((child_record, survived, child_delay))
        self.groups_delivered += 1

    @staticmethod
    def _record_drops(observers, node_id, t_base, dt, mask, size) -> None:
        for observer in observers:
            observer.record_bulk("drop", "DATA", node_id, t_base, dt, mask, size)

    @staticmethod
    def _link_loss_rate(link) -> float:
        # Mirrors Network.path_loss: a stateful model contributes its
        # stationary marginal, a plain link its Bernoulli rate.
        model = link.loss_model
        if model is not None:
            stationary = getattr(model, "stationary_loss_rate", None)
            if stationary is not None:
                return stationary
        return link.loss_rate

    # ------------------------------------------------------------- receivers

    def _schedule_apply(
        self,
        receiver,
        g: int,
        k: int,
        mask: int,
        t0: float,
        delay: float,
        now: float,
        ipt: float,
    ) -> None:
        """One state-advancement event per (receiver, group).

        If the receiver heard the group's *last* packet, its loss picture
        finalizes at that packet's arrival (``handle_data``'s
        ``index == k-1`` path).  Otherwise the packet engine would finalize
        via the loss-detection-point timer, which is armed at
        ``last heard arrival + gap·ipt + 2·ipt`` and therefore fires at the
        same instant the last packet *would* have arrived plus ``2·ipt`` —
        so ``arrival(k-1) + 2·ipt`` is the LDP-equivalent apply time.

        A receiver that heard *nothing* of the group still gets a
        finalize-only event at the LDP-equivalent time: in the packet
        engine such a receiver's group state is created by overheard
        FEC/repair traffic and its losses finalized by the LDP timer
        (which ``_flow_mode`` suppresses), so the apply event must carry
        that finalization or an all-loss receiver would never NACK.
        """
        arrival_last = now + delay
        if mask >> (k - 1) & 1:
            t_apply = arrival_last
        else:
            t_apply = arrival_last + 2.0 * ipt
        self.sim.at(t_apply, self._apply, receiver, g, k, mask, t0, delay)

    def _apply(
        self, receiver, g: int, k: int, mask: int, t0: float, delay: float
    ) -> None:
        """Advance one receiver's state for one group, in bulk.

        Mirrors ``SharqfecReceiver.handle_data`` for the whole group at
        once: baseline the first-heard group, finalize older groups, record
        every surviving index at its true arrival time, then either
        complete the group or finalize its losses (the LDP outcome).
        """
        if receiver._stopped:
            return
        state = receiver.groups.get(g)
        if state is None:
            state = receiver.group_state(g)
        was_complete = state.complete
        if receiver._highest_group_seen < 0 and not receiver.config.late_join_recovery:
            receiver._highest_group_seen = g
        if g > receiver._highest_group_seen:
            for gid in range(receiver._highest_group_seen + 1, g):
                receiver._finalize_group(receiver.group_state(gid))
            if receiver._highest_group_seen >= 0:
                prev = receiver.groups.get(receiver._highest_group_seen)
                if prev is not None and not prev.repair_phase:
                    receiver._finalize_group(prev)
            receiver._highest_group_seen = g
        ipt = receiver.config.inter_packet_interval
        n = 0
        m = mask
        while m:
            bit = m & -m
            i = bit.bit_length() - 1
            state.record_index(i, t0 + i * ipt + delay)
            n += 1
            m ^= bit
        receiver.data_received += n
        if state.complete:
            if not was_complete:
                receiver._group_completed(state)
        elif not state.repair_phase:
            receiver._finalize_group(state)
