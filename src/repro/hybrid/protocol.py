"""The hybrid fidelity protocol: packet-level control, flow-level data.

:class:`HybridSharqfecProtocol` is a drop-in :class:`SharqfecProtocol`
replacement that splits the run by *plane* rather than by packet:

* **Control plane — packet fidelity.**  NACKs, repairs, proactive FEC,
  session messages, elections, fault reactions, and churn all run the
  unmodified agent code over the unmodified forwarding engine.  Whenever
  one of those paths is active, every event it produces is exactly the
  event the packet engine would produce.
* **Data plane — flow fidelity.**  Steady-state CBR data delivery is
  replaced by :class:`~repro.hybrid.flow.FlowDataEngine`: one event per
  FEC group, per-link Bernoulli masks, and one bulk state-advancement
  event per (receiver, group) at the analytically exact arrival time.
* **Session plane — analytically pre-converged, woken on demand.**  At
  ``session_start`` the agents *join* their channels but start no
  session or election timers; :func:`~repro.hybrid.seed.seed_converged_state`
  installs the state a converged packet run would have discovered.  The
  first *disturbance* — any runtime topology change
  (:attr:`Network.on_disturbance`) or protocol-level churn call — wakes
  the full session/election machinery on every live agent, which then
  adapts from the seeded beliefs exactly as from learned ones.  A run
  with no disturbances (the steady-state scaling regime this engine
  exists for) never pays for session gossip at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.protocol import SharqfecProtocol, _remote_member_handler
from repro.errors import ConfigError
from repro.hybrid.flow import FlowDataEngine
from repro.hybrid.seed import seed_converged_state


class HybridSharqfecProtocol(SharqfecProtocol):
    """SHARQFEC with analytical bulk data and a wake-on-disturbance session."""

    def __init__(
        self,
        network,
        config,
        source_id: int,
        receiver_ids: Iterable[int],
        hierarchy=None,
        static_zcrs: Optional[Dict[int, int]] = None,
        local_nodes: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__(
            network,
            config,
            source_id,
            receiver_ids,
            hierarchy,
            static_zcrs,
            local_nodes,
        )
        self._static_zcrs = dict(static_zcrs) if static_zcrs else None
        self._seeded = False
        self._awake = False
        self.flow: Optional[FlowDataEngine] = None
        #: Converged zone→ZCR assignment (populated at seed time).
        self.zcr_of: Optional[Dict[int, Optional[int]]] = None
        network.on_disturbance.append(self._on_disturbance)

    # -------------------------------------------------------------- lifecycle

    def start(self, session_start: float = 1.0, data_start: float = 6.0) -> None:
        if data_start < session_start:
            raise ConfigError("data must not start before the session")
        self.sim.at(session_start, self._seed_sessions)
        # The flow engine runs in every shard (each computes the full loss
        # masks from the shared stream and applies only its own agents);
        # sender bookkeeping inside it is gated on holding the sender.
        self.flow = FlowDataEngine(self)
        self.sim.at(data_start, self.flow.begin, data_start)

    def _seed_sessions(self) -> None:
        """Join channels and install converged session state — no timers."""
        if self.sender is not None:
            self.sender.join()
        for receiver in self.receivers.values():
            if not receiver._stopped:
                receiver.join()
            # Stopped (deferred) receivers are flow-fed too once they join.
            receiver._flow_mode = True
        stub = _remote_member_handler
        for node_id in self._remote_members:
            self.channels.join_member(node_id, stub, stub, stub)
        self.zcr_of = seed_converged_state(self, self._static_zcrs)
        self._seeded = True

    # ------------------------------------------------------------ disturbance

    def _on_disturbance(self) -> None:
        """Wake the suspended session plane; sticky and idempotent.

        Fires from :meth:`Network.topology_changed` (link/node faults,
        partitions, heals) and before every receiver churn call (the
        ``ReceiverChurn`` hook).  Before seeding it is a no-op:
        construction-time topology edits and ``defer_receiver`` are not
        disturbances — the seed pass simply excludes a stopped agent from
        ZCR candidacy.  After the first wake the session plane stays awake
        — the packet-fidelity machinery handles all further adaptation.
        """
        if not self._seeded or self._awake:
            return
        self._awake = True
        tracer = self.sim.tracer
        if tracer.wants("hybrid.wake"):
            tracer.emit(
                self.sim.now,
                "hybrid.wake",
                self.source_id,
                {"agents": len(self.receivers) + (self.sender is not None)},
            )
        if self.sender is not None and not self.sender._stopped:
            self.sender.start_session()
        for receiver in self.receivers.values():
            if not receiver._stopped:
                receiver.start_session()
