"""Arms a :class:`FaultPlan` against a live network.

``FaultInjector`` turns a plan's data records into cancellable simulator
events.  Each firing mutates the network (links down, nodes crashed, loss
models swapped) and emits a ``fault.<kind>`` record into the simulator's
trace stream, so a chaos run's injected faults and the protocol's reactions
land in one time-ordered, replayable log.

Determinism: the injector adds no randomness of its own.  Everything
stochastic (Gilbert–Elliott chains) draws from named streams of the run's
seeded RNG registry, so a (plan, topology, seed) triple replays
bit-identically — asserted by ``tests/test_faults_injector.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.models import clear_loss_model, install_gilbert_elliott
from repro.faults.plan import (
    CHURN_KINDS,
    CLEAR_LOSS_MODEL,
    GILBERT_ELLIOTT,
    HEAL,
    JOIN,
    LEAVE,
    LINK_DOWN,
    LINK_UP,
    NODE_CRASH,
    NODE_RESTART,
    PARTITION,
    RECEIVER_CRASH,
    RECEIVER_RESTART,
    SET_LOSS,
    FaultAction,
    FaultPlan,
)
from repro.net.network import Network


class FaultInjector:
    """Schedules and applies one plan's actions on one network.

    Receiver-churn actions (``join``/``leave``/``crash_restart``) act on a
    protocol session's agents rather than the network, so plans containing
    them additionally need ``protocol=`` (any object with the
    ``join_receiver``/``leave_receiver``/``crash_receiver``/
    ``restart_receiver`` surface — both ``SharqfecProtocol`` and
    ``SrmProtocol`` qualify).
    """

    def __init__(
        self, network: Network, plan: FaultPlan, protocol: Optional[object] = None
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.plan = plan
        self.protocol = protocol
        self._armed = False
        # partition node-set -> directed links this injector downed for it.
        self._partition_links: Dict[FrozenSet[int], List[Tuple[int, int]]] = {}
        #: Actions applied so far, in firing order (diagnostics / tests).
        self.fired: List[FaultAction] = []

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Check every action's targets exist; raise FaultError otherwise."""
        for action in self.plan.actions():
            params = action.param_dict()
            if action.kind in CHURN_KINDS:
                if self.protocol is None:
                    raise FaultError(
                        f"{action.describe()}: receiver churn needs a protocol "
                        "(FaultInjector(net, plan, protocol=...))"
                    )
                node = params["node"]
                if node not in self.protocol.receivers:
                    raise FaultError(
                        f"{action.describe()}: node {node} is not a session receiver"
                    )
                continue
            if "node" in params:
                node = params["node"]
                if node not in self.network.nodes:
                    raise FaultError(f"{action.describe()}: unknown node {node}")
            if "a" in params:
                # Raises TopologyError (a FaultError sibling) when absent.
                self.network.link(params["a"], params["b"])
                if params.get("both", True):
                    self.network.link(params["b"], params["a"])
            if "nodes" in params:
                unknown = set(params["nodes"]) - set(self.network.nodes)
                if unknown:
                    raise FaultError(
                        f"{action.describe()}: unknown nodes {sorted(unknown)}"
                    )

    # -------------------------------------------------------------- lifecycle

    def arm(self) -> "FaultInjector":
        """Validate and schedule every action (absolute plan times)."""
        if self._armed:
            raise FaultError("injector is already armed")
        self.validate()
        for action in self.plan.actions():
            if action.time < self.sim.now:
                raise FaultError(
                    f"{action.describe()}: scheduled in the past "
                    f"(now={self.sim.now:g})"
                )
            self.sim.at(action.time, self._fire, action)
        self._armed = True
        return self

    # --------------------------------------------------------------- firing

    def _fire(self, action: FaultAction) -> None:
        params = action.param_dict()
        kind = action.kind
        net = self.network
        if kind == LINK_DOWN:
            net.set_link_up(params["a"], params["b"], False, both=params["both"])
        elif kind == LINK_UP:
            net.set_link_up(params["a"], params["b"], True, both=params["both"])
        elif kind == NODE_CRASH:
            net.set_node_up(params["node"], False)
        elif kind == NODE_RESTART:
            net.set_node_up(params["node"], True)
        elif kind == SET_LOSS:
            net.set_link_loss(
                params["a"], params["b"], params["rate"], both=params["both"]
            )
        elif kind == PARTITION:
            self._apply_partition(frozenset(params["nodes"]))
        elif kind == HEAL:
            self._apply_heal(frozenset(params["nodes"]))
        elif kind == GILBERT_ELLIOTT:
            install_gilbert_elliott(
                net,
                params["a"],
                params["b"],
                p_gb=params["p_gb"],
                p_bg=params["p_bg"],
                loss_good=params["loss_good"],
                loss_bad=params["loss_bad"],
                slot_s=params["slot_s"],
                both=params["both"],
            )
        elif kind == CLEAR_LOSS_MODEL:
            clear_loss_model(net, params["a"], params["b"], both=params["both"])
        elif kind == JOIN:
            self.protocol.join_receiver(params["node"])
        elif kind == LEAVE:
            self.protocol.leave_receiver(params["node"])
        elif kind == RECEIVER_CRASH:
            self.protocol.crash_receiver(params["node"])
        elif kind == RECEIVER_RESTART:
            self.protocol.restart_receiver(params["node"])
        else:  # pragma: no cover - plan validated kinds at build time
            raise FaultError(f"unknown fault kind {kind!r}")
        self.fired.append(action)
        node = params.get("node", params.get("a", -1))
        self.sim.tracer.emit(
            self.sim.now, f"fault.{kind}", node, action.describe()
        )

    def _apply_partition(self, nodes: FrozenSet[int]) -> None:
        """Down every currently-up link with exactly one endpoint inside
        (the network's link-set bisection), recording the cut for the
        matching heal."""
        self._partition_links[nodes] = self.network.bisect(nodes)

    def _apply_heal(self, nodes: FrozenSet[int]) -> None:
        """Restore the links the matching partition downed.

        Healing an unseen node set restores the full current boundary —
        so a heal-only plan still behaves sensibly.
        """
        self.network.heal_bisection(nodes, self._partition_links.pop(nodes, None))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self._armed else "idle"
        return f"<FaultInjector plan={self.plan.name!r} {state} fired={len(self.fired)}>"
