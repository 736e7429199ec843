"""Receiver churn by node id: the surface every session type shares."""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ConfigError


class ReceiverChurn:
    """Base of ``SharqfecProtocol`` (hence the hybrid protocol) and
    ``SrmProtocol``: fault plans and experiment drivers call these by node
    id, the agents in ``self.receivers`` carry the actual lifecycle."""

    receivers: Dict[int, Any]

    def _on_disturbance(self) -> None:
        """Runs before every live membership change (the hybrid protocol
        overrides it to wake its suspended session plane)."""

    def _receiver(self, node_id: int) -> Any:
        try:
            return self.receivers[node_id]
        except KeyError:
            raise ConfigError(
                f"node {node_id} is not a receiver of this session"
            ) from None

    def defer_receiver(self, node_id: int) -> None:
        """Hold a receiver out of the session until :meth:`join_receiver`.

        Call before ``start`` to model a member that joins late rather
        than from t=0 (so it is no disturbance of a running session).
        """
        self._receiver(node_id).stop()

    def join_receiver(self, node_id: int) -> None:
        """(Re)join a deferred, crashed, or departed receiver.

        The agent subscribes its channels and resynchronizes via the
        late-join/restart machinery (SHARQFEC: stream-extent gossip and
        scope-escalating requests; SRM: ``highest_seq`` advertisements).
        """
        self._on_disturbance()
        self._receiver(node_id).restart()

    def leave_receiver(self, node_id: int) -> None:
        """Cleanly remove a receiver: silence it and unsubscribe its
        channels, so multicast trees stop reaching its node."""
        self._on_disturbance()
        self._receiver(node_id).leave()

    def crash_receiver(self, node_id: int) -> None:
        """Crash a receiver's process mid-run (its node keeps routing)."""
        self._on_disturbance()
        self._receiver(node_id).crash()

    def restart_receiver(self, node_id: int) -> None:
        """Restart a crashed receiver; it rebuilds its state from the
        repair channels (see ``SharqfecReceiver.restart``)."""
        self._on_disturbance()
        self._receiver(node_id).restart()
