#!/usr/bin/env python3
"""Quickstart: reliable multicast to a small lossy tree in ~30 lines.

Builds a 7-node binary tree with lossy links, runs a SHARQFEC session over
it, and shows that every receiver reconstructs the full stream despite the
loss — the library's core promise.

Run:  python examples/quickstart.py
"""

from repro.core import SharqfecConfig, SharqfecProtocol
from repro.core.config import PACKET_SIZE
from repro.net import Network
from repro.scoping import ZoneHierarchy
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=42)
    net = Network(sim)

    # A source feeding two lossy subtrees.
    for _ in range(7):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010, loss_rate=0.05)
    net.add_link(0, 2, 10e6, 0.010, loss_rate=0.02)
    net.add_link(1, 3, 10e6, 0.020, loss_rate=0.10)
    net.add_link(1, 4, 10e6, 0.020, loss_rate=0.10)
    net.add_link(2, 5, 10e6, 0.020, loss_rate=0.04)
    net.add_link(2, 6, 10e6, 0.020, loss_rate=0.04)

    # Two administratively scoped zones, one per subtree, nested in a
    # global zone: repairs stay local to the subtree that lost the packet.
    hierarchy = ZoneHierarchy()
    root = hierarchy.add_root(range(7), name="Z0")
    hierarchy.add_zone(root.zone_id, {1, 3, 4}, name="left")
    hierarchy.add_zone(root.zone_id, {2, 5, 6}, name="right")

    config = SharqfecConfig(n_packets=256, group_size=16)
    protocol = SharqfecProtocol(net, config, source_id=0,
                                receiver_ids=range(1, 7), hierarchy=hierarchy)
    protocol.start(session_start=1.0, data_start=6.0)

    sim.run(until=20.0)

    print(f"protocol variant : {protocol.variant_name()}")
    print(f"stream           : {config.n_packets} packets "
          f"x {PACKET_SIZE} B in groups of {config.group_size}")
    print(f"completion       : {protocol.completion_fraction() * 100:.1f}%")
    print(f"NACKs sent       : {protocol.total_nacks_sent()}")
    for rid, receiver in sorted(protocol.receivers.items()):
        loss = net.path_loss(0, rid)
        print(f"  receiver {rid}: path loss {loss * 100:4.1f}%, "
              f"groups complete {receiver.groups_complete()}/{config.n_groups}, "
              f"data packets received {receiver.data_received}")
    assert protocol.all_complete(), "every receiver should hold every group"
    print("all receivers reconstructed the full stream.")


if __name__ == "__main__":
    main()
