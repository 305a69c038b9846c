"""Run real relay agents: one OS process per node, frames over TCP sockets.

Builds a 7-node binary-tree overlay, routes a few messages through real
relays, then kills an interior node and shows which pairs break, and finally
contrasts that with the multicast hub where losing a subscriber hurts no one
else.
"""

import tempfile

from bee.model import NetworkSolution
from bee.netvirt.agent import DeliveryError
from bee.netvirt.fleet import AgentFleet
from bee.netvirt.topology import build_topology, route

with tempfile.TemporaryDirectory(prefix="bee-agents-") as workdir:
    topo = build_topology(NetworkSolution.P2P_TREE, 7)

    print("spawning 7 tree agents (one process per node)...")
    with AgentFleet(NetworkSolution.P2P_TREE, 7, workdir + "/tree") as fleet:
        for src, dst in ((3, 4), (3, 5), (0, 6)):
            hops = fleet.send(src, dst, f"msg {src}->{dst}".encode())
            path = " -> ".join(map(str, route(topo, src, dst)))
            print(f"  {src} -> {dst}: delivered over {path} ({hops} hops)")

        print("killing interior node 1 (parent of 3 and 4)...")
        fleet.kill(1)
        for src, dst in ((3, 4), (5, 6), (2, 6)):
            try:
                hops = fleet.send(src, dst, b"after-kill")
                print(f"  {src} -> {dst}: still delivered ({hops} hops)")
            except DeliveryError as err:
                print(f"  {src} -> {dst}: broken at relay {err.relay}")

    print()
    print("spawning 5 multicast agents plus the hub...")
    with AgentFleet(NetworkSolution.MULTICAST, 5, workdir + "/mcast") as fleet:
        fleet.send(0, 4, b"hello everyone")
        counts = {node: fleet.counts(node) for node in range(1, 5)}
        print(f"  one send reached every other node: "
              f"{[counts[n].get('hub', 0) for n in range(1, 5)]} frames seen")
        print("killing node 3 (an ordinary subscriber)...")
        fleet.kill(3)
        hops = fleet.send(1, 2, b"unaffected")
        print(f"  1 -> 2 still delivered ({hops} hop): "
              "a lost subscriber never breaks the rest")
