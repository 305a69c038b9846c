"""Spawn and wire a set of relay-agent OS processes for one overlay.

The fleet is the overlay's control plane: it computes every agent's next-hop
table from the topology and pushes it with the address map, so the agents
themselves carry no routing code.  Its sends take the frame plane: one
ORIGIN_ID link per source node, opened on first use, writes hop-0 frames to
that agent's frame port.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bee.model import NetworkSolution
from bee.netvirt.agent import HUB_ID, ORIGIN_ID, AgentClient, PeerLink, send
from bee.netvirt.topology import Topology, build_topology, route

SPAWN_TIMEOUT = 15.0


class FleetError(RuntimeError):
    pass


def next_hop_table(topo: Topology, node: int) -> dict[int, int]:
    """The neighbour `node` passes each other destination's frames to.

    Under multicast every frame goes to the hub; otherwise it is the second
    node of the topology's route.
    """
    if topo.kind is NetworkSolution.MULTICAST:
        return {dst: HUB_ID for dst in range(topo.n) if dst != node}
    return {dst: route(topo, node, dst)[1] for dst in range(topo.n) if dst != node}


def agent_command(args: list[str]) -> list[str]:
    """The command line that starts one relay agent with the agent options `args`.

    -S: an agent needs only the standard library and bee, which PYTHONPATH
    provides, so the site-packages start-up is skipped.  -c calls main()
    directly, where -m would first load runpy.
    """
    return [sys.executable, "-S", "-c",
            "from bee.netvirt.agent import main; main()", *args]


def _package_pythonpath() -> str:
    import bee

    src_dir = str(Path(bee.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src_dir}{os.pathsep}{existing}" if existing else src_dir


class AgentFleet:
    """One agent process per node, plus a hub process for multicast."""

    def __init__(self, kind: NetworkSolution, n: int, workdir: str | Path,
                 bind: str = "127.0.0.1"):
        self.kind = kind
        self.n = n
        self.workdir = Path(workdir)
        self.bind = bind
        self.procs: dict[int, subprocess.Popen] = {}
        self.hub_proc: subprocess.Popen | None = None
        self.ports: dict[int, dict] = {}
        self.hub_ports: dict | None = None
        self._clients: dict[int, AgentClient] = {}
        self._origins: dict[int, PeerLink] = {}
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._env = dict(os.environ, PYTHONPATH=_package_pythonpath())

    # -- spawning ------------------------------------------------------------

    def _spawn(self, args: list[str], portfile: Path) -> subprocess.Popen:
        if portfile.exists():
            portfile.unlink()
        cmd = agent_command(["--bind", self.bind, "--portfile", str(portfile), *args])
        return subprocess.Popen(cmd, env=self._env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def spawn_node(self, node: int) -> None:
        if node in self.procs:
            raise FleetError(f"node {node} already spawned")
        portfile = self.workdir / f"ports-{node}.json"
        self.procs[node] = self._spawn(["--node", str(node)], portfile)

    def spawn_hub(self) -> None:
        portfile = self.workdir / "ports-hub.json"
        self.hub_proc = self._spawn(["--hub"], portfile)

    def spawn_all(self) -> None:
        for node in range(self.n):
            self.spawn_node(node)
        if self.kind is NetworkSolution.MULTICAST:
            self.spawn_hub()

    def _read_ports(self, name: str) -> dict:
        portfile = self.workdir / name
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if portfile.exists():
                try:
                    return json.loads(portfile.read_text(encoding="utf-8"))
                except (ValueError, OSError):
                    pass
            time.sleep(0.02)
        raise FleetError(f"agent did not report ports in {name}")

    def wire(self) -> None:
        """Collect ports from every process; send each its addresses and routes."""
        for node in self.procs:
            self.ports[node] = self._read_ports(f"ports-{node}.json")
        if self.hub_proc is not None:
            self.hub_ports = self._read_ports("ports-hub.json")
        addrs = {str(node): [self.bind, self.ports[node]["frame_port"]]
                 for node in self.procs}
        hub = [self.bind, self.hub_ports["frame_port"]] if self.hub_ports else None
        topo = build_topology(self.kind, self.n)
        for node in self.procs:
            self.client(node).call(cmd="configure", addrs=addrs, hub=hub,
                                   next_hop=next_hop_table(topo, node))
        if self.hub_ports is not None:
            hub_client = AgentClient((self.bind, self.hub_ports["control_port"]))
            hub_client.call(cmd="configure", addrs=addrs, hub=None)
            hub_client.close()

    def start(self) -> None:
        self.spawn_all()
        self.wire()

    # -- control -------------------------------------------------------------

    def control_addr(self, node: int) -> tuple[str, int]:
        return (self.bind, self.ports[node]["control_port"])

    def client(self, node: int) -> AgentClient:
        client = self._clients.get(node)
        if client is None:
            client = AgentClient(self.control_addr(node))
            self._clients[node] = client
        return client

    def send(self, src: int, dst: int, payload: bytes) -> int:
        link = self._origins.get(src)
        if link is None:
            link = PeerLink(ORIGIN_ID, src, (self.bind, self.ports[src]["frame_port"]))
            self._origins[src] = link
        return send(link, src, dst, payload)

    def counts(self, node: int) -> dict[str, int]:
        return self.client(node).call(cmd="status")["received"]

    def alive(self, node: int) -> bool:
        proc = self.procs.get(node)
        return proc is not None and proc.poll() is None

    # -- fault injection and teardown ------------------------------------------

    def kill(self, node: int) -> None:
        proc = self.procs[node]
        proc.kill()
        proc.wait(timeout=5)
        for conn in (self._clients.pop(node, None), self._origins.pop(node, None)):
            if conn is not None:
                conn.close()

    def request_stop(self, node: int) -> None:
        """Ask one agent to exit, without waiting for it; stop() reaps it."""
        client = self._clients.pop(node, None)
        if client is None:
            return
        try:
            client.call(cmd="stop")
        except (OSError, ConnectionError):
            pass
        client.close()

    def stop(self) -> None:
        """Ask every connected agent to exit, then reap all processes together.

        An agent that has answered `stop` has nothing left to do, so one still
        running is terminated rather than waited for; one that outlives the
        terminate is killed.
        """
        for link in self._origins.values():
            link.close()
        self._origins.clear()
        for node in list(self._clients):
            self.request_stop(node)
        procs = list(self.procs.values()) + ([self.hub_proc] if self.hub_proc else [])
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self.procs.clear()
        self.hub_proc = None

    def __enter__(self) -> "AgentFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
