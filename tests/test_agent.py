import io
import struct
import time

import pytest

from bee.model import NetworkSolution
from bee.netvirt.topology import build_topology, predict_link_frames
from bee.netvirt.agent import (
    HUB_ID,
    Agent,
    AgentClient,
    DeliveryError,
    pack_frame,
    read_frame,
)

STAR = NetworkSolution.P2P_STAR
TREE = NetworkSolution.P2P_TREE
MCAST = NetworkSolution.MULTICAST


class _FakeSock:
    def __init__(self, data: bytes):
        self._buf = io.BytesIO(data)

    def recv(self, n):
        return self._buf.read(n)


class TestFrameFormat:
    def test_layout_is_bit_exact(self):
        frame = pack_frame(src=1, dst=3, hop_count=2, payload=b"ab")
        assert frame == bytes([0, 0, 0, 8, 0, 1, 0, 3, 0, 2]) + b"ab"

    def test_round_trip(self):
        frame = pack_frame(7, 9, 4, b"payload")
        src, dst, hop, payload = read_frame(_FakeSock(frame))
        assert (src, dst, hop, payload) == (7, 9, 4, b"payload")

    def test_length_prefix_counts_header_and_payload(self):
        frame = pack_frame(0, 0, 0, b"xyz")
        (length,) = struct.unpack(">I", frame[:4])
        assert length == 6 + 3


def _spawn_agents(kind, n):
    topo = build_topology(kind, n)
    agents = [Agent(i, topo) for i in range(n)]
    addrs = {a.node_id: ("127.0.0.1", a.frame_port) for a in agents}
    hub = None
    if kind is MCAST:
        hub = Agent(HUB_ID, topo)
        hub.configure(addrs, None)
        hub.start()
        for a in agents:
            a.configure({}, ("127.0.0.1", hub.frame_port))
            a.start()
    else:
        for a in agents:
            a.configure(addrs, None)
            a.start()
    return agents, hub


class _Overlay:
    def __init__(self, kind, n):
        self.agents, self.hub = _spawn_agents(kind, n)
        self.clients = {}

    def client(self, i) -> AgentClient:
        if i not in self.clients:
            self.clients[i] = AgentClient(("127.0.0.1", self.agents[i].control_port))
        return self.clients[i]

    def close(self):
        for c in self.clients.values():
            c.close()
        for a in self.agents:
            a.close()
        if self.hub:
            self.hub.close()


@pytest.fixture
def overlay(request):
    built = []

    def factory(kind, n):
        o = _Overlay(kind, n)
        built.append(o)
        return o

    yield factory
    for o in built:
        o.close()


class TestDelivery:
    def test_star_hop_count_through_center(self, overlay):
        o = overlay(STAR, 4)
        assert o.client(1).send(3, b"m") == 2
        msgs = o.client(3).call(cmd="recv")["messages"]
        assert msgs == [{"src": 1, "hop_count": 2, "payload_hex": b"m".hex()}]

    def test_center_adjacent_single_hop(self, overlay):
        o = overlay(STAR, 4)
        assert o.client(0).send(2, b"m") == 1

    def test_tree_cross_root_hops(self, overlay):
        o = overlay(TREE, 7)
        assert o.client(3).send(5, b"m") == 4  # 3-1-0-2-5

    def test_send_to_self_is_local(self, overlay):
        o = overlay(TREE, 3)
        assert o.client(1).send(1, b"m") == 0
        assert o.client(1).call(cmd="recv")["messages"][0]["hop_count"] == 0

    def test_multicast_everyone_sees_frame_dst_keeps_it(self, overlay):
        o = overlay(MCAST, 4)
        assert o.client(1).send(2, b"m") == 1
        assert o.client(2).call(cmd="recv")["messages"][0]["src"] == 1
        assert o.client(3).call(cmd="recv")["messages"] == []
        assert o.client(3).call(cmd="counts")["received"] == {"hub": 1}

    def test_per_pair_fifo_on_connection_chain(self, overlay):
        o = overlay(STAR, 4)
        for i in range(20):
            o.client(1).send(3, bytes([i]))
        msgs = o.client(3).call(cmd="recv")["messages"]
        assert [bytes.fromhex(m["payload_hex"])[0] for m in msgs] == list(range(20))


class TestFaults:
    def test_tree_relay_kill_names_relay(self, overlay):
        o = overlay(TREE, 7)
        o.agents[1].close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError) as err:
            o.client(3).send(4, b"m")
        assert err.value.relay == 1

    def test_multicast_survives_non_hub_kill(self, overlay):
        o = overlay(MCAST, 4)
        o.client(3)  # open control before killing
        o.agents[3].close()
        time.sleep(0.05)
        assert o.client(1).send(2, b"m") == 1

    def test_multicast_hub_kill_breaks_everything(self, overlay):
        o = overlay(MCAST, 4)
        o.hub.close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError):
            o.client(1).send(2, b"m")

    def test_star_leaf_kill_only_breaks_its_pairs(self, overlay):
        o = overlay(STAR, 5)
        o.agents[2].close()
        time.sleep(0.05)
        assert o.client(1).send(3, b"m") == 2
        with pytest.raises(DeliveryError):
            o.client(1).send(2, b"m")

    def test_repeat_send_through_dead_relay_fails_fast(self, overlay):
        o = overlay(TREE, 7)
        o.agents[1].close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError):
            o.client(5).send(3, b"m")  # 5-2-0-1-3: relay 0 finds 1 dead
        t0 = time.monotonic()
        with pytest.raises(DeliveryError) as err:
            o.client(5).send(3, b"m")
        assert time.monotonic() - t0 < 0.2
        assert err.value.relay == 1

    def test_restarted_peer_reachable_on_next_send(self, overlay):
        o = overlay(TREE, 7)
        old = o.agents[1]
        addrs = {a.node_id: ("127.0.0.1", a.frame_port) for a in o.agents}
        old.close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError):
            o.client(3).send(4, b"m")
        o.agents[1] = Agent(1, old.topo, frame_port=old.frame_port)
        o.agents[1].configure(addrs, None)
        o.agents[1].start()
        assert o.client(3).send(4, b"m") == 2


class TestWireModelEquivalence:
    @pytest.mark.parametrize("kind", [STAR, TREE, MCAST])
    def test_observed_frames_match_prediction(self, overlay, kind):
        import random

        n = 6
        o = overlay(kind, n)
        rng = random.Random(13)
        trace = []
        for _ in range(60):
            s, d = rng.randrange(n), rng.randrange(n)
            if s != d:
                trace.append((s, d, 8))
        for s, d, size in trace:
            o.client(s).send(d, bytes(size))
        topo = build_topology(kind, n)
        predicted = predict_link_frames(topo, trace)
        observed = {}
        for node in range(n):
            for peer, count in o.client(node).call(cmd="counts")["received"].items():
                key = ("hub", node) if peer == "hub" else (int(peer), node)
                observed[key] = count
        assert observed == predicted


class TestAgentCli:
    def test_standalone_agents_with_static_address_map(self, tmp_path):
        """Drive the module entry point directly with a prewritten address map."""
        import json
        import socket as socket_mod
        import subprocess
        import sys

        from bee.netvirt.fleet import _package_pythonpath
        import os

        def free_port():
            s = socket_mod.socket()
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
            s.close()
            return port

        ports = {i: (free_port(), free_port()) for i in range(3)}
        (tmp_path / "topo.json").write_text(json.dumps({"kind": "p2p_star", "n": 3}))
        addr_map = {"nodes": {str(i): ["127.0.0.1", ports[i][0]] for i in range(3)},
                    "hub": None}
        (tmp_path / "addrs.json").write_text(json.dumps(addr_map))

        env = dict(os.environ, PYTHONPATH=_package_pythonpath())
        procs = []
        try:
            for i in range(3):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "bee.netvirt.agent", "--node", str(i),
                     "--topo", str(tmp_path / "topo.json"),
                     "--addrs", str(tmp_path / "addrs.json"),
                     "--frame-port", str(ports[i][0]),
                     "--control-port", str(ports[i][1])],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    client = AgentClient(("127.0.0.1", ports[1][1]))
                    try:
                        hops = client.send(2, b"cli")
                    finally:
                        client.close()
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                pytest.fail("agents never came up")
            assert hops == 2
        finally:
            for p in procs:
                p.kill()
                p.wait(timeout=5)


class TestWorkLoop:
    def test_progress_pause_resume(self, overlay):
        o = overlay(STAR, 1)
        c = o.client(0)
        c.call(cmd="put_volume", data_b64="")
        c.call(cmd="app_start", name="t", rate=100.0, work_total=50.0, base=0.0)
        time.sleep(0.15)
        c.call(cmd="pause")
        frozen = c.call(cmd="status")["progress"]
        assert frozen > 0.0
        time.sleep(0.1)
        assert c.call(cmd="status")["progress"] == frozen
        c.call(cmd="resume")
        time.sleep(0.6)
        assert c.call(cmd="status")["progress"] == 50.0

    def test_volume_content_tracks_progress(self, overlay):
        import base64

        from bee.workload import volume_content

        o = overlay(STAR, 1)
        c = o.client(0)
        c.call(cmd="put_volume", data_b64=base64.b64encode(b"seed").decode())
        c.call(cmd="app_start", name="t", rate=1000.0, work_total=8.0, base=0.0)
        time.sleep(0.2)
        fetched = base64.b64decode(c.call(cmd="fetch_volume")["data_b64"])
        assert fetched == volume_content("t", b"seed", 8.0)
