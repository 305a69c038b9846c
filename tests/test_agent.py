import io
import json
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bee.model import NetworkSolution
from bee.netvirt.topology import build_topology, predict_link_frames
from bee.netvirt.agent import (
    HELLO,
    HUB_ID,
    ORIGIN_ID,
    RESPONSE,
    STATUS_OK,
    STATUS_RELAY_FAILED,
    Agent,
    AgentClient,
    DeliveryError,
    PeerLink,
    _recv_exact,
    pack_frame,
    read_frame,
    send,
)
from bee.netvirt.fleet import AgentFleet, _package_pythonpath, agent_command, next_hop_table

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
    agents = [Agent(i) for i in range(n)]
    addrs = {a.node_id: ("127.0.0.1", a.frame_port) for a in agents}
    hub = None
    if kind is MCAST:
        hub = Agent(HUB_ID)
        hub.configure(addrs, None)
        hub.start()
        for a in agents:
            a.configure({}, ("127.0.0.1", hub.frame_port), next_hop_table(topo, a.node_id))
            a.start()
    else:
        for a in agents:
            a.configure(addrs, None, next_hop_table(topo, a.node_id))
            a.start()
    return agents, hub


class _Overlay:
    def __init__(self, kind, n):
        self.agents, self.hub = _spawn_agents(kind, n)
        self.clients = {}
        self.origins = {}
        self._delivered = {a.node_id: [] for a in self.agents}
        for a in self.agents:
            a._handle_frame = self._spy(a)

    def _spy(self, agent):
        """agent._handle_frame, recording each frame addressed to the agent."""
        handle, seen = agent._handle_frame, self._delivered[agent.node_id]

        def handle_frame(peer_id, src, dst, hop, payload):
            if dst == agent.node_id:
                seen.append((src, hop, payload))
            return handle(peer_id, src, dst, hop, payload)
        return handle_frame

    def delivered(self, i) -> list:
        """(src, hop count, payload) of each frame delivered to agent i, in order."""
        return self._delivered[i]

    def client(self, i) -> AgentClient:
        if i not in self.clients:
            self.clients[i] = AgentClient(("127.0.0.1", self.agents[i].control_port))
        return self.clients[i]

    def send(self, src, dst, payload) -> int:
        """Send as AgentFleet does: a hop-0 frame on an origin link to src's frame port."""
        if src not in self.origins:
            addr = ("127.0.0.1", self.agents[src].frame_port)
            self.origins[src] = PeerLink(ORIGIN_ID, src, addr)
        return send(self.origins[src], src, dst, payload)

    def received(self, i) -> dict:
        return self.client(i).call(cmd="status")["received"]

    def close(self):
        for link in self.origins.values():
            link.close()
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
        assert o.send(1, 3, b"m") == 2
        assert o.delivered(3) == [(1, 2, b"m")]

    def test_center_adjacent_single_hop(self, overlay):
        o = overlay(STAR, 4)
        assert o.send(0, 2, b"m") == 1

    def test_tree_cross_root_hops(self, overlay):
        o = overlay(TREE, 7)
        assert o.send(3, 5, b"m") == 4  # 3-1-0-2-5

    def test_send_to_self_is_local(self, overlay):
        o = overlay(TREE, 3)
        assert o.send(1, 1, b"m") == 0
        assert o.delivered(1)[0][1] == 0

    def test_multicast_everyone_sees_frame_dst_keeps_it(self, overlay):
        o = overlay(MCAST, 4)
        assert o.send(1, 2, b"m") == 1
        assert o.delivered(2)[0][0] == 1
        assert o.delivered(3) == []
        assert o.received(3) == {"hub": 1}

    def test_per_pair_fifo_on_connection_chain(self, overlay):
        o = overlay(STAR, 4)
        for i in range(20):
            o.send(1, 3, bytes([i]))
        assert [payload[0] for _, _, payload in o.delivered(3)] == list(range(20))


class TestFaults:
    def test_tree_relay_kill_names_relay(self, overlay):
        o = overlay(TREE, 7)
        o.agents[1].close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError) as err:
            o.send(3, 4, b"m")
        assert err.value.relay == 1

    def test_multicast_survives_non_hub_kill(self, overlay):
        o = overlay(MCAST, 4)
        o.client(3)  # open control before killing
        o.agents[3].close()
        time.sleep(0.05)
        assert o.send(1, 2, b"m") == 1

    def test_multicast_hub_kill_breaks_everything(self, overlay):
        o = overlay(MCAST, 4)
        o.hub.close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError):
            o.send(1, 2, b"m")

    def test_star_leaf_kill_only_breaks_its_pairs(self, overlay):
        o = overlay(STAR, 5)
        o.agents[2].close()
        time.sleep(0.05)
        assert o.send(1, 3, b"m") == 2
        with pytest.raises(DeliveryError):
            o.send(1, 2, b"m")

    def test_repeat_send_through_dead_relay_fails_fast(self, overlay):
        o = overlay(TREE, 7)
        o.agents[1].close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError):
            o.send(5, 3, b"m")  # 5-2-0-1-3: relay 0 finds 1 dead
        t0 = time.monotonic()
        with pytest.raises(DeliveryError) as err:
            o.send(5, 3, b"m")
        assert time.monotonic() - t0 < 0.2
        assert err.value.relay == 1

    def test_restarted_peer_reachable_on_next_send(self, overlay):
        o = overlay(TREE, 7)
        old = o.agents[1]
        addrs = {a.node_id: ("127.0.0.1", a.frame_port) for a in o.agents}
        old.close()
        time.sleep(0.05)
        with pytest.raises(DeliveryError):
            o.send(3, 4, b"m")
        o.agents[1] = Agent(1, frame_port=old.frame_port)
        o.agents[1].configure(addrs, None, old.next_hop)
        o.agents[1].start()
        assert o.send(3, 4, b"m") == 2


class TestUnroutable:
    def test_send_without_next_hop_is_answered_and_the_link_stays(self, overlay):
        o = overlay(TREE, 3)
        with pytest.raises(DeliveryError) as err:
            o.send(0, 99, b"lost")
        assert err.value.relay == 99
        sock = o.origins[0].sock
        assert sock is not None
        assert o.send(0, 2, b"kept") == 1
        assert o.origins[0].sock is sock
        assert o.delivered(2) == [(0, 1, b"kept")]

    def test_relayed_frame_without_next_hop_is_answered_and_link_stays(self, overlay):
        import socket

        o = overlay(TREE, 3)
        with socket.create_connection(("127.0.0.1", o.agents[1].frame_port), timeout=5) as s:
            s.sendall(HELLO.pack(0))
            s.sendall(pack_frame(0, 99, 1, b"lost"))
            assert RESPONSE.unpack(_recv_exact(s, 4)) == (STATUS_RELAY_FAILED, 99)
            s.sendall(pack_frame(0, 1, 1, b"kept"))
            assert RESPONSE.unpack(_recv_exact(s, 4)) == (STATUS_OK, 1)
        assert o.delivered(1) == [(0, 1, b"kept")]


class TestOriginLink:
    def test_fleet_sends_make_no_control_calls(self, tmp_path, monkeypatch):
        calls = []
        call = AgentClient.call
        with AgentFleet(TREE, 3, tmp_path) as fleet:
            monkeypatch.setattr(AgentClient, "call",
                                lambda client, **req: calls.append(req) or call(client, **req))
            assert [fleet.send(1, dst, b"m") for dst in (0, 1, 2)] == [1, 0, 2]
            assert fleet.send(2, 1, b"m") == 2
            assert calls == []

    def test_idle_origin_link_reconnects_and_delivers_once(self, overlay, monkeypatch):
        import bee.netvirt.agent as agent_module

        monkeypatch.setattr(agent_module, "SOCKET_TIMEOUT", 0.3)
        o = overlay(STAR, 3)
        assert o.send(1, 2, b"first") == 2
        first = o.origins[1].sock
        time.sleep(0.8)  # the agents close idle frame connections after SOCKET_TIMEOUT
        assert o.send(1, 2, b"second") == 2
        assert o.origins[1].sock is not first
        assert o.delivered(2) == [(1, 2, b"first"), (1, 2, b"second")]
        # origin frames are the node's own sends: only relayed frames are counted
        assert [o.received(i) for i in range(3)] == [{"1": 2}, {}, {"0": 2}]


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
            o.send(s, d, bytes(size))
        topo = build_topology(kind, n)
        predicted = predict_link_frames(topo, trace)
        observed = {}
        for node in range(n):
            for peer, count in o.received(node).items():
                key = ("hub", node) if peer == "hub" else (int(peer), node)
                observed[key] = count
        assert observed == predicted


def _agent_env() -> dict:
    # no bytecode is written into src/, where a later run would start from it
    return {"PYTHONPATH": _package_pythonpath(), "PYTHONDONTWRITEBYTECODE": "1"}


def _run_standalone_cli(*args: str) -> subprocess.CompletedProcess:
    """README's standalone line: `python -S -m bee.netvirt.agent` with args."""
    return subprocess.run([sys.executable, "-S", "-m", "bee.netvirt.agent", *args],
                          env=_agent_env(), capture_output=True, text=True, timeout=30)


class TestAgentCli:
    def test_standalone_agents_with_static_address_map(self, tmp_path):
        """Drive the module entry point directly with a prewritten address map."""
        import socket as socket_mod

        def free_port():
            s = socket_mod.socket()
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
            s.close()
            return port

        ports = {i: (free_port(), free_port()) for i in range(3)}
        topo = build_topology(STAR, 3)
        for i in range(3):
            addr_map = {"nodes": {str(j): ["127.0.0.1", ports[j][0]] for j in range(3)},
                        "hub": None, "next_hop": next_hop_table(topo, i)}
            (tmp_path / f"addrs-{i}.json").write_text(json.dumps(addr_map))

        env = _agent_env()
        procs = []
        try:
            for i in range(3):
                procs.append(subprocess.Popen(
                    [sys.executable, "-S", "-m", "bee.netvirt.agent", "--node", str(i),
                     "--addrs", str(tmp_path / f"addrs-{i}.json"),
                     "--frame-port", str(ports[i][0]),
                     "--control-port", str(ports[i][1])],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    link = PeerLink(ORIGIN_ID, 1, ("127.0.0.1", ports[1][0]))
                    try:
                        hops = send(link, 1, 2, b"cli")
                    finally:
                        link.close()
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

    def test_help_prints_the_usage_on_stdout_and_exits_0(self):
        done = _run_standalone_cli("--help")
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("usage: bee-agent [-h] [--node NODE] [--hub]")
        for option in ("--node NODE", "--hub", "--addrs ADDRS", "--bind BIND",
                       "--frame-port FRAME_PORT", "--control-port CONTROL_PORT",
                       "--portfile PORTFILE"):
            assert f"\n  {option}" in done.stdout, option

    @pytest.mark.parametrize("args, error", [
        ((), "--node or --hub is required"),
        (("--node", "1", "--bogus"), "unrecognized argument: --bogus"),
        (("--hub", "--portfile"), "argument --portfile: expected one argument"),
        (("--node", "--hub"), "argument --node: expected one argument"),
        (("--node", "x"), "argument --node: invalid int value: 'x'"),
        (("--hub", "--frame-port", "1.5"), "argument --frame-port: invalid int value: '1.5'"),
        (("--hub", "--control-port=p"), "argument --control-port: invalid int value: 'p'"),
    ])
    def test_bad_input_exits_2_with_one_usage_error_line(self, args, error):
        done = _run_standalone_cli(*args)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"bee-agent: error: {error} (see --help)\n"


class TestControlSession:
    def test_idle_control_connection_stays_open(self, overlay, monkeypatch):
        import bee.netvirt.agent as agent_module

        monkeypatch.setattr(agent_module, "SOCKET_TIMEOUT", 0.2)
        o = overlay(STAR, 1)
        c = o.client(0)
        assert c.call(cmd="ping") == {"ok": True, "node": 0}
        time.sleep(0.5)  # idle for longer than the socket timeout
        assert c.call(cmd="ping") == {"ok": True, "node": 0}

    def test_malformed_requests_are_answered_and_the_session_survives(self, overlay):
        # "stop" ends the agent by design; a well-formed "configure" would
        # point its links at arbitrary hosts, so only malformed ones are sent
        c = overlay(TREE, 3).client(0)
        value = st.sampled_from([None, True, -1, 0, 1, 2.5, 1e308, "x", "zz", [], {}, [1]])
        cmd = st.sampled_from(["ping", "send", "recv", "counts", "status", "exec",
                               "app_start", "pause", "resume", "put_volume",
                               "fetch_volume", "nope", None, 7])
        fields = st.dictionaries(st.sampled_from(["dst", "payload_hex", "argv", "name", "rate",
                                                  "work_total", "base", "data_b64"]), value)
        argv = st.lists(st.sampled_from(["run", "x", "", 1, None, 2.5, []]), max_size=3)
        request = st.one_of(
            st.builds(lambda c_, f: json.dumps({"cmd": c_, **f}).encode(), cmd, fields),
            st.builds(lambda a: json.dumps({"cmd": "exec", "argv": a}).encode(), argv),
            st.sampled_from([json.dumps(r).encode() for r in (
                {"cmd": "configure", "addrs": {"x": ["127.0.0.1", 1]}},
                {"cmd": "configure", "addrs": []}, {"cmd": "configure", "hub": 5})]),
            value.map(lambda v: json.dumps(v).encode()),
            st.binary(max_size=20).filter(lambda b: b"\n" not in b))

        @settings(max_examples=60, deadline=None)
        @given(st.lists(request, min_size=1, max_size=4))
        @example([json.dumps({"cmd": "app_start", "rate": 1, "work_total": 1e308}).encode()])
        def check(lines):
            for line in lines:
                c.buf.write(line + b"\n")
                c.buf.flush()
                assert "ok" in json.loads(c.buf.readline())
                assert c.call(cmd="status")["ok"] is True
                assert c.call(cmd="ping") == {"ok": True, "node": 0}

        check()

    def test_app_start_with_unbounded_work_is_refused_and_status_stays_healthy(self,
                                                                                overlay):
        c = overlay(STAR, 1).client(0)
        assert c.call(cmd="app_start", rate=1, work_total=2.0) == {"ok": True}
        before = c.call(cmd="status")
        # 1e308 units would overflow progress() to infinity on every status
        reply = c.call(cmd="app_start", rate=1, work_total=1e308)
        assert reply["ok"] is False and reply["error"].startswith("work_total: ")
        status = c.call(cmd="status")
        assert status["ok"] is True and status["progress"] >= before["progress"]
        assert c.call(cmd="fetch_volume")["ok"] is True

    @pytest.mark.parametrize("fields,error", [
        ({"rate": True}, "rate: "),
        ({"rate": float("inf")}, "rate: "),
        ({"rate": -1}, "rate: "),
        ({"rate": 2.0 ** 34}, "rate: "),
        ({"rate": 1, "work_total": 10 ** 400}, "work_total: "),
        ({"rate": 1, "work_total": "5"}, "work_total: "),
        ({"rate": 1, "work_total": 5, "base": 6}, "base: "),
        ({"rate": 1, "work_total": 5, "base": -1}, "base: "),
    ])
    def test_app_start_numbers_are_bounded_and_the_field_named(self, overlay, fields, error):
        c = overlay(STAR, 1).client(0)
        reply = c.call(cmd="app_start", **fields)
        assert reply["ok"] is False and reply["error"].startswith(error)
        assert c.call(cmd="status")["ok"] is True

    def test_exec_with_non_string_argv_is_refused_and_status_stays_healthy(self, overlay):
        c = overlay(STAR, 1).client(0)
        for argv in ([1, "x"], "run x", [None], {"a": 1}):
            assert c.call(cmd="exec", argv=argv)["ok"] is False
        assert c.call(cmd="exec", argv=["run", "x"]) == {"ok": True, "argv": ["run", "x"]}
        status = c.call(cmd="status")
        assert status["ok"] is True and status["tags"] == {"run": "x"}


class TestStop:
    def test_stop_is_always_answered_then_the_agent_exits(self, tmp_path):
        for cycle in range(20):
            fleet = AgentFleet(TREE, 1, tmp_path / f"f{cycle}")
            try:
                fleet.start()
                proc = fleet.procs[0]
                assert fleet.client(0).call(cmd="stop") == {"ok": True}
                assert proc.wait(timeout=1.0) == 0  # raises if the agent is still running
            finally:
                fleet.stop()

    def test_an_agent_started_as_the_fleet_starts_it_exits_0_after_stop(self, tmp_path):
        portfile = tmp_path / "ports.json"
        proc = subprocess.Popen(agent_command(["--node", "0", "--portfile", str(portfile)]),
                                env=_agent_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while True:
                try:
                    ports = json.loads(portfile.read_text())
                    break
                except (OSError, ValueError):  # not written yet, or half written
                    assert proc.poll() is None and time.monotonic() < deadline, "no portfile"
                    time.sleep(0.01)
            client = AgentClient(("127.0.0.1", ports["control_port"]))
            try:
                assert client.call(cmd="stop") == {"ok": True}
            finally:
                client.close()
            _, stderr = proc.communicate(timeout=5)
            assert (proc.returncode, stderr) == (0, "")
        finally:
            proc.kill()
            proc.wait(timeout=5)


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
