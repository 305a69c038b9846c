"""Store-and-forward relay agents speaking a length-prefixed frame protocol.

One agent per node.  Data frames travel only along topology edges; relays
forward frame-by-frame and pass the destination's acknowledgement back along
the chain, so a sender learns the arrival hop count or which relay broke.
Multicast is realized by a hub process that copies every frame to all agents
except the sender.

Frame wire format (big-endian):
    4 bytes  length of the rest (6 + payload size)
    2 bytes  src node id
    2 bytes  dst node id
    2 bytes  hop count, incremented per transmission (the hub is transparent)
    payload

Each frame is answered on the same connection with 4 bytes: status (0 =
delivered, 1 = relay failure) and a detail word (arrival hop count on success,
the unreachable node id on failure).  New connections open with a 2-byte hello
carrying the initiator's node id.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass

from bee.model import NetworkSolution
from bee.netvirt.topology import Topology, build_topology, route
from bee.workload import append_output, progress_at

FRAME_HEADER = struct.Struct(">IHHH")
RESPONSE = struct.Struct(">HH")
HELLO = struct.Struct(">H")

HUB_ID = 0xFFFE
STATUS_OK = 0
STATUS_RELAY_FAILED = 1

CONNECT_RETRY_SECONDS = 0.5
SOCKET_TIMEOUT = 10.0


class DeliveryError(RuntimeError):
    def __init__(self, relay: int):
        super().__init__(f"delivery failed at relay {relay}")
        self.relay = relay


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        piece = sock.recv(n - got)
        if not piece:
            raise EOFError("peer closed connection")
        chunks.append(piece)
        got += len(piece)
    return b"".join(chunks)


def pack_frame(src: int, dst: int, hop_count: int, payload: bytes) -> bytes:
    return FRAME_HEADER.pack(6 + len(payload), src, dst, hop_count) + payload


def read_frame(sock: socket.socket) -> tuple[int, int, int, bytes]:
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    body = _recv_exact(sock, length)
    src, dst, hop = struct.unpack(">HHH", body[:6])
    return src, dst, hop, body[6:]


@dataclass
class _WorkState:
    app_name: str = ""
    rate: float = 0.0
    work_total: float = 0.0
    base: float = 0.0
    started_at: float | None = None
    paused_at: float | None = None
    paused_total: float = 0.0
    volume: bytes = b""

    def active_seconds(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.paused_at if self.paused_at is not None else time.monotonic()
        return max(0.0, end - self.started_at - self.paused_total)

    def progress(self) -> float:
        remaining = max(0.0, self.work_total - self.base)
        return self.base + progress_at(self.rate, self.active_seconds(), remaining)


class _PeerLink:
    """One outgoing connection with request/response framing.

    Only the link's first connect waits out CONNECT_RETRY_SECONDS, for a peer
    that is still starting. After that, every request to a dead peer makes one
    connect attempt and fails at once, so a restarted peer is reached again on
    the next request.
    """

    def __init__(self, my_id: int, peer_id: int, addr: tuple[str, int]):
        self.my_id = my_id
        self.peer_id = peer_id
        self.addr = addr
        self.sock: socket.socket | None = None
        self.lock = threading.Lock()
        self.settled = False  # connected once, or spent the startup window

    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + (0.0 if self.settled else CONNECT_RETRY_SECONDS)
        self.settled = True
        while True:
            try:
                sock = socket.create_connection(self.addr, timeout=SOCKET_TIMEOUT)
                sock.settimeout(SOCKET_TIMEOUT)
                sock.sendall(HELLO.pack(self.my_id))
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def _exchange(self, frame: bytes) -> tuple[int, int]:
        self.sock.sendall(frame)
        return RESPONSE.unpack(_recv_exact(self.sock, 4))

    def request(self, frame: bytes) -> tuple[int, int]:
        with self.lock:
            if self.sock is not None:
                try:
                    return self._exchange(frame)
                except (OSError, EOFError):
                    self._drop()  # stale: the peer died or restarted; reconnect once
            try:
                self.sock = self._connect()
                return self._exchange(frame)
            except (OSError, EOFError) as exc:
                self._drop()
                raise ConnectionError(f"cannot reach node {self.peer_id}: {exc}") from None

    def _drop(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def close(self) -> None:
        with self.lock:
            self._drop()


class Agent:
    """One overlay node: frame plane, control plane, and the toy work loop."""

    def __init__(self, node_id: int, topo: Topology, bind_host: str = "127.0.0.1",
                 frame_port: int = 0, control_port: int = 0):
        self.node_id = node_id
        self.topo = topo
        self.is_hub = node_id == HUB_ID
        self.addrs: dict[int, tuple[str, int]] = {}
        self.hub_addr: tuple[str, int] | None = None
        self.links: dict[int, _PeerLink] = {}
        self.links_lock = threading.Lock()
        self.inbox: list[dict] = []
        self.received: dict[str, int] = {}
        self.counts_lock = threading.Lock()
        self.work = _WorkState()
        self.tags: dict[str, str] = {}
        self.stopping = threading.Event()
        self._accepted: set[socket.socket] = set()

        self.frame_server = socket.create_server((bind_host, frame_port))
        self.control_server = socket.create_server((bind_host, control_port))
        self.frame_port = self.frame_server.getsockname()[1]
        self.control_port = self.control_server.getsockname()[1]

    # -- wiring ------------------------------------------------------------

    def configure(self, addrs: dict[int, tuple[str, int]],
                  hub: tuple[str, int] | None) -> None:
        self.addrs = dict(addrs)
        self.hub_addr = hub

    def _link_to(self, peer: int) -> _PeerLink:
        with self.links_lock:
            link = self.links.get(peer)
            if link is None:
                addr = self.hub_addr if peer == HUB_ID else self.addrs.get(peer)
                if addr is None:
                    raise ConnectionError(f"no address for node {peer}")
                link = _PeerLink(self.node_id, peer, tuple(addr))
                self.links[peer] = link
        return link

    def _next_hop(self, dst: int) -> int:
        if self.topo.kind is NetworkSolution.MULTICAST:
            return HUB_ID
        path = route(self.topo, self.node_id, dst)
        return path[1]

    # -- sending -----------------------------------------------------------

    def send(self, dst: int, payload: bytes) -> int:
        """Deliver payload to dst; returns arrival hop count or raises DeliveryError."""
        if dst == self.node_id:
            self._deliver(self.node_id, 0, payload, from_peer=self.node_id)
            return 0
        nxt = self._next_hop(dst)
        status, detail = self._forward(nxt, pack_frame(self.node_id, dst, 1, payload))
        if status != STATUS_OK:
            raise DeliveryError(dst if detail == HUB_ID else detail)
        return detail

    def _forward(self, nxt: int, frame: bytes) -> tuple[int, int]:
        """Pass a frame to neighbour nxt; a broken link is answered as a relay failure."""
        try:
            return self._link_to(nxt).request(frame)
        except ConnectionError:
            return STATUS_RELAY_FAILED, nxt

    def _deliver(self, src: int, hop: int, payload: bytes, from_peer: int) -> None:
        with self.counts_lock:
            self.inbox.append({"src": src, "hop_count": hop,
                               "payload_hex": payload.hex()})

    def _count(self, from_peer: int) -> None:
        key = "hub" if from_peer == HUB_ID else str(from_peer)
        with self.counts_lock:
            self.received[key] = self.received.get(key, 0) + 1

    # -- frame plane ---------------------------------------------------------

    def _serve_frames(self) -> None:
        while not self.stopping.is_set():
            try:
                conn, _ = self.frame_server.accept()
            except OSError:
                return
            conn.settimeout(SOCKET_TIMEOUT)
            self._accepted.add(conn)
            threading.Thread(target=self._frame_conn, args=(conn,), daemon=True).start()

    def _frame_conn(self, conn: socket.socket) -> None:
        try:
            (peer_id,) = HELLO.unpack(_recv_exact(conn, 2))
            while not self.stopping.is_set():
                src, dst, hop, payload = read_frame(conn)
                if self.stopping.is_set():
                    return
                if self.is_hub:
                    status, detail = self._hub_fanout(src, dst, hop, payload)
                else:
                    status, detail = self._handle_frame(peer_id, src, dst, hop, payload)
                conn.sendall(RESPONSE.pack(status, detail))
        except (EOFError, OSError):
            pass
        finally:
            self._accepted.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_frame(self, peer_id: int, src: int, dst: int, hop: int,
                      payload: bytes) -> tuple[int, int]:
        self._count(peer_id)
        if dst == self.node_id:
            self._deliver(src, hop, payload, from_peer=peer_id)
            return STATUS_OK, hop
        if self.topo.kind is NetworkSolution.MULTICAST:
            # every node sees every frame; only the addressee keeps it
            return STATUS_OK, hop
        return self._forward(self._next_hop(dst), pack_frame(src, dst, hop + 1, payload))

    def _hub_fanout(self, src: int, dst: int, hop: int, payload: bytes) -> tuple[int, int]:
        frame = pack_frame(src, dst, hop, payload)
        dst_status: tuple[int, int] | None = None
        for node in sorted(self.addrs):
            if node == src:
                continue
            # a dead subscriber never breaks delivery between the others
            status, detail = self._forward(node, frame)
            if node == dst:
                dst_status = (status, detail)
        if dst_status is None:
            return STATUS_RELAY_FAILED, dst
        return dst_status

    # -- control plane ---------------------------------------------------------

    def _serve_control(self) -> None:
        while not self.stopping.is_set():
            try:
                conn, _ = self.control_server.accept()
            except OSError:
                return
            threading.Thread(target=self._control_conn, args=(conn,), daemon=True).start()

    def _control_conn(self, conn: socket.socket) -> None:
        conn.settimeout(SOCKET_TIMEOUT)
        try:
            buf = conn.makefile("rwb")
            while not self.stopping.is_set():
                line = buf.readline()
                if not line:
                    return
                request = json.loads(line)
                reply = self._control(request)
                buf.write(json.dumps(reply, sort_keys=True).encode() + b"\n")
                buf.flush()
        except (OSError, ValueError, EOFError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _control(self, req: dict) -> dict:
        cmd = req.get("cmd")
        if cmd == "ping":
            return {"ok": True, "node": self.node_id}
        if cmd == "configure":
            addrs = {int(k): tuple(v) for k, v in req.get("addrs", {}).items()}
            hub = tuple(req["hub"]) if req.get("hub") else None
            self.configure(addrs, hub)
            return {"ok": True}
        if cmd == "send":
            try:
                hop = self.send(int(req["dst"]), bytes.fromhex(req.get("payload_hex", "")))
                return {"ok": True, "hop_count": hop}
            except DeliveryError as exc:
                return {"ok": False, "error": "relay_failed", "relay": exc.relay}
        if cmd == "recv":
            with self.counts_lock:
                messages, self.inbox = self.inbox, []
            return {"ok": True, "messages": messages}
        if cmd == "counts":
            with self.counts_lock:
                return {"ok": True, "received": dict(self.received)}
        if cmd == "status":
            with self.counts_lock:
                received = dict(self.received)
            return {"ok": True, "node": self.node_id, "progress": self.work.progress(),
                    "paused": self.work.paused_at is not None, "tags": dict(self.tags),
                    "received": received}
        if cmd == "exec":
            argv = req.get("argv", [])
            verb = argv[0] if argv else ""
            self.tags[verb] = " ".join(argv[1:])
            return {"ok": True, "argv": argv}
        if cmd == "app_start":
            self.work.app_name = req.get("name", "")
            self.work.rate = float(req.get("rate", 0.0))
            self.work.work_total = float(req.get("work_total", 0.0))
            self.work.base = float(req.get("base", 0.0))
            self.work.started_at = time.monotonic()
            return {"ok": True}
        if cmd == "pause":
            if self.work.paused_at is None:
                self.work.paused_at = time.monotonic()
            return {"ok": True}
        if cmd == "resume":
            if self.work.paused_at is not None:
                self.work.paused_total += time.monotonic() - self.work.paused_at
                self.work.paused_at = None
            return {"ok": True}
        if cmd == "put_volume":
            self.work.volume = base64.b64decode(req.get("data_b64", ""))
            return {"ok": True, "nbytes": len(self.work.volume)}
        if cmd == "fetch_volume":
            content = append_output(self.work.app_name, self.work.volume,
                                    self.work.base, self.work.progress())
            return {"ok": True, "data_b64": base64.b64encode(content).decode()}
        if cmd == "stop":
            self.stopping.set()
            threading.Thread(target=self.close, daemon=True).start()
            return {"ok": True}
        return {"ok": False, "error": f"unknown command {cmd!r}"}

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        threading.Thread(target=self._serve_frames, daemon=True).start()
        threading.Thread(target=self._serve_control, daemon=True).start()

    def close(self) -> None:
        self.stopping.set()
        for server in (self.frame_server, self.control_server):
            try:
                server.close()
            except OSError:
                pass
        for conn in list(self._accepted):
            try:
                conn.close()
            except OSError:
                pass
        with self.links_lock:
            for link in self.links.values():
                link.close()

    def run_forever(self) -> None:
        self.start()
        parent = os.getppid()
        while not self.stopping.is_set():
            time.sleep(0.05)
            # exit if the spawning process is gone (reparented to init)
            if os.getppid() != parent:
                self.close()
                return


# ---------------------------------------------------------------------------
# control-plane client


class AgentClient:
    """Blocking JSON-lines client for one agent's control socket."""

    def __init__(self, addr: tuple[str, int], timeout: float = SOCKET_TIMEOUT):
        self.sock = socket.create_connection(addr, timeout=timeout)
        self.sock.settimeout(timeout)
        self.buf = self.sock.makefile("rwb")

    def call(self, **req) -> dict:
        self.buf.write(json.dumps(req, sort_keys=True).encode() + b"\n")
        self.buf.flush()
        line = self.buf.readline()
        if not line:
            raise ConnectionError("agent closed control connection")
        return json.loads(line)

    def send(self, dst: int, payload: bytes) -> int:
        reply = self.call(cmd="send", dst=dst, payload_hex=payload.hex())
        if not reply.get("ok"):
            raise DeliveryError(int(reply.get("relay", -1)))
        return int(reply["hop_count"])

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# process entry point


def _load_topo(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return build_topology(NetworkSolution(doc["kind"]), int(doc["n"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bee-agent",
                                     description="run one overlay relay agent")
    parser.add_argument("--node", type=int, help="node id (omit with --hub)")
    parser.add_argument("--hub", action="store_true", help="run the multicast hub")
    parser.add_argument("--topo", required=True, help="topology descriptor JSON file")
    parser.add_argument("--addrs", help="static listen/connect address map JSON file")
    parser.add_argument("--bind", default="127.0.0.1")
    parser.add_argument("--frame-port", type=int, default=0)
    parser.add_argument("--control-port", type=int, default=0)
    parser.add_argument("--portfile", help="write bound ports to this JSON file")
    args = parser.parse_args(argv)

    node_id = HUB_ID if args.hub else args.node
    if node_id is None:
        parser.error("--node or --hub is required")

    topo = _load_topo(args.topo)

    agent = Agent(node_id, topo, bind_host=args.bind, frame_port=args.frame_port,
                  control_port=args.control_port)
    if args.addrs:
        with open(args.addrs, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        addrs = {int(k): tuple(v) for k, v in doc.get("nodes", {}).items()}
        hub = tuple(doc["hub"]) if doc.get("hub") else None
        agent.configure(addrs, hub)
    if args.portfile:
        ports = {"node": "hub" if args.hub else node_id,
                 "frame_port": agent.frame_port, "control_port": agent.control_port}
        with open(args.portfile, "w", encoding="utf-8") as fh:
            json.dump(ports, fh)
    agent.run_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
