"""Store-and-forward relay agents speaking a length-prefixed frame protocol.

One agent per node.  Data frames travel only along topology edges; relays
forward frame-by-frame and pass the destination's acknowledgement back along
the chain, so a sender learns the arrival hop count or which relay broke.
The destination acknowledges a frame and keeps no copy of its payload; an
agent only counts the frames it receives from each peer.
Multicast is realized by a hub process that copies every frame to all agents
except the sender.  A send enters at its source agent as a hop-0 frame on a
link whose hello is ORIGIN_ID (`send`); the control plane carries no payloads.

An agent knows no topology: it forwards by a next-hop table ({dst: neighbour})
that whoever wires the overlay computes and pushes in `configure`.  A frame
that arrives from the hub is delivered or dropped, never forwarded.  The
module imports only the standard library and `bee.workload`, so an agent
process can start with `python -S`; the fleet starts it with `-c` calling
`main()` (`bee.netvirt.fleet.agent_command`), which spares it `-m`'s
`runpy`.  The toy app's progress is a `bee.workload.AppRun` on the agent's
monotonic clock, the model the simulator runs on its logical one.  Before it
reports its ports it loads no more than it serves with:
`main` parses its options by hand rather than with argparse, and `base64`
(volume staging) and `hashlib` (volume output, through `bee.workload`) load
on the first control command that needs them.

Frame wire format (big-endian):
    4 bytes  length of the rest (6 + payload size)
    2 bytes  src node id
    2 bytes  dst node id
    2 bytes  hop count, incremented per transmission (the hub is transparent)
    payload

Each frame is answered on the same connection with 4 bytes: status (0 =
delivered, 1 = relay failure) and a detail word (arrival hop count on success,
the unreachable node id on failure).  New connections open with a 2-byte hello
carrying the initiator's node id, HUB_ID for the hub or ORIGIN_ID for a sender.
"""

from __future__ import annotations

import json
import math
import os
import socket
import struct
import sys
import threading
import time

from bee.workload import MAX_WORK, AppRun, append_output

FRAME_HEADER = struct.Struct(">IHHH")
RESPONSE = struct.Struct(">HH")
HELLO = struct.Struct(">H")

HUB_ID = 0xFFFE
ORIGIN_ID = 0xFFFD  # hello of a sender's link: its frames are the node's own sends
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


def _app_numbers(req: dict) -> tuple[float, float, float]:
    """app_start's rate, work_total and base, or ValueError naming the first bad field.

    Each is a finite number and never a bool, with 0 <= rate <= MAX_WORK and
    0 <= base <= work_total <= MAX_WORK, so progress() stays finite.
    """
    values = []
    for field in ("rate", "work_total", "base"):
        value = req.get(field, 0.0)
        try:
            finite = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"{field}: expected a finite number, got {value!r}")
        values.append(float(value))
    rate, work_total, base = values
    for field, value, high in (("rate", rate, MAX_WORK), ("work_total", work_total, MAX_WORK),
                               ("base", base, work_total)):
        if not 0.0 <= value <= high:
            raise ValueError(f"{field}: expected 0 to {high:g}, got {value:g}")
    return rate, work_total, base


class PeerLink:
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


def send(link: PeerLink, src: int, dst: int, payload: bytes) -> int:
    """Send payload from node src to dst over link, an ORIGIN_ID link to src.

    Returns the arrival hop count, or raises DeliveryError naming the relay
    that broke (dst itself when the multicast hub is unreachable).
    """
    status, detail = link.request(pack_frame(src, dst, 0, payload))
    if status != STATUS_OK:
        raise DeliveryError(dst if detail == HUB_ID else detail)
    return detail


class Agent:
    """One overlay node: frame plane, control plane, and the toy work loop."""

    def __init__(self, node_id: int, bind_host: str = "127.0.0.1",
                 frame_port: int = 0, control_port: int = 0):
        self.node_id = node_id
        self.is_hub = node_id == HUB_ID
        self.addrs: dict[int, tuple[str, int]] = {}
        self.hub_addr: tuple[str, int] | None = None
        self.next_hop: dict[int, int] = {}
        self.links: dict[int, PeerLink] = {}
        self.links_lock = threading.Lock()
        self.received: dict[str, int] = {}
        self.counts_lock = threading.Lock()
        self.app_name = ""
        self.app = AppRun()
        self.volume = b""
        self.tags: dict[str, str] = {}
        self.stopping = threading.Event()
        self._accepted: set[socket.socket] = set()

        self.frame_server = socket.create_server((bind_host, frame_port))
        self.control_server = socket.create_server((bind_host, control_port))
        self.frame_port = self.frame_server.getsockname()[1]
        self.control_port = self.control_server.getsockname()[1]

    # -- wiring ------------------------------------------------------------

    def configure(self, addrs: dict[int, tuple[str, int]], hub: tuple[str, int] | None,
                  next_hop: dict[int, int] | None = None) -> None:
        self.addrs = dict(addrs)
        self.hub_addr = hub
        self.next_hop = dict(next_hop or {})

    def _link_to(self, peer: int) -> PeerLink:
        with self.links_lock:
            link = self.links.get(peer)
            if link is None:
                addr = self.hub_addr if peer == HUB_ID else self.addrs.get(peer)
                if addr is None:
                    raise ConnectionError(f"no address for node {peer}")
                link = PeerLink(self.node_id, peer, tuple(addr))
                self.links[peer] = link
        return link

    # -- frame plane ---------------------------------------------------------

    def _forward(self, nxt: int, frame: bytes) -> tuple[int, int]:
        """Pass a frame to neighbour nxt; a broken link is answered as a relay failure."""
        try:
            return self._link_to(nxt).request(frame)
        except ConnectionError:
            return STATUS_RELAY_FAILED, nxt

    def _count(self, from_peer: int) -> None:
        key = "hub" if from_peer == HUB_ID else str(from_peer)
        with self.counts_lock:
            self.received[key] = self.received.get(key, 0) + 1

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
        if peer_id != ORIGIN_ID:  # the node's own sends are not received from a peer
            self._count(peer_id)
        if dst == self.node_id or peer_id == HUB_ID:
            # delivered, or seen: the hub shows every node every frame and
            # passes on only the addressee's answer
            return STATUS_OK, hop
        nxt = self.next_hop.get(dst)
        if nxt is None:
            return STATUS_RELAY_FAILED, dst
        return self._forward(nxt, pack_frame(src, dst, hop + 1, payload))

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
        # no read timeout: a control session may sit idle for a whole slot (a
        # worker node hears nothing between deploy and pause) and ends when
        # its client closes it or dies
        try:
            buf = conn.makefile("rwb")
            while not self.stopping.is_set():
                line = buf.readline()
                if not line:
                    return
                try:
                    request = json.loads(line)
                    if type(request) is not dict:
                        raise ValueError("a request is a JSON object")
                    reply = json.dumps(self._control(request), sort_keys=True)
                except Exception as exc:  # a malformed request is answered, not fatal
                    request = {}
                    reply = json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
                buf.write(reply.encode() + b"\n")
                buf.flush()
                if request.get("cmd") == "stop":
                    # only once the reply is out may the process exit
                    self.close()
                    return
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
            self.configure(*_wiring(req.get("addrs", {}), req.get("hub"),
                                    req.get("next_hop", {})))
            return {"ok": True}
        if cmd == "status":
            with self.counts_lock:
                received = dict(self.received)
            return {"ok": True, "node": self.node_id,
                    "progress": self.app.progress(time.monotonic()),
                    "paused": self.app.paused_at is not None, "tags": dict(self.tags),
                    "received": received}
        if cmd == "exec":
            argv = req.get("argv", [])
            if type(argv) is not list or not all(type(a) is str for a in argv):
                return {"ok": False, "error": "argv: expected a list of strings"}
            verb = argv[0] if argv else ""
            self.tags[verb] = " ".join(argv[1:])
            return {"ok": True, "argv": argv}
        if cmd == "app_start":
            try:
                rate, work_total, base = _app_numbers(req)
            except ValueError as exc:
                return {"ok": False, "error": str(exc)}
            self.app_name = req.get("name", "")
            self.app = AppRun(rate, work_total, base, started_at=time.monotonic())
            return {"ok": True}
        if cmd == "pause":
            self.app.pause(time.monotonic())
            return {"ok": True}
        if cmd == "resume":
            self.app.resume(time.monotonic())
            return {"ok": True}
        if cmd == "put_volume":
            import base64

            self.volume = base64.b64decode(req.get("data_b64", ""))
            return {"ok": True, "nbytes": len(self.volume)}
        if cmd == "fetch_volume":
            import base64

            content = append_output(self.app_name, self.volume, self.app.base,
                                    self.app.progress(time.monotonic()))
            return {"ok": True, "data_b64": base64.b64encode(content).decode()}
        if cmd == "stop":
            return {"ok": True}  # the control connection closes the agent after replying
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
        while not self.stopping.wait(0.05):
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

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# process entry point


def _wiring(addrs: dict, hub: list | None, next_hop: dict) -> tuple:
    """configure()'s arguments from their JSON form, which has string keys."""
    return ({int(k): tuple(v) for k, v in addrs.items()}, tuple(hub) if hub else None,
            {int(k): int(v) for k, v in next_hop.items()})


HELP = """\
usage: bee-agent [-h] [--node NODE] [--hub] [--addrs ADDRS] [--bind BIND]
                 [--frame-port FRAME_PORT] [--control-port CONTROL_PORT]
                 [--portfile PORTFILE]

run one overlay relay agent

options:
  -h, --help            show this help message and exit
  --node NODE           node id (omit with --hub)
  --hub                 run the multicast hub
  --addrs ADDRS         static address map and next-hop table JSON file
  --bind BIND
  --frame-port FRAME_PORT
  --control-port CONTROL_PORT
  --portfile PORTFILE   write bound ports to this JSON file
"""

# each option that takes a value, with its type; --hub and -h/--help take none
_VALUE_OPTIONS = {"--node": int, "--addrs": str, "--bind": str, "--frame-port": int,
                  "--control-port": int, "--portfile": str}


def _parse_args(argv: list[str]) -> dict:
    """The options in argv, by name without the dashes.

    A value follows its option as the next argument or after `=`.  As with
    argparse, --help exits 0 after printing the help, and bad input exits 2
    after one line on stderr.  argparse itself would add about 13 ms to every
    agent's start.
    """
    def fail(message: str):
        sys.stderr.write(f"bee-agent: error: {message} (see --help)\n")
        raise SystemExit(2)

    opts = {"node": None, "hub": False, "addrs": None, "bind": "127.0.0.1",
            "frame_port": 0, "control_port": 0, "portfile": None}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if name in ("-h", "--help") and not eq:
            sys.stdout.write(HELP)
            raise SystemExit(0)
        if name == "--hub" and not eq:
            opts["hub"] = True
            continue
        convert = _VALUE_OPTIONS.get(name)
        if convert is None:
            fail(f"unrecognized argument: {arg}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                fail(f"argument {name}: expected one argument")
        try:
            opts[name[2:].replace("-", "_")] = convert(value)
        except ValueError:
            fail(f"argument {name}: invalid int value: {value!r}")
    if opts["node"] is None and not opts["hub"]:
        fail("--node or --hub is required")
    return opts


def main(argv: list[str] | None = None) -> None:
    """Run one agent until it is stopped, then exit at once with status 0.

    The exit skips interpreter finalization, which would only tear down what
    the process's exit frees anyway.
    """
    opts = _parse_args(sys.argv[1:] if argv is None else argv)
    node_id = HUB_ID if opts["hub"] else opts["node"]
    agent = Agent(node_id, bind_host=opts["bind"], frame_port=opts["frame_port"],
                  control_port=opts["control_port"])
    if opts["addrs"]:
        with open(opts["addrs"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        agent.configure(*_wiring(doc.get("nodes", {}), doc.get("hub"), doc.get("next_hop", {})))
    if opts["portfile"]:
        ports = {"node": "hub" if opts["hub"] else node_id,
                 "frame_port": agent.frame_port, "control_port": agent.control_port}
        with open(opts["portfile"], "w", encoding="utf-8") as fh:
            json.dump(ports, fh)
    agent.run_forever()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
