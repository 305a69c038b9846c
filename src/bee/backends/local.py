"""Local-process backend: one OS process per node instead of a VM.

Each node runs a relay agent over real sockets plus a toy work loop that
reports progress over its control socket.  The container layer is a tag on
the agent; time here is wall-clock, so drive it with small slot budgets.
An agent holds no volume bytes: the backend computes the volume from the
progress an agent reports, as every backend does (`Backend.fetch_volume`).

The monitor polls every `poll_interval`, and also once at the completion the
last reading predicts: an agent's app accrues linearly at the rate
`app_start` sent it, on the same monotonic clock, so `wait` ends at that
instant rather than a tick later.  A control request to a dead agent is a
`NodeFailure`, as a dead agent found by `progress` is.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path

from bee.model import AppSpec, ComputeSystem, HardwareConfig
from bee.storage import StoragePlan
from bee.netvirt.agent import AgentClient
from bee.netvirt.fleet import AgentFleet
from bee.workload import quantize_work
from bee.backends.base import VM_PROVISION_STEPS, Backend, NodeFailure, NodeRef, SimConfig


class LocalProcessBackend(Backend):
    name = "local"

    def __init__(self, system: ComputeSystem, cfg: SimConfig,
                 workdir: str | Path | None = None):
        super().__init__(system, cfg)
        self._t0 = time.monotonic()
        # a workdir made here is removed by close(); a caller's stays the caller's
        self._own_workdir = not workdir
        self.workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="bee-local-"))
        self.fleet: AgentFleet | None = None
        self._refs: dict[int, NodeRef] = {}
        self._done_at = math.inf  # when the last progress reading says the app finishes

    # -- clock ----------------------------------------------------------------

    def now(self) -> float:
        return time.monotonic() - self._t0

    def wait(self, seconds: float) -> None:
        seconds = min(seconds, self._done_at - self.now())
        if seconds > 0:
            time.sleep(seconds)

    def charge(self, seconds: float, action: str, host: str) -> None:
        # modeled cost only; wall time is already real here
        self.log.append(self.now(), action, host, stage=self.stage, seconds=seconds)

    # -- cluster lifecycle -------------------------------------------------------

    def begin_cluster(self, cname: str, app: AppSpec, hardware: HardwareConfig,
                      plan: StoragePlan) -> None:
        super().begin_cluster(cname, app, hardware, plan)
        self._refs.clear()
        self._done_at = math.inf
        self.fleet = AgentFleet(hardware.network_solution, app.process_count,
                                self.workdir / cname)

    def _client(self, ref: NodeRef) -> AgentClient:
        assert self.fleet is not None
        return self.fleet.client(ref.node_index)

    def _node_failure(self, ref: NodeRef, cmd: str, cause: str) -> NodeFailure:
        self.log.append(self.now(), "node_failure", ref.host_id, stage=self.stage, ok=False)
        return NodeFailure(ref.host_id, cmd, cause)

    def _call(self, ref: NodeRef, **req) -> dict:
        """One control request to ref's agent; an agent that cannot answer has failed."""
        try:
            return self._client(ref).call(**req)
        except OSError as exc:
            raise self._node_failure(ref, req["cmd"], str(exc) or type(exc).__name__) from exc

    def provision(self, host: str, index: int) -> NodeRef:
        assert self.fleet is not None
        self._op("create_vm", host)
        self.fleet.spawn_node(index)
        for action in (*VM_PROVISION_STEPS, "register_vm"):
            self.log.append(self.now(), action, host, stage=self.stage, index=index)
        ref = NodeRef(host_id=host, node_index=index)
        self._refs[index] = ref
        return ref

    def start_all(self, refs: list[NodeRef]) -> None:
        assert self.fleet is not None
        if self.fleet.kind.value == "multicast":
            self.fleet.spawn_hub()
        self.fleet.wire()
        for ref in refs:
            self.log.append(self.now(), "start_vm", ref.host_id, stage=self.stage,
                            index=ref.node_index)

    def exec(self, ref: NodeRef, argv: list[str]) -> None:
        verb = argv[0] if argv else ""
        self._op(verb, ref.host_id)
        if verb == "app_start":
            self._call(ref, cmd="app_start", rate=self.app_rate(),
                       work_total=self.spec.work_total, base=self.progress_base)
        else:
            self._call(ref, cmd="exec", argv=argv)
        self.log.append(self.now(), verb or "exec", ref.host_id, stage=self.stage)

    def progress(self, ref: NodeRef) -> float:
        assert self.fleet is not None
        if self._due_fault("run", ref.host_id) is not None:
            self.fleet.kill(ref.node_index)
        if not self.fleet.alive(ref.node_index):
            raise self._node_failure(ref, "run", "agent process died")
        reply = self._call(ref, cmd="status")
        progress = float(reply["progress"])
        rate = self.app_rate()
        left = quantize_work(self.spec.work_total) - progress
        running = not reply.get("paused") and rate > 0 and left > 0
        self._done_at = self.now() + left / rate if running else math.inf
        return progress

    def pause(self, ref: NodeRef) -> None:
        self._done_at = math.inf
        self._call(ref, cmd="pause")
        self.log.append(self.now(), "pause", ref.host_id, stage=self.stage)

    def resume(self, ref: NodeRef) -> None:
        self._call(ref, cmd="resume")
        self.log.append(self.now(), "resume", ref.host_id, stage=self.stage)

    def stop(self, ref: NodeRef) -> None:
        assert self.fleet is not None
        self.fleet.request_stop(ref.node_index)
        self._refs.pop(ref.node_index, None)
        self.log.append(self.now(), "stop", ref.host_id, stage=self.stage,
                        index=ref.node_index)
        if not self._refs:
            # the last node of the cluster: reap every agent process at once
            self.fleet.stop()

    def abort_cluster(self) -> None:
        self._refs.clear()
        if self.fleet is not None:
            self.fleet.stop()

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
