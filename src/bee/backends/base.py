"""Backend contract shared by the simulators and the local-process runtime.

A backend owns a clock, an ordered event log, and the node handles of one
virtual cluster at a time.  The deployment and orchestration layers only talk
through this interface, so they run unchanged on any implementation; its
abstract methods are exactly the ones `bee.cluster` and `bee.orchestrator`
call.  How the app's progress accrues across pauses is `bee.workload.AppRun`,
which the simulator runs on its logical clock and each relay agent on its own.
The volume the app leaves depends only on the staged volume, the app's name
and its progress, so `fetch_volume` computes it here for every backend and
no agent ever holds volume bytes.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any

from bee.model import (
    AppSpec,
    HardwareConfig,
    NetworkSolution,
    ComputeSystem,
)
from bee.storage import Chain, StoragePlan
from bee.workload import append_output

SIM_HPC = "sim-hpc"
SIM_CLOUD_AWS = "sim-cloud-aws"
SIM_CLOUD_BAREMETAL = "sim-cloud-baremetal"
LOCAL = "local"

BACKEND_KINDS = (SIM_HPC, SIM_CLOUD_AWS, SIM_CLOUD_BAREMETAL, LOCAL)

# The steps that provision one VM, each logged per host; "register_vm" follows.
VM_PROVISION_STEPS = ("create_vm", "create_img", "configure", "setup_shared_vol",
                      "setup_network")

# Measured virtualization cost: two virtualization layers lose about 9% of
# compute throughput, roughly independent of core count.
DEFAULT_CPU_OVERHEAD = 0.09

ALL_TOPOLOGIES = frozenset((NetworkSolution.MULTICAST, NetworkSolution.P2P_STAR,
                            NetworkSolution.P2P_TREE))

# One row per backend kind: VM layer, shared filesystem (None: the system's
# host_file_sharing), overlay topologies, default CPU overhead.  The clouds
# ride the provider's flat subnet and shared filesystem, so they build no
# overlay; bare metal runs containers straight on the hosts, with no VM layer
# and no virtualization penalty.
CAPABILITIES: dict[str, tuple[bool, bool | None, frozenset[NetworkSolution], float]] = {
    SIM_HPC: (True, None, ALL_TOPOLOGIES, DEFAULT_CPU_OVERHEAD),
    SIM_CLOUD_AWS: (True, True, frozenset(), DEFAULT_CPU_OVERHEAD),
    SIM_CLOUD_BAREMETAL: (False, True, frozenset(), 0.0),
    LOCAL: (True, None, ALL_TOPOLOGIES, DEFAULT_CPU_OVERHEAD),
}


class BackendOpError(RuntimeError):
    """Structured backend failure: which host, which operation, and why."""

    def __init__(self, host: str, op: str, cause: str):
        super().__init__(f"{op} failed on host {host}: {cause}")
        self.host = host
        self.op = op
        self.cause = cause


class NodeFailure(BackendOpError):
    """A node died while the application was running."""


@dataclass(frozen=True)
class BackendCapability:
    has_vm_layer: bool
    native_shared_fs: bool
    topology_choices: frozenset[NetworkSolution]
    cpu_overhead_fraction: float


@dataclass(frozen=True)
class SimEvent:
    t: float
    kind: str
    node: str
    detail: dict

    def as_record(self) -> dict:
        return {
            "t": self.t,
            "stage": self.detail.get("stage", "backend"),
            "host": self.node,
            "action": self.kind,
            "ok": bool(self.detail.get("ok", True)),
        }


class EventLog:
    """Append-only, time-ordered log of backend events."""

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def append(self, t: float, kind: str, node: str, *, stage: str = "backend",
               ok: bool = True, **extra: Any) -> None:
        detail = {"stage": stage, "ok": ok}
        detail.update(extra)
        self.events.append(SimEvent(t=t, kind=kind, node=node, detail=detail))

    def records(self) -> list[dict]:
        return [ev.as_record() for ev in self.events]


@dataclass
class SimConfig:
    """Backend selection plus the calibration constants of the simulated models."""

    backend: str = SIM_HPC
    seed: int = 0
    cpu_overhead_fraction: float | None = None  # None = backend default
    hop_latency_ms: float = 1.0
    poll_interval: float = 1.0
    nfs_cap: float = 125.0
    image_size_mb: float = 200.0
    docker_build_seconds: float = 3.0
    image_step_seconds: float = 1.0
    boot_seconds: float = 2.0
    provision_step_seconds: float = 0.25
    provision_jitter: float = 0.1
    message_bytes: int = 65536
    messages_per_process: int = 50

    def violations(self) -> list[str]:
        """Fields outside their range, as "field: rule, got value"; empty means valid.

        Every number but the seed lies in [0, 1e9]: far above any calibrated
        value, and small enough that adding durations up leaves the simulated
        clock exact, so it always advances.
        """
        out = [f"{name}: in [0, 1e9], got {value}" for name, value in vars(self).items()
               if name != "seed" and type(value) in (int, float) and not 0 <= value <= 1e9]
        if self.poll_interval == 0:
            out.append("poll_interval: > 0, got 0")
        if (self.cpu_overhead_fraction or 0) >= 1:
            out.append(f"cpu_overhead_fraction: < 1, got {self.cpu_overhead_fraction}")
        return out


def sim_compute(work: float, cores: int, cpu_rate: float,
                overhead_fraction: float = DEFAULT_CPU_OVERHEAD) -> float:
    """Seconds to finish `work` units on `cores` cores at `cpu_rate` units/s/core.

    The virtualization overhead scales the throughput, so the relative wall-time
    penalty is the same at any core count.
    """
    if work < 0:
        raise ValueError("work must be non-negative")
    if cores < 1:
        raise ValueError("need at least one core")
    if not (0.0 <= overhead_fraction < 1.0):
        raise ValueError("overhead fraction must be in [0, 1)")
    if work == 0:
        return 0.0
    return work / (cores * cpu_rate * (1.0 - overhead_fraction))


@dataclass(frozen=True)
class NodeRef:
    """Backend-side handle for one provisioned node."""

    host_id: str
    node_index: int


@dataclass
class FaultRule:
    action: str
    host: str | None = None
    error: str = "injected fault"
    at_time: float | None = None
    remaining: int = 1

    def matches(self, action: str, host: str) -> bool:
        if self.remaining == 0:
            return False
        if self.action != action:
            return False
        return self.host is None or self.host == host


class Backend(abc.ABC):
    """Driver for one compute system; one active cluster at a time."""

    name: str  # the backend kind: its row in CAPABILITIES

    def __init__(self, system: ComputeSystem, cfg: SimConfig):
        self.system = system
        self.cfg = cfg
        self.log = EventLog()
        self.stage = "backend"  # the pipeline stage its events are logged under
        self._faults: list[FaultRule] = []
        self.staged_volume = Chain()  # the data volume the app starts from
        self.progress_base = 0.0  # the progress that volume holds
        # the app and hardware of the cluster begin_cluster last began
        self.spec: AppSpec | None = None
        self.hardware: HardwareConfig | None = None

    # -- bookkeeping ------------------------------------------------------

    def inject_fault(self, action: str, host: str | None = None,
                     error: str = "injected fault", at_time: float | None = None,
                     times: int = 1) -> None:
        self._faults.append(FaultRule(action=action, host=host, error=error,
                                      at_time=at_time, remaining=times))

    def take_fault(self, action: str, host: str) -> FaultRule | None:
        for rule in self._faults:
            if rule.matches(action, host) and rule.at_time is None:
                rule.remaining -= 1
                return rule
        return None

    def _pending_timed_fault(self, action: str, host: str) -> FaultRule | None:
        for rule in self._faults:
            if rule.matches(action, host) and rule.at_time is not None:
                return rule
        return None

    def _due_fault(self, action: str, host: str) -> FaultRule | None:
        """The timed fault for (action, host) whose time has come, spent on return."""
        rule = self._pending_timed_fault(action, host)
        if rule is None or self.now() < rule.at_time:
            return None
        rule.remaining = 0
        return rule

    def _op(self, action: str, host: str, **extra: Any) -> None:
        """Fail `action` on `host` if a fault is injected for it.

        The fault is logged as one ok=False event with its cause and `extra`,
        then raised as BackendOpError.
        """
        fault = self.take_fault(action, host)
        if fault is not None:
            self.log.append(self.now(), action, host, stage=self.stage, ok=False,
                            cause=fault.error, **extra)
            raise BackendOpError(host, action, fault.error)

    def parallel_map(self, fn, items, parallelism: int | None = None) -> list:
        """Apply fn per item with join-before-return semantics."""
        return [fn(item) for item in items]

    # -- data staging -------------------------------------------------------

    def stage_volume(self, content: Chain | bytes, progress: float = 0.0) -> None:
        """Place the data volume on the system before the cluster comes up.

        `progress` is the progress that volume holds: the app's work accrues
        on top of it.
        """
        self.staged_volume = Chain.of(content)
        self.progress_base = progress

    # -- clock ------------------------------------------------------------

    @abc.abstractmethod
    def now(self) -> float: ...

    @abc.abstractmethod
    def wait(self, seconds: float) -> None:
        """Let `seconds` pass (advance the simulated clock or really sleep)."""

    def advance_to(self, t: float) -> None:
        """Let the clock reach reading `t`, in one step where the waits that
        would take it there could change nothing on the way."""
        self.wait(t - self.now())

    @abc.abstractmethod
    def charge(self, seconds: float, action: str, host: str) -> None:
        """Account time spent outside the cluster itself (transfers, snapshots)."""

    # -- capability and cluster lifecycle ----------------------------------

    def capability(self) -> BackendCapability:
        vm_layer, shared_fs, topologies, overhead = CAPABILITIES[self.name]
        if self.cfg.cpu_overhead_fraction is not None:
            overhead = self.cfg.cpu_overhead_fraction
        return BackendCapability(
            has_vm_layer=vm_layer,
            native_shared_fs=self.system.host_file_sharing if shared_fs is None else shared_fs,
            topology_choices=topologies,
            cpu_overhead_fraction=overhead,
        )

    def begin_cluster(self, cname: str, app: AppSpec, hardware: HardwareConfig,
                      plan: StoragePlan) -> None:
        """Take the app and hardware of cluster `cname`; subclasses extend it."""
        self.spec = app
        self.hardware = hardware

    def app_rate(self) -> float:
        """The app's cluster-wide work rate: one process per node, vcpus cores
        per process, less the virtualization overhead."""
        return self.spec.process_count * self.hardware.vcpus * self.system.cpu_rate_native * \
            (1.0 - self.capability().cpu_overhead_fraction)

    def abort_cluster(self) -> None:
        """Release anything begin_cluster/provision acquired after a failure."""

    def close(self) -> None:
        """Release everything this backend holds; it is not used afterwards."""

    @abc.abstractmethod
    def provision(self, host: str, index: int) -> NodeRef: ...

    @abc.abstractmethod
    def start_all(self, refs: list[NodeRef]) -> None: ...

    @abc.abstractmethod
    def exec(self, ref: NodeRef, argv: list[str]) -> None: ...

    @abc.abstractmethod
    def progress(self, ref: NodeRef) -> float: ...

    def quiet_until(self, ref: NodeRef) -> float:
        """Clock reading before which progress(ref) can neither reach the app's
        work total nor raise NodeFailure.  -inf means: poll every tick."""
        return -math.inf

    @abc.abstractmethod
    def pause(self, ref: NodeRef) -> None: ...

    @abc.abstractmethod
    def resume(self, ref: NodeRef) -> None: ...

    @abc.abstractmethod
    def stop(self, ref: NodeRef) -> None: ...

    def fetch_volume(self, ref: NodeRef) -> Chain:
        """The data volume as the app has left it: the staged chain extended
        by the output of the progress made on top of it."""
        content = append_output(self.spec.name, self.staged_volume, self.progress_base,
                                self.progress(ref))
        self.log.append(self.now(), "fetch_volume", ref.host_id, stage=self.stage,
                        nbytes=len(content))
        return content
