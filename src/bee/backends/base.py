"""Backend contract shared by the simulators and the local-process runtime.

A backend owns a clock, an ordered event log, and the node handles of one
virtual cluster at a time.  The deployment and orchestration layers only talk
through this interface, so they run unchanged on any implementation.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Any

from bee.model import (
    AppSpec,
    HardwareConfig,
    NetworkSolution,
    ComputeSystem,
)
from bee.storage import StoragePlan

SIM_HPC = "sim-hpc"
SIM_CLOUD_AWS = "sim-cloud-aws"
SIM_CLOUD_BAREMETAL = "sim-cloud-baremetal"
LOCAL = "local"

BACKEND_KINDS = (SIM_HPC, SIM_CLOUD_AWS, SIM_CLOUD_BAREMETAL, LOCAL)

# Measured virtualization cost: two virtualization layers lose about 9% of
# compute throughput, roughly independent of core count.
DEFAULT_CPU_OVERHEAD = 0.09

ALL_TOPOLOGIES = frozenset((NetworkSolution.MULTICAST, NetworkSolution.P2P_STAR,
                            NetworkSolution.P2P_TREE))


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
    """Append-only, time-ordered log; renders to newline-delimited JSON."""

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def append(self, t: float, kind: str, node: str, *, stage: str = "backend",
               ok: bool = True, **extra: Any) -> None:
        detail = {"stage": stage, "ok": ok}
        detail.update(extra)
        self.events.append(SimEvent(t=t, kind=kind, node=node, detail=detail))

    def records(self) -> list[dict]:
        return [ev.as_record() for ev in self.events]

    def to_ndjson(self) -> str:
        import json

        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records())


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

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "cpu_overhead_fraction": self.cpu_overhead_fraction,
            "hop_latency_ms": self.hop_latency_ms,
            "poll_interval": self.poll_interval,
            "nfs_cap": self.nfs_cap,
            "image_size_mb": self.image_size_mb,
            "docker_build_seconds": self.docker_build_seconds,
            "image_step_seconds": self.image_step_seconds,
            "boot_seconds": self.boot_seconds,
            "provision_step_seconds": self.provision_step_seconds,
            "provision_jitter": self.provision_jitter,
            "message_bytes": self.message_bytes,
            "messages_per_process": self.messages_per_process,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        cfg = cls()
        known = cfg.to_dict().keys()
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown backend config keys: {sorted(unknown)}")
        return replace(cfg, **data)


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
class VmSpec:
    cluster_name: str
    node_index: int
    vcpus: int
    ram_mb: int
    network_solution: NetworkSolution
    storage_solution: str
    image_id: str | None = None


@dataclass(frozen=True)
class NodeRef:
    """Backend-side handle for one provisioned node."""

    host_id: str
    node_index: int
    cluster_name: str


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

    def __init__(self, system: ComputeSystem, cfg: SimConfig):
        self.system = system
        self.cfg = cfg
        self.log = EventLog()
        self.stage = "backend"
        self._faults: list[FaultRule] = []

    # -- bookkeeping ------------------------------------------------------

    def set_stage(self, stage: str) -> None:
        self.stage = stage

    def events(self) -> list[SimEvent]:
        return list(self.log.events)

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

    def parallel_map(self, fn, items, parallelism: int | None = None) -> list:
        """Apply fn per item with join-before-return semantics."""
        return [fn(item) for item in items]

    # -- data staging -------------------------------------------------------

    def stage_volume(self, content: bytes) -> None:
        """Place the data volume on the system before the cluster comes up."""
        self._staged_volume = content

    def set_progress_base(self, progress: float) -> None:
        """Restore point: future progress accrues on top of this marker."""
        self._progress_base = progress

    @property
    def progress_base(self) -> float:
        return getattr(self, "_progress_base", 0.0)

    # -- clock ------------------------------------------------------------

    @abc.abstractmethod
    def now(self) -> float: ...

    @abc.abstractmethod
    def wait(self, seconds: float) -> None:
        """Let `seconds` pass (advance the simulated clock or really sleep)."""

    @abc.abstractmethod
    def charge(self, seconds: float, action: str, host: str) -> None:
        """Account time spent outside the cluster itself (transfers, snapshots)."""

    # -- capability and cluster lifecycle ----------------------------------

    @abc.abstractmethod
    def capability(self) -> BackendCapability: ...

    @abc.abstractmethod
    def begin_cluster(self, cname: str, app: AppSpec, hardware: HardwareConfig,
                      plan: StoragePlan) -> None: ...

    def abort_cluster(self) -> None:
        """Release anything begin_cluster/provision acquired after a failure."""

    @abc.abstractmethod
    def provision(self, host: str, spec: VmSpec) -> NodeRef: ...

    @abc.abstractmethod
    def start_all(self, refs: list[NodeRef]) -> None: ...

    @abc.abstractmethod
    def exec(self, ref: NodeRef, argv: list[str]) -> dict: ...

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

    @abc.abstractmethod
    def put_volume(self, ref: NodeRef, content: bytes) -> None: ...

    @abc.abstractmethod
    def fetch_volume(self, ref: NodeRef) -> bytes: ...

    @abc.abstractmethod
    def io_seconds(self, op: str, nbytes: int) -> float:
        """Modeled duration of application I/O through this backend's storage."""
