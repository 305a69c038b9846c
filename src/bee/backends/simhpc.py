"""Deterministic discrete-event backend modeling a VM-per-host HPC deployment.

Everything runs on a logical clock: provisioning steps, image pulls, the app's
per-slot I/O phase, and compute progress.  Identical seeds give byte-identical
event logs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from bee.model import MB, WORK_QUANTUM, AppSpec, ComputeSystem, HardwareConfig, StorageSolution
from bee.storage import StoragePlan, model_io
from bee.workload import append_output, compute_rate, progress_at
from bee.backends.base import (
    ALL_TOPOLOGIES,
    DEFAULT_CPU_OVERHEAD,
    Backend,
    BackendCapability,
    BackendOpError,
    NodeFailure,
    NodeRef,
    SimConfig,
    VmSpec,
)

VM_PROVISION_STEPS = ("create_vm", "create_img", "configure", "setup_shared_vol",
                      "setup_network")


@dataclass
class _AppRun:
    rate: float = 0.0
    work_total: float = 0.0
    io_duration: float = 0.0
    started_at: float | None = None
    paused_at: float | None = None
    paused_total: float = 0.0
    running: bool = False


class SimHpcBackend(Backend):
    """Simulated system with a VM layer and no host file sharing assumptions."""

    name = "sim-hpc"

    def __init__(self, system: ComputeSystem, cfg: SimConfig):
        super().__init__(system, cfg)
        self._t = 0.0
        self._rng = random.Random((cfg.seed, system.id, self.name).__repr__())
        self._nodes: dict[int, NodeRef] = {}
        self._started: set[int] = set()
        self._app = _AppRun()
        self._volume: bytes = b""
        self._volume_initial: bytes = b""
        self._app_name = ""
        self._plan: StoragePlan | None = None
        self._hardware: HardwareConfig | None = None
        self._spec: AppSpec | None = None

    # -- capability ---------------------------------------------------------

    def capability(self) -> BackendCapability:
        return BackendCapability(
            has_vm_layer=True,
            native_shared_fs=self.system.host_file_sharing,
            topology_choices=ALL_TOPOLOGIES,
            cpu_overhead_fraction=self._overhead(),
        )

    def _overhead(self) -> float:
        if self.cfg.cpu_overhead_fraction is not None:
            return self.cfg.cpu_overhead_fraction
        return DEFAULT_CPU_OVERHEAD

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self._t

    def wait(self, seconds: float) -> None:
        if seconds > 0:
            self._t += seconds

    def charge(self, seconds: float, action: str, host: str) -> None:
        self.wait(seconds)
        self.log.append(self._t, action, host, stage=self.stage, seconds=seconds)

    def _step(self, action: str, host: str, seconds: float, **extra) -> None:
        fault = self.take_fault(action, host)
        if fault is not None:
            self.log.append(self._t, action, host, stage=self.stage, ok=False,
                            cause=fault.error, **extra)
            raise BackendOpError(host, action, fault.error)
        self.wait(seconds)
        self.log.append(self._t, action, host, stage=self.stage, **extra)

    def _jittered(self, base: float) -> float:
        spread = self.cfg.provision_jitter
        return base * (1.0 + self._rng.uniform(-spread, spread))

    def parallel_map(self, fn, items, parallelism: int | None = None) -> list:
        """Run per-host work in parallel batches on the logical clock.

        Every item in a batch starts at the same instant; the clock then jumps
        to the slowest item's finish, and the batch's events are re-ordered by
        time so the log stays nondecreasing.
        """
        items = list(items)
        if not items:
            return []
        k = parallelism if parallelism and parallelism > 0 else len(items)
        results = []
        for start in range(0, len(items), k):
            batch = items[start:start + k]
            t0 = self._t
            end = t0
            mark = len(self.log.events)
            for item in batch:
                self._t = t0
                results.append(fn(item))
                end = max(end, self._t)
            self._t = end
            self.log.events[mark:] = sorted(self.log.events[mark:], key=lambda e: e.t)
        return results

    # -- cluster lifecycle ----------------------------------------------------

    def begin_cluster(self, cname: str, app: AppSpec, hardware: HardwareConfig,
                      plan: StoragePlan) -> None:
        self._nodes.clear()
        self._started.clear()
        self._app = _AppRun()
        self._plan = plan
        self._hardware = hardware
        self._spec = app
        self._app_name = app.name

    def provision(self, host: str, spec: VmSpec) -> NodeRef:
        if self.capability().has_vm_layer:
            for action in VM_PROVISION_STEPS:
                self._step(action, host, self._jittered(self.cfg.provision_step_seconds),
                           index=spec.node_index)
            self._step("register_vm", host, 0.0, index=spec.node_index)
        else:
            self._step("register_agent", host, self._jittered(self.cfg.provision_step_seconds),
                       index=spec.node_index)
        ref = NodeRef(host_id=host, node_index=spec.node_index,
                      cluster_name=spec.cluster_name)
        self._nodes[spec.node_index] = ref
        return ref

    def start_all(self, refs: list[NodeRef]) -> None:
        # Nodes boot in parallel; the clock advances by the slowest one.
        t0 = self._t
        boots = []
        for ref in refs:
            fault = self.take_fault("start_vm", ref.host_id)
            if fault is not None:
                self.log.append(t0, "start_vm", ref.host_id, stage=self.stage,
                                ok=False, cause=fault.error)
                raise BackendOpError(ref.host_id, "start_vm", fault.error)
            boots.append((t0 + self._jittered(self.cfg.boot_seconds), ref))
        for t, ref in sorted(boots, key=lambda b: b[0]):
            self.log.append(t, "start_vm", ref.host_id, stage=self.stage,
                            index=ref.node_index)
            self._started.add(ref.node_index)
        if boots:
            self._t = max(t for t, _ in boots)

    def exec(self, ref: NodeRef, argv: list[str]) -> dict:
        verb = argv[0] if argv else ""
        if verb == "img_pull":
            self._step("img_pull", ref.host_id,
                       self.cfg.image_size_mb / self.system.net_bandwidth_native,
                       ref=argv[1] if len(argv) > 1 else "")
        elif verb == "img_build":
            self._step("img_build", ref.host_id, self.cfg.docker_build_seconds)
        elif verb == "docker_start":
            self._step("docker_start", ref.host_id, 0.0, index=ref.node_index)
        elif verb == "app_start":
            self._start_app(ref)
        else:
            self._step(verb or "exec", ref.host_id, 0.0, argv=argv)
        return {"ok": True, "host": ref.host_id, "argv": argv, "t": self._t}

    def _start_app(self, ref: NodeRef) -> None:
        assert self._spec is not None and self._hardware is not None
        self._step("app_start", ref.host_id, 0.0, index=ref.node_index)
        io = self._spec.io_profile
        io_time = self.io_seconds("read", io.read_bytes_per_slot) + \
            self.io_seconds("write", io.write_bytes_per_slot)
        self._app = _AppRun(
            rate=compute_rate(self._spec, self._hardware, self.system, self._overhead()),
            work_total=self._spec.work_total,
            io_duration=io_time,
            started_at=self._t,
            running=True,
        )

    def io_seconds(self, op: str, nbytes: int) -> float:
        """Wall time for the app's aggregate I/O, split evenly across nodes."""
        if nbytes <= 0 or self._plan is None:
            return 0.0
        n = max(1, len(self._nodes))
        share = nbytes / n
        if self.capability().native_shared_fs and \
                self._plan.solution is not StorageSolution.DATA_IMAGE_NFS:
            native = self._plan.native_read if op == "read" else self._plan.native_write
            return share / (native * MB)
        workers = n - 1
        t_master = model_io(self._plan, self._plan.master_node, op, share, max(1, workers))
        t_worker = model_io(self._plan, self._plan.master_node + 1, op, share, workers) \
            if workers > 0 else 0.0
        return max(t_master, t_worker)

    # -- app state -------------------------------------------------------------

    def _active_seconds(self) -> float:
        run = self._app
        if run.started_at is None:
            return 0.0
        end = run.paused_at if run.paused_at is not None else self._t
        busy = end - run.started_at - run.paused_total
        return max(0.0, busy - run.io_duration)

    def stage_volume(self, content: bytes) -> None:
        self._volume_initial = content

    def progress(self, ref: NodeRef) -> float:
        rule = self._pending_timed_fault("run", ref.host_id)
        if rule is not None and rule.at_time is not None and self._t >= rule.at_time:
            rule.remaining = 0
            self.log.append(self._t, "node_failure", ref.host_id, stage=self.stage,
                            ok=False, cause=rule.error)
            raise NodeFailure(ref.host_id, "run", rule.error)
        run = self._app
        gained = progress_at(run.rate, self._active_seconds(),
                             max(0.0, run.work_total - self.progress_base))
        return min(run.work_total, self.progress_base + gained)

    def quiet_until(self, ref: NodeRef) -> float:
        """Strict lower bound on the next clock reading where progress() changes outcome.

        That is the pending `run` fault that progress() would check, or the
        completion time.  quantize_work rounds to nearest, so completion can come
        half a quantum early: one quantum comes off the remaining work, and a
        relative margin absorbs the round-off of the clock arithmetic.
        """
        rule = self._pending_timed_fault("run", ref.host_id)
        fault_at = rule.at_time if rule is not None else math.inf
        run = self._app
        remaining = run.work_total - self.progress_base - WORK_QUANTUM
        if remaining <= 0:
            return -math.inf
        if run.started_at is None or run.rate <= 0:
            return fault_at
        done = run.started_at + run.paused_total + run.io_duration + remaining / run.rate
        done -= 1e-9 * abs(done)
        if run.paused_at is not None and run.paused_at < done:
            done = math.inf  # frozen short of the target until resumed
        return min(fault_at, done)

    def pause(self, ref: NodeRef) -> None:
        run = self._app
        if run.running and run.paused_at is None:
            run.paused_at = self._t
            self.log.append(self._t, "pause", ref.host_id, stage=self.stage)

    def resume(self, ref: NodeRef) -> None:
        run = self._app
        if run.paused_at is not None:
            run.paused_total += self._t - run.paused_at
            run.paused_at = None
            self.log.append(self._t, "resume", ref.host_id, stage=self.stage)

    def stop(self, ref: NodeRef) -> None:
        self._started.discard(ref.node_index)
        self._nodes.pop(ref.node_index, None)
        self.log.append(self._t, "stop", ref.host_id, stage=self.stage,
                        index=ref.node_index)
        if not self._nodes:
            self._app.running = False

    # -- volume ------------------------------------------------------------------

    def put_volume(self, ref: NodeRef, content: bytes) -> None:
        self.stage_volume(content)
        self.log.append(self._t, "put_volume", ref.host_id, stage=self.stage,
                        nbytes=len(content))

    def fetch_volume(self, ref: NodeRef) -> bytes:
        content = append_output(self._app_name, self._volume_initial,
                                self.progress_base, self.progress(ref))
        self.log.append(self._t, "fetch_volume", ref.host_id, stage=self.stage,
                        nbytes=len(content))
        return content
