"""Deterministic discrete-event backend for the simulated backend kinds.

sim-hpc models a VM-per-host HPC deployment; the cloud kinds differ only in
their row of the capability table.  Everything runs on a logical clock:
provisioning steps, image pulls, the app's per-slot I/O phase, and compute
progress.  Identical seeds give byte-identical event logs.  The app's progress
is a `bee.workload.AppRun` read at the logical clock, the model each relay
agent of the local backend runs on its own clock; `io_seconds` sizes its I/O
phase from the storage plan.
"""

from __future__ import annotations

import math
import random

from bee.model import MB, WORK_QUANTUM, AppSpec, ComputeSystem, HardwareConfig, StorageSolution
from bee.storage import Chain, StoragePlan, model_io
from bee.workload import AppRun, append_output
from bee.backends.base import (
    VM_PROVISION_STEPS,
    Backend,
    NodeFailure,
    NodeRef,
    SimConfig,
    compute_rate,
)


class SimHpcBackend(Backend):
    """Simulated system of kind cfg.backend: sim-hpc or one of the clouds."""

    def __init__(self, system: ComputeSystem, cfg: SimConfig):
        super().__init__(system, cfg)
        self.name = cfg.backend
        self._t = 0.0
        self._rng = random.Random((cfg.seed, system.id, self.name).__repr__())
        self._nodes: dict[int, NodeRef] = {}
        self._app = AppRun()
        self._app_name = ""
        self._plan: StoragePlan | None = None
        self._hardware: HardwareConfig | None = None
        self._spec: AppSpec | None = None

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        return self._t

    def wait(self, seconds: float) -> None:
        if seconds > 0:
            self._t += seconds

    def advance_to(self, t: float) -> None:
        if t > self._t:
            self._t = t

    def charge(self, seconds: float, action: str, host: str) -> None:
        self.wait(seconds)
        self.log.append(self._t, action, host, stage=self.stage, seconds=seconds)

    def _step(self, action: str, host: str, seconds: float, **extra) -> None:
        self._op(action, host, **extra)
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
        self._app = AppRun()
        self._plan = plan
        self._hardware = hardware
        self._spec = app
        self._app_name = app.name

    def provision(self, host: str, index: int) -> NodeRef:
        if self.capability().has_vm_layer:
            for action in VM_PROVISION_STEPS:
                self._step(action, host, self._jittered(self.cfg.provision_step_seconds),
                           index=index)
            self._step("register_vm", host, 0.0, index=index)
        else:
            self._step("register_agent", host, self._jittered(self.cfg.provision_step_seconds),
                       index=index)
        ref = NodeRef(host_id=host, node_index=index)
        self._nodes[index] = ref
        return ref

    def start_all(self, refs: list[NodeRef]) -> None:
        # Nodes boot in parallel; the clock advances by the slowest one.
        t0 = self._t
        boots = []
        for ref in refs:
            self._op("start_vm", ref.host_id)
            boots.append((t0 + self._jittered(self.cfg.boot_seconds), ref))
        for t, ref in sorted(boots, key=lambda b: b[0]):
            self.log.append(t, "start_vm", ref.host_id, stage=self.stage,
                            index=ref.node_index)
        if boots:
            self._t = max(t for t, _ in boots)

    def exec(self, ref: NodeRef, argv: list[str]) -> None:
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

    def _start_app(self, ref: NodeRef) -> None:
        assert self._spec is not None and self._hardware is not None
        self._step("app_start", ref.host_id, 0.0, index=ref.node_index)
        io = self._spec.io_profile
        io_time = self.io_seconds("read", io.read_bytes_per_slot) + \
            self.io_seconds("write", io.write_bytes_per_slot)
        self._app = AppRun(
            rate=compute_rate(self._spec, self._hardware, self.system,
                              self.capability().cpu_overhead_fraction),
            work_total=self._spec.work_total,
            base=self.progress_base,
            io_seconds=io_time,
            started_at=self._t,
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

    def progress(self, ref: NodeRef) -> float:
        rule = self._due_fault("run", ref.host_id)
        if rule is not None:
            self.log.append(self._t, "node_failure", ref.host_id, stage=self.stage,
                            ok=False, cause=rule.error)
            raise NodeFailure(ref.host_id, "run", rule.error)
        return self._app.progress(self._t)

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
        remaining = run.work_total - run.base - WORK_QUANTUM
        if remaining <= 0:
            return -math.inf
        if run.started_at is None or run.rate <= 0:
            return fault_at
        done = run.started_at + run.paused_total + run.io_seconds + remaining / run.rate
        done -= 1e-9 * abs(done)
        if run.paused_at is not None and run.paused_at < done:
            done = math.inf  # frozen short of the target until resumed
        return min(fault_at, done)

    def pause(self, ref: NodeRef) -> None:
        # the first node's call pauses the app; there is none after the last stop
        if self._nodes and self._app.pause(self._t):
            self.log.append(self._t, "pause", ref.host_id, stage=self.stage)

    def resume(self, ref: NodeRef) -> None:
        if self._app.resume(self._t):
            self.log.append(self._t, "resume", ref.host_id, stage=self.stage)

    def stop(self, ref: NodeRef) -> None:
        self._nodes.pop(ref.node_index, None)
        self.log.append(self._t, "stop", ref.host_id, stage=self.stage,
                        index=ref.node_index)

    # -- volume ------------------------------------------------------------------

    def fetch_volume(self, ref: NodeRef) -> Chain:
        content = append_output(self._app_name, self.staged_volume,
                                self.progress_base, self.progress(ref))
        self.log.append(self._t, "fetch_volume", ref.host_id, stage=self.stage,
                        nbytes=len(content))
        return content
