"""Cross-system run loop: deploy, monitor, checkpoint near slot expiry, migrate.

Systems are tried in pool priority order, each at most once per pass.  A run
that outlives a slot is paused and checkpointed inside a guard window sized so
the snapshot always completes before the slot expires; the checkpoint then
migrates to the next system.  With the pool exhausted the last checkpoint is
persisted and the run reports stalled.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable

from bee.model import (
    MB,
    AppSpec,
    ComputeSystem,
    DataVolume,
    HardwareConfig,
    Phase,
    ResourcePool,
    RunState,
    canonical_json,
    quantize_work,
    run_state_to_dict,
    validate,
)
from bee.storage import VolumeStore, sha256_hex
from bee.workload import max_output_bytes
from bee.cluster import Cluster, ClusterStatus, DeploymentError, deploy_cluster
from bee.backends.base import Backend, NodeFailure, SimConfig

GUARD_SLOT_FRACTION = 0.05
GUARD_ESTIMATE_MARGIN = 2.0


class OrchestratorError(RuntimeError):
    pass


class CheckpointUnsupported(OrchestratorError):
    pass


class CheckpointWriteError(OrchestratorError):
    pass


class MigrationError(OrchestratorError):
    pass


class SlotEnd(str, Enum):
    COMPLETION = "completion"
    TIMESLOT_CHECKPOINT = "timeslot_checkpoint"
    FAILURE = "failure"


class Outcome(str, Enum):
    COMPLETED = "completed"
    STALLED_WITH_CHECKPOINT = "stalled_with_checkpoint"
    FAILED = "failed"


class MonitorResult(str, Enum):
    COMPLETED = "completed"
    GUARD_FIRED = "guard_fired"
    FAILED = "failed"


@dataclass(frozen=True)
class SlotRecord:
    system_id: str
    slot_duration_used: float
    progress_delta: float
    ended_by: SlotEnd


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    output_volume: DataVolume | None
    history: tuple[SlotRecord, ...]


def slot_record_to_dict(rec: SlotRecord) -> dict:
    return {
        "system_id": rec.system_id,
        "slot_duration_used": rec.slot_duration_used,
        "progress_delta": rec.progress_delta,
        "ended_by": rec.ended_by.value,
    }


def run_result_to_dict(res: RunResult) -> dict:
    from bee.model import volume_to_dict

    return {
        "outcome": res.outcome.value,
        "output_volume": volume_to_dict(res.output_volume) if res.output_volume else None,
        "history": [slot_record_to_dict(r) for r in res.history],
    }


# ---------------------------------------------------------------------------
# checkpoint store: <store>/<run_id>/<seq>/{manifest.json, volume.bin}


@dataclass(frozen=True)
class Checkpoint:
    run_id: str
    seq: int
    progress: float
    digest: str
    origin_system: str | None
    created_at: float


def checkpoint_to_manifest(ckpt: Checkpoint) -> dict:
    return {
        "run_id": ckpt.run_id,
        "seq": ckpt.seq,
        "progress": ckpt.progress,
        "digest": ckpt.digest,
        "origin_system": ckpt.origin_system,
        "created_at": ckpt.created_at,
    }


def checkpoint_from_manifest(data: dict) -> Checkpoint:
    return Checkpoint(
        run_id=str(data["run_id"]),
        seq=int(data["seq"]),
        progress=float(data["progress"]),
        digest=str(data["digest"]),
        origin_system=data["origin_system"],
        created_at=float(data["created_at"]),
    )


class CheckpointStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _dir(self, run_id: str, seq: int) -> Path:
        return self.root / run_id / str(seq)

    def save(self, ckpt: Checkpoint, content: bytes) -> Path:
        d = self._dir(ckpt.run_id, ckpt.seq)
        d.mkdir(parents=True, exist_ok=True)
        (d / "volume.bin").write_bytes(content)
        (d / "manifest.json").write_text(canonical_json(checkpoint_to_manifest(ckpt)),
                                         encoding="utf-8")
        return d

    def _manifest(self, d: Path) -> Checkpoint:
        return checkpoint_from_manifest(
            json.loads((d / "manifest.json").read_text(encoding="utf-8")))

    def load(self, path: str | Path) -> tuple[Checkpoint, bytes]:
        d = Path(path)
        return self._manifest(d), (d / "volume.bin").read_bytes()

    def verify(self, path: str | Path) -> bool:
        ckpt, content = self.load(path)
        return sha256_hex(content) == ckpt.digest

    def latest(self, run_id: str) -> Path | None:
        """The newest committed checkpoint of the run.

        save() writes the manifest last, so a sequence whose manifest is
        missing or does not parse was cut off mid-save and is skipped.
        """
        run_dir = self.root / run_id
        if not run_dir.exists():
            return None
        seqs = sorted((int(p.name) for p in run_dir.iterdir()
                       if p.is_dir() and p.name.isdigit()), reverse=True)
        for seq in seqs:
            d = self._dir(run_id, seq)
            try:
                self._manifest(d)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            return d
        return None


# ---------------------------------------------------------------------------
# operations


def guard_seconds(volume_bytes: int, work_total: float, progress: float,
                  disk_write_mbps: float, time_slot: float) -> float:
    """Margin before slot expiry at which checkpointing must start.

    The estimate covers the volume plus everything the app could still append,
    then doubles, so the snapshot always has room to complete; the 5% floor
    keeps the margin meaningful for tiny volumes.
    """
    projected = volume_bytes + max_output_bytes(work_total, progress)
    estimate = projected / (disk_write_mbps * MB)
    return max(GUARD_ESTIMATE_MARGIN * estimate, GUARD_SLOT_FRACTION * time_slot)


@dataclass(frozen=True)
class MonitorOutcome:
    result: MonitorResult
    elapsed: float


def monitor(cluster: Cluster, budget: float, guard: float,
            poll_interval: float = 1.0) -> MonitorOutcome:
    """Watch the running cluster until completion, failure or the guard deadline.

    The clock advances one poll_interval per tick.  The cluster is polled only
    on ticks at or after the backend's quiet_until(), where the outcome can
    change, and always on the final tick.  Skipped ticks could only have
    reported "still running", so the result and the clock match polling every
    tick.  The final tick lands exactly on budget - guard, never past it, so
    the caller always has the full guard window left inside the slot.
    """
    backend = cluster.backend
    target = quantize_work(cluster.app.work_total)
    deadline = budget - guard
    t0 = backend.now()
    quiet = backend.quiet_until(cluster.master_ref)
    while True:
        now = backend.now()
        elapsed = now - t0
        final = elapsed >= deadline - 1e-9  # slack absorbs clock round-off
        if final or now >= quiet:
            try:
                progress = cluster.progress()
            except NodeFailure:
                return MonitorOutcome(MonitorResult.FAILED, elapsed)
            if progress >= target:
                return MonitorOutcome(MonitorResult.COMPLETED, elapsed)
        if final:
            return MonitorOutcome(MonitorResult.GUARD_FIRED, elapsed)
        backend.wait(min(poll_interval, deadline - elapsed))


def checkpoint_now(state: RunState, cluster: Cluster, store: CheckpointStore,
                   run_id: str, seq: int, created_at: float) -> tuple[Checkpoint, bytes, float, RunState]:
    """Pause the cluster and snapshot the data volume with a progress marker.

    Returns the checkpoint, its content, the simulated write duration, and the
    updated run state (need_migration set, origin recorded).
    """
    if not cluster.app.checkpointable:
        raise CheckpointUnsupported("checkpoint unsupported: app has no checkpointing procedure")
    backend = cluster.backend
    if cluster.status is not ClusterStatus.PAUSED:
        cluster.pause()
    master = cluster.master_ref
    content = backend.fetch_volume(master)
    progress = cluster.progress()
    duration = len(content) / (cluster.system.disk_bandwidth_native.write * MB)
    fault = backend.take_fault("checkpoint_write", master.host_id)
    if fault is not None:
        raise CheckpointWriteError(f"checkpoint write failed: {fault.error}")
    backend.charge(duration, "checkpoint_write", master.host_id)
    ckpt = Checkpoint(run_id=run_id, seq=seq, progress=progress,
                      digest=sha256_hex(content),
                      origin_system=cluster.system.id, created_at=created_at + duration)
    store.save(ckpt, content)
    new_state = replace(state, phase=Phase.CHECKPOINTING, need_migration=True,
                        last_host_system=cluster.system.id)
    return ckpt, content, duration, new_state


def transfer_and_restore(ckpt: Checkpoint, content: bytes, from_system: ComputeSystem | None,
                         to_system: ComputeSystem, backend: Backend,
                         vstore: VolumeStore, volume_id: str) -> DataVolume:
    """Move checkpoint bytes onto the target system and verify integrity.

    Transfer time is charged at the slower of the two systems' networks; a
    digest mismatch is retried once before giving up.
    """
    if from_system is not None:
        bandwidth = min(from_system.net_bandwidth_native, to_system.net_bandwidth_native)
    else:
        bandwidth = to_system.net_bandwidth_native
    seconds = len(content) / (bandwidth * MB) if content else 0.0

    delivered: bytes | None = None
    for attempt in (1, 2):
        backend.charge(seconds, "data_transfer", to_system.hosts[0].id)
        fault = backend.take_fault("transfer", to_system.hosts[0].id)
        candidate = content if fault is None else _corrupt(content)
        if sha256_hex(candidate) == ckpt.digest:
            delivered = candidate
            break
        backend.log.append(backend.now(), "transfer_digest_mismatch",
                           to_system.hosts[0].id, stage="data", ok=False, attempt=attempt)
    if delivered is None:
        raise MigrationError(
            f"checkpoint digest mismatch after retry while moving to {to_system.id}")

    vol = vstore.volume(volume_id)
    if vol.location != "detached":
        vstore.detach(volume_id)
    vstore.write(volume_id, delivered)
    vol = vstore.attach(volume_id, to_system.id)
    backend.charge(0.0, "restore_checkpoint", to_system.hosts[0].id)
    return vol


def _corrupt(content: bytes) -> bytes:
    if not content:
        return b"\x00"
    return bytes([content[0] ^ 0xFF]) + content[1:]


# ---------------------------------------------------------------------------
# the workflow loop


BackendFactory = Callable[[ComputeSystem], Backend]


class _StatusWriter:
    def __init__(self, store_root: Path, run_id: str):
        self.dir = store_root / run_id
        self.dir.mkdir(parents=True, exist_ok=True)

    def state(self, state: RunState) -> None:
        (self.dir / "state.json").write_text(canonical_json(run_state_to_dict(state)),
                                             encoding="utf-8")

    def result(self, run_id: str, result: RunResult) -> None:
        doc = {"run_id": run_id} | run_result_to_dict(result)
        (self.dir / "result.json").write_text(canonical_json(doc), encoding="utf-8")


def derive_run_id(app: AppSpec, seed: int) -> str:
    from bee.model import app_to_dict

    digest = hashlib.sha256(f"{canonical_json(app_to_dict(app))}:{seed}".encode()).hexdigest()
    return f"run-{digest[:12]}"


def run_workflow(pool: ResourcePool, app: AppSpec, data: DataVolume,
                 hardware: HardwareConfig, backend_factory: BackendFactory,
                 store_dir: str | Path, *, cfg: SimConfig | None = None,
                 run_id: str | None = None, loop_pool: bool = False,
                 resume_from: Checkpoint | None = None,
                 resume_content: bytes | None = None) -> RunResult:
    """Run the application across the pool until done, stalled, or failed."""
    cfg = cfg or SimConfig()
    problems = validate(pool, app, hardware)
    if problems:
        raise OrchestratorError("invalid inputs: " +
                                "; ".join(f"{v.field}: {v.message}" for v in problems))

    run_id = run_id or derive_run_id(app, cfg.seed)
    vstore = VolumeStore(store_dir)
    cstore = CheckpointStore(store_dir)
    status = _StatusWriter(Path(store_dir), run_id)
    work_total = quantize_work(app.work_total)

    if not vstore.exists(data.id):
        raise OrchestratorError(f"input volume {data.id} not found in store")

    ckpt = resume_from
    ckpt_content = resume_content
    seq = resume_from.seq if resume_from else 0
    if resume_from is not None:
        if ckpt_content is None:
            raise OrchestratorError("resume requires the checkpoint content")
        if sha256_hex(ckpt_content) != resume_from.digest:
            raise MigrationError("checkpoint corrupt: content does not match manifest digest")
        vol = vstore.volume(data.id)
        if vol.location != "detached":
            vstore.detach(data.id)
        vstore.write(data.id, ckpt_content)
        # a checkpoint without an origin (stall before any slot ran) loads like
        # initial data; anything else migrates from its recorded origin
        state = RunState(phase=Phase.INIT,
                         need_migration=resume_from.origin_system is not None,
                         last_host_system=resume_from.origin_system,
                         progress=resume_from.progress)
        if resume_from.progress >= work_total:
            vol = vstore.volume(data.id)
            result = RunResult(Outcome.COMPLETED, vol, ())
            status.state(replace(state, phase=Phase.COMPLETE, need_migration=False))
            status.result(run_id, result)
            return result
    else:
        state = RunState()

    systems = {s.id: s for s in pool.systems}
    queue = deque(pool.systems)
    history: list[SlotRecord] = []
    wall = 0.0
    no_progress_slots = 0

    def finish(outcome: Outcome, volume: DataVolume | None) -> RunResult:
        result = RunResult(outcome, volume, tuple(history))
        status.state(state)
        status.result(run_id, result)
        return result

    while queue:
        system = queue.popleft()
        if loop_pool:
            queue.append(system)
            if no_progress_slots >= len(pool.systems):
                break
        backend = backend_factory(system)
        backend.set_stage("data")
        state = replace(state, phase=Phase.MIGRATING if state.need_migration
                        else Phase.DEPLOYING, current_system=system.id)
        status.state(state)

        # data staging: restore a checkpoint or load the initial volume
        try:
            if state.need_migration and ckpt is not None and ckpt_content is not None:
                origin = systems.get(ckpt.origin_system) if ckpt.origin_system else None
                transfer_and_restore(ckpt, ckpt_content, origin, system, backend,
                                     vstore, data.id)
            else:
                content = vstore.content(data.id)
                backend.charge(len(content) / (system.disk_bandwidth_native.write * MB),
                               "load_initial_data", system.hosts[0].id)
                vol = vstore.volume(data.id)
                if vol.location != "detached":
                    vstore.detach(data.id)
                vstore.attach(data.id, system.id)
        except MigrationError:
            state = replace(state, phase=Phase.FAILED, current_system=None)
            return finish(Outcome.FAILED, None)
        backend.stage_volume(vstore.content(data.id))
        backend.set_progress_base(state.progress)

        # deploy the virtual cluster
        state = replace(state, phase=Phase.DEPLOYING)
        status.state(state)
        cname = f"{run_id}-s{len(history) + 1}"
        try:
            cluster = deploy_cluster(system.hosts, app, cname, hardware, backend)
        except DeploymentError:
            history.append(SlotRecord(system.id, 0.0, 0.0, SlotEnd.FAILURE))
            state = replace(state, slots_consumed=state.slots_consumed + 1)
            vstore.detach(data.id)
            wall += backend.now()
            no_progress_slots += 1
            status.state(state)
            continue

        guard = guard_seconds(vstore.volume(data.id).byte_size, work_total,
                              state.progress, system.disk_bandwidth_native.write,
                              system.time_slot)
        backend.log.append(backend.now(), "guard_computed", system.hosts[0].id,
                           stage="monitor", seconds=guard)
        if guard >= system.time_slot:
            # slot too small to even checkpoint: unusable for this app
            cluster.stop()
            vstore.detach(data.id)
            history.append(SlotRecord(system.id, 0.0, 0.0, SlotEnd.FAILURE))
            state = replace(state, slots_consumed=state.slots_consumed + 1)
            wall += backend.now()
            no_progress_slots += 1
            status.state(state)
            continue

        state = replace(state, phase=Phase.RUNNING)
        status.state(state)
        outcome = monitor(cluster, system.time_slot, guard, cfg.poll_interval)

        if outcome.result is MonitorResult.COMPLETED:
            final_content = backend.fetch_volume(cluster.master_ref)
            volume = vstore.write(data.id, final_content)
            cluster.stop()
            delta = work_total - state.progress
            history.append(SlotRecord(system.id, outcome.elapsed, delta,
                                      SlotEnd.COMPLETION))
            state = replace(state, phase=Phase.COMPLETE, progress=work_total,
                            slots_consumed=state.slots_consumed + 1,
                            current_system=None)
            return finish(Outcome.COMPLETED, volume)

        if outcome.result is MonitorResult.FAILED:
            cluster.stop()
            vstore.detach(data.id)
            history.append(SlotRecord(system.id, outcome.elapsed, 0.0, SlotEnd.FAILURE))
            state = replace(state, phase=Phase.FAILED,
                            slots_consumed=state.slots_consumed + 1,
                            current_system=None)
            return finish(Outcome.FAILED, None)

        # guard fired: checkpoint and migrate (or fail if the app cannot)
        if not app.checkpointable:
            cluster.stop()
            vstore.detach(data.id)
            history.append(SlotRecord(system.id, outcome.elapsed, 0.0, SlotEnd.FAILURE))
            state = replace(state, phase=Phase.FAILED,
                            slots_consumed=state.slots_consumed + 1,
                            current_system=None)
            return finish(Outcome.FAILED, None)

        seq += 1
        try:
            ckpt, ckpt_content, ckpt_duration, state = checkpoint_now(
                state, cluster, cstore, run_id, seq, wall + backend.now())
        except CheckpointWriteError:
            cluster.stop()
            vstore.detach(data.id)
            history.append(SlotRecord(system.id, outcome.elapsed, 0.0, SlotEnd.FAILURE))
            state = replace(state, phase=Phase.FAILED,
                            slots_consumed=state.slots_consumed + 1,
                            current_system=None)
            return finish(Outcome.FAILED, None)

        vstore.write(data.id, ckpt_content)
        cluster.stop()
        delta = ckpt.progress - state.progress
        no_progress_slots = 0 if delta > 0 else no_progress_slots + 1
        history.append(SlotRecord(system.id, outcome.elapsed + ckpt_duration, delta,
                                  SlotEnd.TIMESLOT_CHECKPOINT))
        state = replace(state, phase=Phase.MIGRATING, progress=ckpt.progress,
                        slots_consumed=state.slots_consumed + 1,
                        current_system=None)
        wall += backend.now()
        status.state(state)

    # pool exhausted with work remaining: persist the last checkpoint
    if ckpt is None:
        seq += 1
        content = vstore.content(data.id)
        ckpt = Checkpoint(run_id=run_id, seq=seq, progress=state.progress,
                          digest=sha256_hex(content),
                          origin_system=state.last_host_system, created_at=wall)
        cstore.save(ckpt, content)
    state = replace(state, phase=Phase.STALLED, current_system=None)
    return finish(Outcome.STALLED_WITH_CHECKPOINT, None)
