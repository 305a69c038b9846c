"""Cross-system run loop: deploy, monitor, checkpoint near slot expiry, migrate.

Systems are tried in pool priority order, each at most once per pass.  A run
that outlives a slot is paused and checkpointed inside a guard window sized so
the snapshot always completes before the slot expires; the checkpoint then
migrates to the next system.  With the pool exhausted the last checkpoint is
persisted and the run reports stalled.
"""

from __future__ import annotations

import hashlib
from collections import deque
from contextlib import closing
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
    to_json,
    validate,
)
from bee.storage import (Chain, Checkpoint, CheckpointStore, MigrationError, RunningDigest,
                         StatusWriter, StorageError, run_id_problem)
from bee.workload import BLOCK_BYTES, first_output_block, max_output_bytes
from bee.cluster import Cluster, ClusterStatus, DeploymentError, deploy_cluster
from bee.backends.base import Backend, BackendOpError, NodeFailure, SimConfig

GUARD_SLOT_FRACTION = 0.05
GUARD_ESTIMATE_MARGIN = 2.0


class OrchestratorError(RuntimeError):
    pass


class CheckpointUnsupported(OrchestratorError):
    pass


class CheckpointWriteError(OrchestratorError):
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

    The clock advances one poll_interval per tick; a wall-clock backend may end
    a wait() early, at the completion its last progress reading predicts, so
    the poll that sees completion comes at once.  The cluster is polled only
    on ticks at or after the backend's quiet_until(), where the outcome can
    change, and always on the final tick.  Skipped ticks could only have
    reported "still running", so the result and the clock match polling every
    tick.  The skipped ticks run as one batch: their clock readings are
    computed here, by the same float additions wait() would make, up to the
    tick that reaches quiet_until() or the final one, and the backend's clock
    moves there with one advance_to().  The final tick lands exactly on
    budget - guard, never past it, so the caller always has the full guard
    window left inside the slot.
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
            continue
        while now < quiet and elapsed < deadline - 1e-9:
            step = deadline - elapsed
            now += poll_interval if poll_interval < step else step
            elapsed = now - t0
        backend.advance_to(now)


def checkpoint_now(state: RunState, cluster: Cluster, store: CheckpointStore,
                   run_id: str, volume_id: str, seq: int, created_at: float,
                   running: RunningDigest | None = None
                   ) -> tuple[Checkpoint, Chain, float, RunState]:
    """Pause the cluster and snapshot the data volume with a progress marker.

    Returns the checkpoint, a committed length of volume `volume_id`, its
    content, the simulated write duration, and the updated run state
    (need_migration set, origin recorded).  The content is hashed through
    `running`, the run's digest, or in full without one.
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
    running = running or RunningDigest()
    ckpt = Checkpoint(run_id=run_id, seq=seq, progress=progress,
                      digest=running.hexdigest(content),
                      origin_system=cluster.system.id, created_at=created_at + duration)
    store.save(ckpt, content, volume_id)
    new_state = replace(state, phase=Phase.CHECKPOINTING, need_migration=True,
                        last_host_system=cluster.system.id)
    return ckpt, content, duration, new_state


def transfer_and_restore(ckpt: Checkpoint, content: Chain | bytes,
                         from_system: ComputeSystem | None,
                         to_system: ComputeSystem, backend: Backend,
                         running: RunningDigest | None = None) -> None:
    """Move checkpoint bytes onto the target system and verify integrity.

    Transfer time is charged at the slower of the two systems' networks; a
    digest mismatch is retried once before giving up.  The delivered bytes
    are hashed through `running`, the run's digest, or in full without one.
    The store is not touched: the checkpoint's bytes are already committed
    to the volume, which the run extends only when it saves or completes.
    """
    running = running or RunningDigest()
    if from_system is not None:
        bandwidth = min(from_system.net_bandwidth_native, to_system.net_bandwidth_native)
    else:
        bandwidth = to_system.net_bandwidth_native
    seconds = len(content) / (bandwidth * MB) if content else 0.0

    for attempt in (1, 2):
        backend.charge(seconds, "data_transfer", to_system.hosts[0].id)
        fault = backend.take_fault("transfer", to_system.hosts[0].id)
        candidate = content if fault is None else _corrupt(bytes(content))
        if running.hexdigest(candidate) == ckpt.digest:
            break
        backend.log.append(backend.now(), "transfer_digest_mismatch",
                           to_system.hosts[0].id, stage="data", ok=False, attempt=attempt)
    else:
        raise MigrationError(
            f"checkpoint digest mismatch after retry while moving to {to_system.id}")

    backend.charge(0.0, "restore_checkpoint", to_system.hosts[0].id)


def _corrupt(content: bytes) -> bytes:
    if not content:
        return b"\x00"
    return bytes([content[0] ^ 0xFF]) + content[1:]


# ---------------------------------------------------------------------------
# the workflow loop


BackendFactory = Callable[[ComputeSystem], Backend]


def derive_run_id(app: AppSpec, seed: int) -> str:
    digest = hashlib.sha256(f"{canonical_json(to_json(app))}:{seed}".encode()).hexdigest()
    return f"run-{digest[:12]}"


def run_workflow(pool: ResourcePool, app: AppSpec, data: DataVolume,
                 hardware: HardwareConfig, backend_factory: BackendFactory,
                 store_dir: str | Path, *, cfg: SimConfig | None = None,
                 run_id: str | None = None, loop_pool: bool = False,
                 resume_from: Checkpoint | None = None,
                 resume_content: Chain | bytes | None = None) -> RunResult:
    """Run the application across the pool until done, stalled, or failed.

    Volume contents travel as Chains.  Every hash of them goes through one
    RunningDigest that lives as long as this call: each slot's checkpoint is
    the chain the previous slot hashed plus the part the app appended, so
    only that part is hashed again.  A checkpoint is a committed length of
    volume `data.id`, and this call's one VolumeStore proves by identity that
    a chain extends the bytes it last read or wrote, so a save appends only
    that part.  A fresh run's input is the first `data.byte_size` bytes of
    volume `data.id`, checked against `data.content_digest`.  A resume is
    checked against its checkpoint's digest before anything is stored; when
    the store has no volume `data.id` yet, it is created from the checked
    bytes.  The output must equal or extend the volume's committed bytes.
    The run's state is recorded twice per slot,
    as the slot starts on its system (migrating or deploying) and as the app
    starts running there, and once as the run ends; a call that ends by an
    exception, an interrupt included, records phase `failed` before it
    re-raises.
    """
    cfg = cfg or SimConfig()
    problems = validate(pool, app, hardware)
    if problems:
        raise OrchestratorError("invalid inputs: " +
                                "; ".join(f"{v.field}: {v.message}" for v in problems))

    run_id = run_id or derive_run_id(app, cfg.seed)
    problem = run_id_problem(run_id)
    if problem:
        raise OrchestratorError(f"run_id: {problem}")
    running = RunningDigest()
    if resume_from is not None:
        if resume_content is None:
            raise OrchestratorError("resume requires the checkpoint content")
        # one chain for the check, the store and staging, so that each later
        # hash and append finds these bytes by identity
        resume_content = Chain.of(resume_content)
        if running.hexdigest(resume_content) != resume_from.digest:
            raise MigrationError("checkpoint corrupt: content does not match its digest")
    status = StatusWriter(store_dir, run_id)
    state = RunState()
    try:
        cstore = CheckpointStore(store_dir)
        vstore = cstore.volumes
        work_total = quantize_work(app.work_total)

        if resume_from is None:
            if not vstore.exists(data.id):
                raise OrchestratorError(f"input volume {data.id} not found in store")
            stored = vstore.content(data.id)
            initial = stored[:data.byte_size]  # `stored` itself if no longer: chains share it
            if running.hexdigest(initial) != data.content_digest:
                raise StorageError(f"volume {data.id}: its first {data.byte_size} bytes "
                                   "are not the run's input")
            # bytes past the input must begin as this run's output will, or
            # storing the output would be refused at completion, after every slot
            first = first_output_block(app.name, work_total)
            if not first.startswith(stored[data.byte_size:data.byte_size + BLOCK_BYTES]):
                raise StorageError(f"volume {data.id}: the run's output does not begin "
                                   f"with its {len(stored)} committed bytes")
            del stored

        def store_output(content: Chain | bytes, digest: str) -> DataVolume:
            volume = vstore.write(data.id, content, digest)
            if volume.byte_size != len(content):
                raise StorageError(f"volume {data.id}: the run's output does not extend "
                                   f"its {volume.byte_size} committed bytes")
            return volume

        ckpt = resume_from
        ckpt_content = resume_content
        seq = resume_from.seq if resume_from else 0
        if resume_from is not None:
            # a checkpoint without an origin (stall before any slot ran) loads like
            # initial data; anything else migrates from its recorded origin
            state = RunState(phase=Phase.INIT,
                             need_migration=resume_from.origin_system is not None,
                             last_host_system=resume_from.origin_system,
                             progress=resume_from.progress)
            if not vstore.exists(data.id):
                vstore.create(data.id, ckpt_content, digest=resume_from.digest)
            if resume_from.progress >= work_total:
                # a complete checkpoint holds the output
                result = RunResult(Outcome.COMPLETED,
                                   store_output(ckpt_content, resume_from.digest), ())
                status.state(replace(state, phase=Phase.COMPLETE, need_migration=False))
                status.result(result)
                return result

        systems = {s.id: s for s in pool.systems}
        queue = deque(pool.systems)
        history: list[SlotRecord] = []
        wall = 0.0
        no_progress_slots = 0

        def finish(outcome: Outcome, volume: DataVolume | None) -> RunResult:
            result = RunResult(outcome, volume, tuple(history))
            status.state(state)
            status.result(result)
            return result

        while queue:
            system = queue.popleft()
            if loop_pool:
                queue.append(system)
                if no_progress_slots >= len(pool.systems):
                    break
            # every exit from the slot releases the backend's agents and temp dirs
            with closing(backend_factory(system)) as backend:
                backend.stage = "data"
                state = replace(state, phase=Phase.MIGRATING if state.need_migration
                                else Phase.DEPLOYING, current_system=system.id)
                status.state(state)

                # data staging: restore a checkpoint or load the initial volume
                try:
                    if state.need_migration and ckpt is not None and ckpt_content is not None:
                        origin = systems.get(ckpt.origin_system) if ckpt.origin_system else None
                        transfer_and_restore(ckpt, ckpt_content, origin, system, backend, running)
                        # the transfer delivered these bytes once their digest matched
                        content = ckpt_content
                    else:
                        # a resume from a checkpoint without an origin stages its
                        # checked bytes; a fresh run stages the input
                        content = ckpt_content if ckpt_content is not None else initial
                        backend.charge(len(content) / (system.disk_bandwidth_native.write * MB),
                                       "load_initial_data", system.hosts[0].id)
                except MigrationError:
                    state = replace(state, phase=Phase.FAILED, current_system=None)
                    return finish(Outcome.FAILED, None)
                backend.stage_volume(content, state.progress)

                # deploy the virtual cluster; a slot that fails at any step below,
                # before the app ran or while it ran, ends at the one exit after it
                cname = f"{run_id}-s{len(history) + 1}"
                cluster = outcome = None
                try:
                    cluster = deploy_cluster(system.hosts, app, cname, hardware, backend)
                except DeploymentError:
                    pass
                else:
                    guard = guard_seconds(len(content), work_total,
                                          state.progress, system.disk_bandwidth_native.write,
                                          system.time_slot)
                    backend.log.append(backend.now(), "guard_computed", system.hosts[0].id,
                                       stage="monitor", seconds=guard)
                    # a slot too small to even checkpoint in is unusable for this app
                    if guard < system.time_slot:
                        state = replace(state, phase=Phase.RUNNING)
                        status.state(state)
                        outcome = monitor(cluster, system.time_slot, guard, cfg.poll_interval)

                if outcome is not None and outcome.result is MonitorResult.COMPLETED:
                    try:
                        final_content = backend.fetch_volume(cluster.master_ref)
                    except BackendOpError:  # the app finished, but its node is gone
                        outcome = replace(outcome, result=MonitorResult.FAILED)
                    else:
                        volume = store_output(final_content, running.hexdigest(final_content))
                        cluster.stop()
                        delta = work_total - state.progress
                        history.append(SlotRecord(system.id, outcome.elapsed, delta,
                                                  SlotEnd.COMPLETION))
                        state = replace(state, phase=Phase.COMPLETE, progress=work_total,
                                        slots_consumed=state.slots_consumed + 1,
                                        current_system=None)
                        return finish(Outcome.COMPLETED, volume)

                # guard fired: checkpoint and migrate (or fail if the app cannot)
                if outcome is not None and outcome.result is MonitorResult.GUARD_FIRED \
                        and app.checkpointable:
                    seq += 1
                    try:
                        ckpt, ckpt_content, ckpt_duration, state = checkpoint_now(
                            state, cluster, cstore, run_id, data.id, seq, wall + backend.now(),
                            running)
                    except (CheckpointWriteError, BackendOpError):
                        pass
                    else:
                        cluster.stop()
                        delta = ckpt.progress - state.progress
                        no_progress_slots = 0 if delta > 0 else no_progress_slots + 1
                        history.append(SlotRecord(system.id, outcome.elapsed + ckpt_duration,
                                                  delta, SlotEnd.TIMESLOT_CHECKPOINT))
                        state = replace(state, phase=Phase.MIGRATING, progress=ckpt.progress,
                                        slots_consumed=state.slots_consumed + 1,
                                        current_system=None)
                        wall += backend.now()
                        continue

                # the slot failed: a slot the app never ran in passes to the next
                # system, one it ran in fails the run
                if cluster is not None:
                    cluster.stop()
                history.append(SlotRecord(system.id, outcome.elapsed if outcome else 0.0, 0.0,
                                          SlotEnd.FAILURE))
                state = replace(state, slots_consumed=state.slots_consumed + 1)
                if outcome is not None:
                    state = replace(state, phase=Phase.FAILED, current_system=None)
                    return finish(Outcome.FAILED, None)
                wall += backend.now()
                no_progress_slots += 1

        # pool exhausted with work remaining: persist the last checkpoint
        if ckpt is None:
            seq += 1
            ckpt = Checkpoint(run_id=run_id, seq=seq, progress=state.progress,
                              digest=data.content_digest,
                              origin_system=state.last_host_system, created_at=wall)
            cstore.save(ckpt, initial, data.id)
        state = replace(state, phase=Phase.STALLED, current_system=None)
        return finish(Outcome.STALLED_WITH_CHECKPOINT, None)
    except BaseException:
        status.state(replace(state, phase=Phase.FAILED, current_system=None))
        raise
