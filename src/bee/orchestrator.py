"""Cross-system run loop: deploy, monitor, checkpoint near slot expiry, migrate.

Systems are tried in pool priority order, each at most once per pass.  A run
that outlives a slot is paused and checkpointed inside a guard window sized so
the snapshot always completes before the slot expires; the checkpoint then
migrates to the next system.  With the pool exhausted the last checkpoint is
persisted and the run reports stalled.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from collections import deque
from contextlib import closing
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable

from bee.model import (
    MB,
    AppSpec,
    ComputeSystem,
    DataVolume,
    HardwareConfig,
    ParseError,
    Phase,
    ResourcePool,
    RunState,
    canonical_json,
    from_json,
    load_json_file,
    quantize_work,
    run_state_to_dict,
    to_json,
    validate,
)
from bee.storage import Chain, RunningDigest, VolumeStore, extend_file, sha256_hex, write_new_file
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


# ---------------------------------------------------------------------------
# checkpoint store: <store>/<run_id>/<seq>/manifest.json, bytes in segment files


def run_id_problem(run_id: str) -> str | None:
    """Why run_id cannot name a run's directory in the store, or None if it can.

    A run id is one path component, so no run writes outside its store.
    """
    if run_id in ("", ".", "..") or any(c in run_id for c in "/\\\0"):
        return f"not a single path component: {run_id!r}"
    return None


@dataclass(frozen=True)
class Checkpoint:
    run_id: str
    seq: int
    progress: float
    digest: str
    origin_system: str | None
    created_at: float


@dataclass(frozen=True)
class _Manifest(Checkpoint):
    """manifest.json: a checkpoint and where its bytes are, namely the first
    `length` bytes of the segment file in the directory of seq `segment`.

    The layout stays off Checkpoint, which is the same record wherever its
    bytes are kept.
    """

    segment: int
    length: int

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(**{f.name: getattr(self, f.name) for f in fields(Checkpoint)})


class CheckpointStore:
    """Checkpoints as manifests over append-only segment files.

    Checkpoint `seq` of a run is <root>/<run_id>/<seq>/manifest.json.  Its
    bytes are the first `length` bytes of the segment file
    <root>/<run_id>/<segment>/volume.bin.  A save whose content is a Chain
    that extends the chain this instance last committed (or adopted) appends
    only the new parts to that segment; any other save starts a segment of
    its own (segment == seq), written in full.  So a directory holding only
    {manifest.json, volume.bin} is a complete checkpoint.

    The manifest is written last and is the commit record.  Bytes past the
    committed length are the tail of a save cut off before its manifest, and
    the next append cuts them off.  No save changes a byte that a committed
    manifest covers: before writing anything, save k removes the run's
    manifests with a seq >= k, which an earlier run of the same id left and
    which may name a segment that this save rewrites or extends.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # (run id, segment, content) of this instance's last committed save or
        # adopted checkpoint; the chain is held by reference, not copied
        self._last: tuple[str, int, Chain] | None = None

    def _dir(self, run_id: str, seq: int) -> Path:
        return self.root / run_id / str(seq)

    def save(self, ckpt: Checkpoint, content: Chain | bytes) -> Path:
        """Commit `content` as checkpoint `ckpt`; returns the manifest's directory."""
        chain = Chain.of(content)
        self._drop_from(ckpt.run_id, ckpt.seq)
        d = self._dir(ckpt.run_id, ckpt.seq)
        d.mkdir(parents=True, exist_ok=True)
        last_run, segment, committed = self._last or (None, 0, Chain())
        if last_run == ckpt.run_id and segment < ckpt.seq and chain.extends(committed):
            extend_file(self._dir(ckpt.run_id, segment) / "volume.bin", len(committed), chain)
        else:
            segment = ckpt.seq
            write_new_file(d / "volume.bin", chain)
        manifest = to_json(ckpt) | {"segment": segment, "length": len(chain)}
        (d / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
        self._last = (ckpt.run_id, segment, chain)
        return d

    def adopt(self, run_id: str, ckpt: Checkpoint, content: Chain) -> None:
        """Let run `run_id`'s next save append to the segment of checkpoint `ckpt`.

        `ckpt.digest` must be the SHA-256 of exactly `content`, checked by the
        caller.  The segment is adopted only when this store's manifest for
        (run_id, ckpt.seq) names that digest and len(content), and its segment
        file holds at least that many bytes.  No save changes a committed
        byte, so the segment then holds `content` as its first bytes.  In any
        other case, such as a checkpoint copied from elsewhere, the next save
        starts a segment of its own.
        """
        try:
            m = self._manifest(self._dir(run_id, ckpt.seq))
            size = (self._dir(run_id, m.segment) / "volume.bin").stat().st_size
        except (OSError, ParseError):
            return
        if (m.run_id, m.seq, m.digest, m.length) == \
                (run_id, ckpt.seq, ckpt.digest, len(content)) and size >= m.length:
            self._last = (run_id, m.segment, content)

    def _drop_from(self, run_id: str, seq: int) -> None:
        """Remove the run's checkpoints with a seq >= `seq`, each manifest first."""
        run_dir = self.root / run_id
        if not run_dir.exists():
            return
        for d in run_dir.iterdir():
            if d.name.isdigit() and int(d.name) >= seq and d.is_dir():
                (d / "manifest.json").unlink(missing_ok=True)
                shutil.rmtree(d)

    def _manifest(self, d: Path) -> _Manifest:
        m = from_json(_Manifest, load_json_file(d / "manifest.json"), "manifest")
        problem = run_id_problem(m.run_id)
        if problem:
            raise ParseError(f"manifest.run_id: {problem}")
        if m.seq < 1:
            raise ParseError(f"manifest.seq: expected at least 1, got {m.seq}")
        if not 1 <= m.segment <= m.seq:
            raise ParseError(f"manifest.segment: expected 1 to seq ({m.seq}), got {m.segment}")
        if m.length < 0:
            raise ParseError(f"manifest.length: expected at least 0, got {m.length}")
        return m

    def load(self, path: str | Path) -> tuple[Checkpoint, bytes]:
        """The checkpoint whose manifest is in directory `path`, and its bytes.

        A checkpoint that starts its segment reads the volume.bin beside its
        manifest, so such a directory loads wherever it is copied to.  A
        missing or short segment raises MigrationError.
        """
        d = Path(path)
        m = self._manifest(d)
        segment = d if m.segment == m.seq else d.parent / str(m.segment)
        try:
            with open(segment / "volume.bin", "rb") as fh:
                short = os.fstat(fh.fileno()).st_size < m.length
                content = b"" if short else fh.read(m.length)
        except FileNotFoundError:
            short = True
        if short:
            raise MigrationError(f"checkpoint corrupt: segment {m.segment} does not "
                                 f"hold the checkpoint's {m.length} bytes")
        return m.checkpoint(), content

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
            except (OSError, ParseError):
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
                   run_id: str, seq: int, created_at: float,
                   running: RunningDigest | None = None
                   ) -> tuple[Checkpoint, Chain, float, RunState]:
    """Pause the cluster and snapshot the data volume with a progress marker.

    Returns the checkpoint, its content, the simulated write duration, and the
    updated run state (need_migration set, origin recorded).  The content is
    hashed through `running`, the run's digest, or in full without one.
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
    store.save(ckpt, content)
    new_state = replace(state, phase=Phase.CHECKPOINTING, need_migration=True,
                        last_host_system=cluster.system.id)
    return ckpt, content, duration, new_state


def transfer_and_restore(ckpt: Checkpoint, content: Chain | bytes,
                         from_system: ComputeSystem | None,
                         to_system: ComputeSystem, backend: Backend,
                         vstore: VolumeStore, volume_id: str,
                         running: RunningDigest | None = None) -> DataVolume:
    """Move checkpoint bytes onto the target system and verify integrity.

    Transfer time is charged at the slower of the two systems' networks; a
    digest mismatch is retried once before giving up.  The delivered bytes
    are hashed through `running`, the run's digest, or in full without one.
    The data volume moves to the target system; its stored bytes stay the
    run's input until the run completes.
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

    vol = vstore.move(volume_id, to_system.id)
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
    """state.json and result.json of one run.

    A new writer removes the result.json of an earlier run of the same id,
    so status never shows one run's state beside another's result.
    """

    def __init__(self, store_root: Path, run_id: str):
        self.dir = store_root / run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "result.json").unlink(missing_ok=True)
        self.last = RunState()

    def state(self, state: RunState) -> None:
        self.last = state
        (self.dir / "state.json").write_text(canonical_json(run_state_to_dict(state)),
                                             encoding="utf-8")

    def result(self, run_id: str, result: RunResult) -> None:
        doc = {"run_id": run_id} | to_json(result)
        (self.dir / "result.json").write_text(canonical_json(doc), encoding="utf-8")


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
    only that part is hashed again.  The checkpoint store likewise appends
    only that part to the run's segment.  A resume is checked against its
    manifest digest before anything is stored; when the store has no volume
    `data.id` yet, it is created from the checked bytes, and when the store
    holds the checkpoint's segment, the next checkpoint appends to it.
    The data volume's stored bytes are the input until the run completes,
    and its output after that.  A call that ends by an exception, an
    interrupt included, records phase `failed` before it re-raises.
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
            raise MigrationError("checkpoint corrupt: content does not match manifest digest")
    status = _StatusWriter(Path(store_dir), run_id)
    try:
        vstore = VolumeStore(store_dir)
        cstore = CheckpointStore(store_dir)
        work_total = quantize_work(app.work_total)

        if resume_from is None and not vstore.exists(data.id):
            raise OrchestratorError(f"input volume {data.id} not found in store")

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
            cstore.adopt(run_id, resume_from, ckpt_content)
            if not vstore.exists(data.id):
                vstore.create(data.id, ckpt_content, digest=resume_from.digest)
            elif resume_from.progress >= work_total:
                # a complete checkpoint holds the output
                if vstore.volume(data.id).location != "detached":
                    vstore.detach(data.id)
                vstore.write(data.id, ckpt_content, resume_from.digest)
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
            # every exit from the slot releases the backend's agents and temp dirs
            with closing(backend_factory(system)) as backend:
                backend.set_stage("data")
                state = replace(state, phase=Phase.MIGRATING if state.need_migration
                                else Phase.DEPLOYING, current_system=system.id)
                status.state(state)

                # data staging: restore a checkpoint or load the initial volume
                try:
                    if state.need_migration and ckpt is not None and ckpt_content is not None:
                        origin = systems.get(ckpt.origin_system) if ckpt.origin_system else None
                        transfer_and_restore(ckpt, ckpt_content, origin, system, backend,
                                             vstore, data.id, running)
                        # the transfer delivered these bytes once their digest matched
                        content = ckpt_content
                    else:
                        # a resume from a checkpoint without an origin stages its
                        # checked bytes; a fresh run stages the input
                        content = ckpt_content if ckpt_content is not None \
                            else vstore.content(data.id)
                        backend.charge(len(content) / (system.disk_bandwidth_native.write * MB),
                                       "load_initial_data", system.hosts[0].id)
                        vstore.move(data.id, system.id)
                except MigrationError:
                    state = replace(state, phase=Phase.FAILED, current_system=None)
                    return finish(Outcome.FAILED, None)
                backend.stage_volume(content)
                backend.set_progress_base(state.progress)

                # deploy the virtual cluster; a slot that fails at any step below,
                # before the app ran or while it ran, ends at the one exit after it
                state = replace(state, phase=Phase.DEPLOYING)
                status.state(state)
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
                    final_content = backend.fetch_volume(cluster.master_ref)
                    volume = vstore.write(data.id, final_content,
                                          running.hexdigest(final_content))
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
                            state, cluster, cstore, run_id, seq, wall + backend.now(), running)
                    except CheckpointWriteError:
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
                        status.state(state)
                        continue

                # the slot failed: a slot the app never ran in passes to the next
                # system, one it ran in fails the run
                if cluster is not None:
                    cluster.stop()
                vstore.detach(data.id)
                history.append(SlotRecord(system.id, outcome.elapsed if outcome else 0.0, 0.0,
                                          SlotEnd.FAILURE))
                state = replace(state, slots_consumed=state.slots_consumed + 1)
                if outcome is not None:
                    state = replace(state, phase=Phase.FAILED, current_system=None)
                    return finish(Outcome.FAILED, None)
                wall += backend.now()
                no_progress_slots += 1
                status.state(state)

        # pool exhausted with work remaining: persist the last checkpoint
        if ckpt is None:
            seq += 1
            content = vstore.content(data.id)
            ckpt = Checkpoint(run_id=run_id, seq=seq, progress=state.progress,
                              digest=running.hexdigest(content),
                              origin_system=state.last_host_system, created_at=wall)
            cstore.save(ckpt, content)
        state = replace(state, phase=Phase.STALLED, current_system=None)
        return finish(Outcome.STALLED_WITH_CHECKPOINT, None)
    except BaseException:
        status.state(replace(status.last, phase=Phase.FAILED, current_system=None))
        raise
