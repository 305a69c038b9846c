import json
import math
import random

import pytest

from bee.model import MB
from bee.storage import VolumeStore, sha256_hex
from bee.workload import make_input_bytes, volume_content
from bee.cluster import deploy_cluster
from bee.orchestrator import (
    Checkpoint,
    CheckpointStore,
    CheckpointUnsupported,
    MigrationError,
    MonitorResult,
    Outcome,
    SlotEnd,
    checkpoint_now,
    guard_seconds,
    monitor,
    run_workflow,
    transfer_and_restore,
)
from bee.backends import SimConfig, make_backend
from conftest import make_app, make_hardware, make_pool, make_system

EXACT_CFG = dict(backend="sim-hpc", cpu_overhead_fraction=0.0)


def run(pool, app, store, seed=7, cfg=None, **kwargs):
    cfg = cfg or SimConfig(seed=seed, **EXACT_CFG)
    vstore = VolumeStore(store)
    if not vstore.exists(f"{app.name}-in"):
        vstore.create(f"{app.name}-in", make_input_bytes(seed, app.name, 4096))
    volume = vstore.volume(f"{app.name}-in")
    return run_workflow(pool, app, volume, make_hardware(),
                        lambda s: make_backend(s, cfg), store, cfg=cfg, **kwargs)


class TestRunWorkflow:
    def test_single_slot_completion(self, tmp_path):
        pool = make_pool(make_system("alpha", time_slot=100.0))
        app = make_app(work_total=30.0, process_count=1)
        result = run(pool, app, tmp_path, run_id="r1")
        assert result.outcome is Outcome.COMPLETED
        assert len(result.history) == 1
        assert result.history[0].ended_by is SlotEnd.COMPLETION
        # migration machinery never engaged: no checkpoint directories exist
        assert CheckpointStore(tmp_path).latest("r1") is None
        state = json.loads((tmp_path / "r1" / "state.json").read_text())
        assert state["need_migration"] is False

    def test_three_slot_trace_matches_hand_model(self, tmp_path):
        # Oracle: with zero virtualization overhead, one process, one vcpu and
        # unit compute rate the cluster earns exactly one work unit per second.
        # The guard is 5% of the 100 s slot (the snapshot estimate is far
        # smaller), so each slot contributes 95 units before checkpointing.
        slot, rate = 100.0, 1.0
        usable = slot - 0.05 * slot
        work = 2.5 * usable  # 237.5: two full slots plus half of a third
        pool = make_pool(make_system("alpha", time_slot=slot, cpu_rate=rate),
                         make_system("beta", time_slot=slot, cpu_rate=rate),
                         make_system("gamma", time_slot=slot, cpu_rate=rate))
        app = make_app(work_total=work, process_count=1)
        result = run(pool, app, tmp_path)

        assert result.outcome is Outcome.COMPLETED
        assert [r.system_id for r in result.history] == ["alpha", "beta", "gamma"]
        assert [r.ended_by for r in result.history] == [
            SlotEnd.TIMESLOT_CHECKPOINT, SlotEnd.TIMESLOT_CHECKPOINT, SlotEnd.COMPLETION]
        assert [r.progress_delta for r in result.history] == [usable, usable, work - 2 * usable]
        # completion lands between whole-second polls; detection on the next poll
        assert result.history[2].slot_duration_used == pytest.approx(
            math.ceil(work - 2 * usable), abs=1e-9)
        # checkpoint slots consume the guard deadline plus the snapshot write
        for rec, units in zip(result.history[:2], (usable, 2 * usable)):
            content_len = 4096 + 32 * int(units)
            assert rec.slot_duration_used == pytest.approx(
                95.0 + content_len / (500.0 * MB), abs=1e-9)

    def test_pool_exhausted_persists_checkpoint(self, tmp_path):
        pool = make_pool(make_system("alpha", time_slot=50.0),
                         make_system("beta", time_slot=50.0))
        app = make_app(work_total=10_000.0, process_count=1)
        result = run(pool, app, tmp_path, run_id="r2")
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT
        assert result.output_volume is None
        path = CheckpointStore(tmp_path).latest("r2")
        assert path is not None
        assert CheckpointStore(tmp_path).verify(path)

    def test_stalled_then_resumed_matches_uninterrupted(self, tmp_path):
        app = make_app(work_total=300.0, process_count=1)
        small = make_pool(make_system("alpha", time_slot=100.0))
        big = make_pool(make_system("alpha", time_slot=100.0),
                        make_system("omega", time_slot=400.0))

        stalled_dir = tmp_path / "stalled"
        result = run(small, app, stalled_dir, run_id="r3")
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT
        store = CheckpointStore(stalled_dir)
        ckpt, content = store.load(store.latest("r3"))
        fresh = make_pool(make_system("omega", time_slot=400.0))
        resumed = run(fresh, app, stalled_dir, run_id="r3",
                      resume_from=ckpt, resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED

        straight = run(big, app, tmp_path / "straight", run_id="r4")
        assert straight.outcome is Outcome.COMPLETED
        assert resumed.output_volume.content_digest == \
            straight.output_volume.content_digest

    def test_resume_restores_progress_marker_exactly(self, tmp_path):
        app = make_app(work_total=300.0, process_count=1)
        result = run(make_pool(make_system("alpha", time_slot=100.0)), app,
                     tmp_path, run_id="r5")
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT
        store = CheckpointStore(tmp_path)
        ckpt, content = store.load(store.latest("r5"))
        assert ckpt.progress == result.history[0].progress_delta
        resumed = run(make_pool(make_system("beta", time_slot=400.0)), app,
                      tmp_path, run_id="r5", resume_from=ckpt, resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        assert resumed.history[0].progress_delta == app.work_total - ckpt.progress

    def test_stall_without_any_checkpoint_still_resumable(self, tmp_path):
        # every deploy fails, so the stall checkpoint is synthesized at zero
        # progress with no origin system; resuming treats it as initial data
        cfg = SimConfig(seed=7, **EXACT_CFG)

        def broken_factory(system):
            backend = make_backend(system, cfg)
            backend.inject_fault("create_vm", times=10)
            return backend

        app = make_app(work_total=40.0, process_count=1)
        vstore = VolumeStore(tmp_path)
        volume = vstore.create(f"{app.name}-in", b"seed-bytes")
        result = run_workflow(make_pool(make_system("alpha")), app, volume,
                              make_hardware(), broken_factory, tmp_path,
                              cfg=cfg, run_id="r7")
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT
        store = CheckpointStore(tmp_path)
        ckpt, content = store.load(store.latest("r7"))
        assert ckpt.origin_system is None and ckpt.progress == 0.0

        resumed = run(make_pool(make_system("beta", time_slot=400.0)), app,
                      tmp_path, run_id="r7", resume_from=ckpt,
                      resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        assert resumed.output_volume.content_digest == sha256_hex(
            volume_content(app.name, b"seed-bytes", 40.0))

    def test_resume_of_completed_checkpoint_is_immediate(self, tmp_path):
        app = make_app(work_total=10.0, process_count=1)
        vstore = VolumeStore(tmp_path)
        content = volume_content(app.name, b"seed", 10.0)
        vstore.create(f"{app.name}-in", content)
        ckpt = Checkpoint(run_id="r6", seq=3, progress=10.0,
                          digest=sha256_hex(content), origin_system="alpha",
                          created_at=12.0)
        result = run(make_pool(make_system("alpha")), app, tmp_path, run_id="r6",
                     resume_from=ckpt, resume_content=content)
        assert result.outcome is Outcome.COMPLETED
        assert result.history == ()

    def test_deploy_failure_tries_next_system(self, tmp_path):
        cfg = SimConfig(seed=7, **EXACT_CFG)
        pool = make_pool(make_system("bad", time_slot=100.0),
                         make_system("good", time_slot=100.0))

        def factory(system):
            backend = make_backend(system, cfg)
            if system.id == "bad":
                backend.inject_fault("create_vm", times=10)
            return backend

        app = make_app(work_total=30.0, process_count=1)
        vstore = VolumeStore(tmp_path)
        volume = vstore.create("v", b"x" * 1024)
        result = run_workflow(pool, app, volume, make_hardware(), factory,
                              tmp_path, cfg=cfg)
        assert result.outcome is Outcome.COMPLETED
        assert [(r.system_id, r.ended_by) for r in result.history] == [
            ("bad", SlotEnd.FAILURE), ("good", SlotEnd.COMPLETION)]
        assert result.history[0].slot_duration_used == 0.0

    def test_checkpoint_write_failure_fails_run(self, tmp_path):
        cfg = SimConfig(seed=7, **EXACT_CFG)

        def factory(system):
            backend = make_backend(system, cfg)
            backend.inject_fault("checkpoint_write")
            return backend

        app = make_app(work_total=10_000.0, process_count=1)
        vstore = VolumeStore(tmp_path)
        volume = vstore.create("v", b"x" * 1024)
        result = run_workflow(make_pool(make_system("alpha")), app, volume,
                              make_hardware(), factory, tmp_path, cfg=cfg)
        assert result.outcome is Outcome.FAILED
        assert result.history[-1].ended_by is SlotEnd.FAILURE

    def test_non_checkpointable_app_fails_at_guard(self, tmp_path):
        pool = make_pool(make_system("alpha", time_slot=50.0),
                         make_system("beta", time_slot=50.0))
        app = make_app(work_total=10_000.0, process_count=1, checkpointable=False)
        result = run(pool, app, tmp_path)
        assert result.outcome is Outcome.FAILED
        assert len(result.history) == 1  # the workflow stops, no second system
        assert result.history[0].ended_by is SlotEnd.FAILURE

    def test_node_failure_mid_run_fails_run(self, tmp_path):
        cfg = SimConfig(seed=7, **EXACT_CFG)

        def factory(system):
            backend = make_backend(system, cfg)
            backend.inject_fault("run", at_time=50.0)
            return backend

        app = make_app(work_total=10_000.0, process_count=1)
        vstore = VolumeStore(tmp_path)
        volume = vstore.create("v", b"x" * 1024)
        result = run_workflow(make_pool(make_system("alpha", time_slot=200.0)),
                              app, volume, make_hardware(), factory, tmp_path, cfg=cfg)
        assert result.outcome is Outcome.FAILED

    def test_unusably_small_slot_is_skipped(self, tmp_path):
        # snapshot of the volume cannot fit in this slot, so the system is
        # recorded as a failure and the run proceeds to the next one
        tiny = make_system("tiny", time_slot=0.001, disk_write=0.01)
        good = make_system("good", time_slot=100.0)
        app = make_app(work_total=30.0, process_count=1)
        result = run(make_pool(tiny, good), app, tmp_path)
        assert result.outcome is Outcome.COMPLETED
        assert result.history[0].ended_by is SlotEnd.FAILURE
        assert result.history[0].slot_duration_used == 0.0

    @pytest.mark.parametrize("backend_kind,system_kind", [
        ("sim-hpc", "hpc"),
        ("sim-cloud-aws", "cloud-aws-like"),
        ("sim-cloud-baremetal", "cloud-baremetal-like"),
    ])
    def test_workflow_completes_on_every_sim_backend(self, tmp_path, backend_kind,
                                                     system_kind):
        from bee.model import SystemKind

        cfg = SimConfig(backend=backend_kind, seed=7, cpu_overhead_fraction=0.0)
        pool = make_pool(make_system("alpha", time_slot=100.0,
                                     kind=SystemKind(system_kind),
                                     host_file_sharing=True))
        app = make_app(work_total=30.0, process_count=1)
        result = run(pool, app, tmp_path, cfg=cfg)
        assert result.outcome is Outcome.COMPLETED
        expected = volume_content(app.name, make_input_bytes(7, app.name, 4096), 30.0)
        assert result.output_volume.content_digest == sha256_hex(expected)

    def test_loop_pool_reuses_systems_until_done(self, tmp_path):
        # 95 units per pass on a single system; 300 units takes four passes
        pool = make_pool(make_system("alpha", time_slot=100.0))
        app = make_app(work_total=300.0, process_count=1)
        result = run(pool, app, tmp_path, loop_pool=True)
        assert result.outcome is Outcome.COMPLETED
        assert [r.system_id for r in result.history] == ["alpha"] * 4
        assert math.fsum(r.progress_delta for r in result.history) == 300.0

    def test_loop_pool_stalls_when_no_progress_possible(self, tmp_path):
        # the slot is too small to checkpoint this volume, so a full pass makes
        # no progress and the loop gives up instead of spinning forever
        pool = make_pool(make_system("tiny", time_slot=0.001, disk_write=0.01))
        app = make_app(work_total=50.0, process_count=1)
        result = run(pool, app, tmp_path, run_id="loopstall", loop_pool=True)
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT

    def test_checkpoint_manifest_fields(self, tmp_path):
        pool = make_pool(make_system("alpha", time_slot=100.0))
        app = make_app(work_total=300.0, process_count=1)
        run(pool, app, tmp_path, run_id="mf")
        manifest = json.loads(
            (CheckpointStore(tmp_path).latest("mf") / "manifest.json").read_text())
        assert set(manifest) == {"run_id", "seq", "progress", "digest",
                                 "origin_system", "created_at"}
        assert manifest["run_id"] == "mf" and manifest["origin_system"] == "alpha"

    def test_slots_consumed_matches_history(self, tmp_path):
        pool = make_pool(make_system("alpha", time_slot=100.0),
                         make_system("beta", time_slot=100.0))
        app = make_app(work_total=150.0, process_count=1)
        result = run(pool, app, tmp_path, run_id="sc")
        state = json.loads((tmp_path / "sc" / "state.json").read_text())
        assert state["slots_consumed"] == len(result.history)

    def test_conservation_and_order_random_suite(self, tmp_path):
        rng = random.Random(99)
        for case in range(15):
            systems = [make_system(f"s{case}-{i}", n_hosts=2,
                                   time_slot=rng.uniform(20.0, 200.0),
                                   cpu_rate=rng.uniform(0.2, 2.0))
                       for i in range(rng.randint(1, 4))]
            app = make_app(name=f"app{case}", work_total=rng.randint(1, 300),
                           process_count=rng.randint(1, 2))
            result = run(make_pool(*systems), app, tmp_path / f"c{case}",
                         seed=case)
            ids = [s.id for s in systems]
            positions = [ids.index(r.system_id) for r in result.history]
            assert positions == sorted(positions)
            assert len(positions) == len(set(positions))
            if result.outcome is Outcome.COMPLETED:
                assert math.fsum(r.progress_delta for r in result.history) == app.work_total
            for rec, system in zip(result.history, systems):
                assert rec.slot_duration_used <= system.time_slot
                assert rec.progress_delta >= 0.0


class TestMonitor:
    def _running_cluster(self, work_total, time_slot=100.0, fault_at=None):
        system = make_system("alpha", time_slot=time_slot)
        backend = make_backend(system, SimConfig(seed=7, **EXACT_CFG))
        app = make_app(work_total=work_total, process_count=1)
        backend.stage_volume(b"seed")
        cluster = deploy_cluster(system.hosts, app, "c1", make_hardware(), backend)
        if fault_at is not None:
            backend.inject_fault("run", at_time=backend.now() + fault_at)
        return cluster

    def test_completion_before_guard(self):
        cluster = self._running_cluster(work_total=30.0)
        outcome = monitor(cluster, budget=100.0, guard=10.0)
        assert outcome.result is MonitorResult.COMPLETED
        assert outcome.elapsed == pytest.approx(30.0, abs=1e-9)

    def test_guard_fires_at_deadline(self):
        cluster = self._running_cluster(work_total=200.0)
        outcome = monitor(cluster, budget=100.0, guard=10.0)
        assert outcome.result is MonitorResult.GUARD_FIRED
        assert outcome.elapsed == pytest.approx(90.0, abs=1e-9)

    def test_node_failure_reported(self):
        cluster = self._running_cluster(work_total=200.0, fault_at=50.0)
        outcome = monitor(cluster, budget=100.0, guard=10.0)
        assert outcome.result is MonitorResult.FAILED
        assert outcome.elapsed == pytest.approx(50.0, abs=1.0)


class TestCheckpointOps:
    def _cluster(self, checkpointable=True):
        system = make_system("alpha", time_slot=100.0)
        backend = make_backend(system, SimConfig(seed=7, **EXACT_CFG))
        app = make_app(work_total=50.0, process_count=1,
                       checkpointable=checkpointable)
        backend.stage_volume(b"input-bytes")
        cluster = deploy_cluster(system.hosts, app, "c1", make_hardware(), backend)
        return cluster, backend

    def test_checkpoint_reflects_progress_marker(self, tmp_path):
        from bee.model import RunState

        cluster, backend = self._cluster()
        backend.wait(10.0)
        store = CheckpointStore(tmp_path)
        ckpt, content, duration, state = checkpoint_now(
            RunState(), cluster, store, "r", 1, created_at=backend.now())
        assert ckpt.progress == 10.0
        assert content == volume_content("demo", b"input-bytes", 10.0)
        assert ckpt.digest == sha256_hex(content)
        assert state.need_migration and state.last_host_system == "alpha"
        assert store.verify(store.latest("r"))

    def test_back_to_back_checkpoints_identical_digest(self, tmp_path):
        from bee.model import RunState

        cluster, backend = self._cluster()
        backend.wait(10.0)
        store = CheckpointStore(tmp_path)
        first, _, _, _ = checkpoint_now(RunState(), cluster, store, "r", 1,
                                        created_at=0.0)
        second, _, _, _ = checkpoint_now(RunState(), cluster, store, "r", 2,
                                         created_at=0.0)
        assert first.digest == second.digest
        assert first.progress == second.progress

    def test_non_checkpointable_rejected(self, tmp_path):
        cluster, _ = self._cluster(checkpointable=False)
        from bee.model import RunState

        with pytest.raises(CheckpointUnsupported):
            checkpoint_now(RunState(), cluster, CheckpointStore(tmp_path), "r", 1, 0.0)


class TestTransfer:
    def _fixture(self, tmp_path, content=b"d" * (1 << 20), fault_times=0):
        src = make_system("src", net_bw=100.0)
        dst = make_system("dst", net_bw=200.0)
        backend = make_backend(dst, SimConfig(seed=7, **EXACT_CFG))
        if fault_times:
            backend.inject_fault("transfer", times=fault_times)
        vstore = VolumeStore(tmp_path)
        vstore.create("v", content)
        ckpt = Checkpoint(run_id="r", seq=1, progress=5.0,
                          digest=sha256_hex(content), origin_system="src",
                          created_at=0.0)
        return ckpt, content, src, dst, backend, vstore

    def test_transfer_time_uses_slower_network(self, tmp_path):
        ckpt, content, src, dst, backend, vstore = self._fixture(tmp_path)
        vol = transfer_and_restore(ckpt, content, src, dst, backend, vstore, "v")
        assert vol.location == "dst"
        charges = [e for e in backend.events() if e.kind == "data_transfer"]
        assert charges[0].detail["seconds"] == pytest.approx(0.01, abs=1e-9)

    def test_zero_byte_volume_transfers_instantly(self, tmp_path):
        ckpt, content, src, dst, backend, vstore = self._fixture(tmp_path, content=b"")
        vol = transfer_and_restore(ckpt, b"", src, dst, backend, vstore, "v")
        assert vol.content_digest == sha256_hex(b"")
        charges = [e for e in backend.events() if e.kind == "data_transfer"]
        assert charges[0].detail["seconds"] == 0.0

    def test_corruption_retried_once_then_succeeds(self, tmp_path):
        ckpt, content, src, dst, backend, vstore = self._fixture(
            tmp_path, content=b"payload", fault_times=1)
        vol = transfer_and_restore(ckpt, b"payload", src, dst, backend, vstore, "v")
        assert vol.content_digest == ckpt.digest
        mismatches = [e for e in backend.events()
                      if e.kind == "transfer_digest_mismatch"]
        assert len(mismatches) == 1

    def test_persistent_corruption_fails_migration(self, tmp_path):
        ckpt, content, src, dst, backend, vstore = self._fixture(
            tmp_path, content=b"payload", fault_times=2)
        with pytest.raises(MigrationError):
            transfer_and_restore(ckpt, b"payload", src, dst, backend, vstore, "v")


class TestGuardRule:
    def test_margin_always_covers_snapshot(self):
        rng = random.Random(5)
        for _ in range(200):
            vol_bytes = rng.randint(0, 1 << 26)
            work = rng.uniform(1.0, 500.0)
            progress = rng.uniform(0.0, work)
            write_bw = rng.uniform(10.0, 1000.0)
            slot = rng.uniform(1.0, 1000.0)
            guard = guard_seconds(vol_bytes, work, progress, write_bw, slot)
            worst_snapshot = (vol_bytes + 32 * (work - progress + 1)) / (write_bw * MB)
            assert guard >= worst_snapshot
            assert guard >= 0.05 * slot
