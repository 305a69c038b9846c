import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from bee.model import MB, WORK_QUANTUM, quantize_work
from bee.storage import VolumeStore, sha256_hex
from bee.workload import append_output, make_input_bytes, volume_content
from bee.cluster import Cluster, deploy_cluster
from bee.backends.base import NodeFailure
from bee.orchestrator import (
    Checkpoint,
    CheckpointStore,
    CheckpointUnsupported,
    MigrationError,
    MonitorOutcome,
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


def polling_monitor(cluster, budget, guard, poll_interval=1.0):
    """Oracle: the monitor before quiet_until, polling progress on every tick."""
    backend = cluster.backend
    target = quantize_work(cluster.app.work_total)
    deadline = budget - guard
    t0 = backend.now()
    while True:
        elapsed = backend.now() - t0
        try:
            progress = cluster.progress()
        except NodeFailure:
            return MonitorOutcome(MonitorResult.FAILED, elapsed)
        if progress >= target:
            return MonitorOutcome(MonitorResult.COMPLETED, elapsed)
        if elapsed >= deadline - 1e-9:
            return MonitorOutcome(MonitorResult.GUARD_FIRED, elapsed)
        backend.wait(min(poll_interval, deadline - elapsed))


def tick_times(t0, deadline, poll_interval):
    """Clock readings of the monitor's ticks, built by the same float steps."""
    ticks = [t0]
    while ticks[-1] - t0 < deadline - 1e-9:
        ticks.append(ticks[-1] + min(poll_interval, deadline - (ticks[-1] - t0)))
    return ticks


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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_skipping_quiet_ticks_matches_polling_every_tick(self, data):
        cpu_rate = data.draw(st.floats(0.05, 20.0), label="cpu_rate")
        base_fraction = data.draw(st.floats(0.0, 1.0), label="base_fraction")
        io_read = data.draw(st.integers(1, 64 << 20), label="io_read")
        io_write = data.draw(st.integers(0, 64 << 20), label="io_write")
        poll = data.draw(st.sampled_from([0.25, 0.3, 1.0]), label="poll_interval")
        budget = data.draw(st.floats(1.0, 400.0), label="budget")
        guard = budget * data.draw(st.floats(0.0, 0.9), label="guard_fraction")
        lead = data.draw(st.floats(0.0, 30.0), label="lead")
        pause = data.draw(st.sampled_from(["none", "paused", "resumed"]), label="pause")
        pause_len = data.draw(st.floats(0.0, 30.0), label="pause_len")

        def twin(work_total):
            system = make_system("alpha", time_slot=1000.0, cpu_rate=cpu_rate)
            backend = make_backend(system, SimConfig(seed=3, **EXACT_CFG))
            app = make_app(work_total=work_total, process_count=1,
                           io_read=io_read, io_write=io_write)
            backend.stage_volume(b"seed")
            backend.set_progress_base(quantize_work(base_fraction * work_total))
            cluster = deploy_cluster(system.hosts, app, "c1", make_hardware(), backend)
            backend.wait(lead)
            if pause != "none":
                cluster.pause()
            if pause == "resumed":
                backend.wait(pause_len)
                cluster.resume()
            return cluster

        # Deploy timing does not depend on the work total, so a probe twin
        # gives the tick times and the app's run parameters.
        probe = twin(1.0)
        run_state = probe.backend._app
        assert run_state.io_duration > 0
        t0 = probe.backend.now()
        ticks = tick_times(t0, budget - guard, poll)
        if data.draw(st.booleans(), label="complete_near_tick"):
            # work that is done within a quantum of one tick: the edge where
            # quantize_work's rounding to nearest finishes the app early
            assume(base_fraction <= 0.9)
            tick = data.draw(st.sampled_from(ticks), label="tick")
            active = tick - run_state.started_at - run_state.paused_total - \
                run_state.io_duration
            nudge = data.draw(st.floats(-1.0, 1.0), label="nudge") * WORK_QUANTUM
            work_total = run_state.rate * active / (1.0 - base_fraction) + nudge
            assume(work_total >= 1.0)
        else:
            work_total = data.draw(st.floats(1.0, 2000.0), label="work_total")

        new, old = twin(work_total), twin(work_total)
        faults = data.draw(st.lists(st.sampled_from(["before_start", "on_tick", "between",
                                                     "past_deadline"]),
                                    max_size=2), label="faults")
        for kind in faults:
            if kind == "before_start":
                at = data.draw(st.floats(0.0, t0), label="fault_at")
            elif kind == "on_tick":
                at = data.draw(st.sampled_from(ticks), label="fault_at")
            elif kind == "between":
                at = data.draw(st.floats(t0, ticks[-1]), label="fault_at")
            else:
                at = ticks[-1] + data.draw(st.floats(1e-6, 100.0), label="fault_after")
            for cluster in (new, old):
                cluster.backend.inject_fault("run", host=cluster.master_ref.host_id,
                                             at_time=at)

        got = monitor(new, budget, guard, poll)
        want = polling_monitor(old, budget, guard, poll)
        assert got.result is want.result
        assert got.elapsed.hex() == want.elapsed.hex()
        assert new.backend.now().hex() == old.backend.now().hex()
        assert [(e.t.hex(), e.kind, e.node, e.detail) for e in new.backend.log.events] == \
            [(e.t.hex(), e.kind, e.node, e.detail) for e in old.backend.log.events]

    def test_polls_per_slot_not_per_simulated_second(self, tmp_path, monkeypatch):
        calls = []
        real_progress = Cluster.progress

        def counting_progress(cluster):
            calls.append(cluster.backend.now())
            return real_progress(cluster)

        monkeypatch.setattr(Cluster, "progress", counting_progress)
        pool = make_pool(make_system("alpha", time_slot=86_400.0),
                         make_system("beta", time_slot=86_400.0))
        app = make_app(work_total=100_000.0, process_count=1)
        result = run(pool, app, tmp_path, run_id="long")
        assert [r.ended_by for r in result.history] == \
            [SlotEnd.TIMESLOT_CHECKPOINT, SlotEnd.COMPLETION]
        # the final guard tick, the checkpoint's reading, and the ticks
        # around completion; polling every second would make ~86 400 per slot
        assert len(calls) <= 3 * len(result.history)


class TestCheckpointStore:
    def test_latest_skips_sequence_without_committed_manifest(self, tmp_path):
        app = make_app(work_total=300.0, process_count=1)
        stalled = run(make_pool(make_system("alpha", time_slot=100.0)), app, tmp_path,
                      run_id="torn")
        assert stalled.outcome is Outcome.STALLED_WITH_CHECKPOINT
        store = CheckpointStore(tmp_path)
        committed = store.latest("torn")
        assert committed == tmp_path / "torn" / "1"

        # a save cut off between volume.bin and manifest.json
        cut = tmp_path / "torn" / "2"
        cut.mkdir()
        (cut / "volume.bin").write_bytes(b"partial volume")
        assert store.latest("torn") == committed
        (cut / "manifest.json").write_text('{"run_id":', encoding="utf-8")
        assert store.latest("torn") == committed

        ckpt, content = store.load(store.latest("torn"))
        resumed = run(make_pool(make_system("omega", time_slot=400.0)), app, tmp_path,
                      run_id="torn", resume_from=ckpt, resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        assert resumed.output_volume.content_digest == sha256_hex(
            volume_content(app.name, make_input_bytes(7, app.name, 4096), 300.0))

    def test_latest_none_when_nothing_committed(self, tmp_path):
        cut = tmp_path / "r" / "1"
        cut.mkdir(parents=True)
        (cut / "volume.bin").write_bytes(b"partial volume")
        assert CheckpointStore(tmp_path).latest("r") is None


class TestOutputVolume:
    @given(name=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
           base=st.integers(0, 2000), units=st.integers(0, 300))
    def test_one_sha256_block_per_unit(self, name, base, units):
        expected = b"seed" + b"".join(hashlib.sha256(f"{name}:{i}".encode()).digest()
                                      for i in range(base + 1, base + units + 1))
        assert append_output(name, b"seed", float(base), float(base + units)) == expected


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
