import contextlib
import hashlib
import math
import os
import random
import signal
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from bee.model import MB, WORK_QUANTUM, DataVolume, quantize_work
from bee.storage import (Chain, RunningDigest, StorageError, VolumeStore, append_record,
                         read_log, sha256_hex)
import bee.workload
from bee.workload import AppRun, JOIN_BLOCKS, append_output, make_input_bytes, volume_content
from bee.cluster import Cluster, deploy_cluster
from bee.backends.base import NodeFailure
from bee.backends.simhpc import SimHpcBackend
from bee.orchestrator import (
    Checkpoint,
    CheckpointStore,
    CheckpointUnsupported,
    MigrationError,
    MonitorOutcome,
    MonitorResult,
    OrchestratorError,
    Outcome,
    SlotEnd,
    checkpoint_now,
    guard_seconds,
    monitor,
    run_workflow,
    transfer_and_restore,
)
from bee.backends import SimConfig, make_backend
from conftest import (commit_record, count_compares, counting_hashlib, make_app,
                      make_hardware, make_pool, make_system, run_state, traced_peak)

EXACT_CFG = dict(backend="sim-hpc", cpu_overhead_fraction=0.0)


def count_payload_writes(monkeypatch) -> list[tuple[str, int]]:
    """The file name and the bytes of each payload write (an extension of a
    file) from now on; JSON records are not payload."""
    import bee.storage

    written = []
    real_extend = bee.storage.extend_file

    def counting_extend(path, committed, content):
        written.append((path.name, len(content) - committed))
        real_extend(path, committed, content)

    monkeypatch.setattr(bee.storage, "extend_file", counting_extend)
    return written


_made: list[str] | None = None  # what the audit hook records, while a test records


def _record_creation(event, args):
    if _made is None or not isinstance(args[0], (str, bytes, os.PathLike)):
        return  # not recording, or opening a descriptor
    if event == "open" and args[2] & os.O_CREAT and not os.path.exists(args[0]):
        _made.append(os.fsdecode(args[0]))
    elif event == "os.mkdir" and not os.path.exists(args[0]):
        _made.append(os.fsdecode(args[0]) + "/")
    elif event == "os.rename":  # os.replace raises this event too
        _made.append(f"rename {os.fsdecode(args[0])} -> {os.fsdecode(args[1])}")


sys.addaudithook(_record_creation)


@contextlib.contextmanager
def _creations():
    """The files (and directories, as "<path>/") created inside the block, and
    each rename (as "rename <old> -> <new>"), in order."""
    global _made
    _made = made = []
    try:
        yield made
    finally:
        _made = None


def run(pool, app, store, seed=7, cfg=None, input_size=4096, **kwargs):
    """run_workflow on volume <app>-in, whose first `input_size` bytes are
    the seeded input; a store without the volume gets it."""
    cfg = cfg or SimConfig(seed=seed, **EXACT_CFG)
    initial = make_input_bytes(seed, app.name, input_size)
    vstore = VolumeStore(store)
    if not vstore.exists(f"{app.name}-in"):
        vstore.create(f"{app.name}-in", initial)
    volume = DataVolume(id=f"{app.name}-in", byte_size=len(initial),
                        content_digest=sha256_hex(initial))
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
        assert run_state(tmp_path, "r1").need_migration is False

    def test_state_is_written_as_each_slot_starts_and_runs_and_as_the_run_ends(
            self, tmp_path, monkeypatch):
        import bee.storage

        written = []
        real = bee.storage.append_record

        def recording(path, doc):
            if "state" in doc:
                state = doc["state"]
                written.append((state["phase"], state["current_system"],
                                state["slots_consumed"]))
            real(path, doc)

        monkeypatch.setattr(bee.storage, "append_record", recording)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(3)))
        result = run(pool, make_app(work_total=2.5 * 95.0, process_count=1), tmp_path,
                     run_id="r")
        assert result.outcome is Outcome.COMPLETED
        # a checkpoint's progress is first written as the next slot starts
        assert written == [("deploying", "s0", 0), ("running", "s0", 0),
                           ("migrating", "s1", 1), ("running", "s1", 1),
                           ("migrating", "s2", 2), ("running", "s2", 2),
                           ("complete", None, 3)]

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

    def test_off_lattice_work_total_completes_with_its_quantized_output(self, tmp_path):
        # quantize_work rounds 0.7 of a quantum up: the app's last progress
        # value is the lattice point the monitor waits for, not the raw total
        work_total = 30.0 + 0.7 * WORK_QUANTUM
        pool = make_pool(make_system("alpha", time_slot=100.0),
                         make_system("beta", time_slot=100.0))
        app = make_app(work_total=work_total, process_count=1)
        result = run(pool, app, tmp_path)
        assert result.outcome is Outcome.COMPLETED
        assert [r.ended_by for r in result.history] == [SlotEnd.COMPLETION]
        assert result.output_volume.content_digest == sha256_hex(volume_content(
            app.name, make_input_bytes(7, app.name, 4096), quantize_work(work_total)))

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

    # the five ways a slot can fail: (first system, checkpointable, fault, fatal)
    SLOT_FAILURES = {
        "deploy": (dict(), True, dict(action="create_vm", times=10), False),
        "slot_too_small": (dict(time_slot=0.001, disk_write=0.01), True, None, False),
        "monitor": (dict(), True, dict(action="run", at_time=50.0), True),
        "not_checkpointable": (dict(), False, None, True),
        "checkpoint_write": (dict(), True, dict(action="checkpoint_write"), True),
    }

    @pytest.mark.parametrize("case", list(SLOT_FAILURES))
    def test_failed_slot_stops_detaches_and_records_once(self, tmp_path, case):
        first_kwargs, checkpointable, fault, fatal = self.SLOT_FAILURES[case]
        cfg = SimConfig(seed=7, **EXACT_CFG)
        backends = {}

        def factory(system):
            backend = backends[system.id] = make_backend(system, cfg)
            if system.id == "first" and fault is not None:
                backend.inject_fault(**fault)
            return backend

        pool = make_pool(make_system("first", **{"time_slot": 100.0, **first_kwargs}),
                         make_system("good", time_slot=100_000.0))
        app = make_app(work_total=10_000.0, process_count=1, checkpointable=checkpointable)
        vstore = VolumeStore(tmp_path)
        volume = vstore.create("v", b"x" * 1024)
        result = run_workflow(pool, app, volume, make_hardware(), factory, tmp_path,
                              cfg=cfg, run_id="r")
        failed = result.history[0]
        assert (failed.system_id, failed.progress_delta, failed.ended_by) == \
            ("first", 0.0, SlotEnd.FAILURE)
        assert (failed.slot_duration_used > 0) is fatal
        stops = [e for e in backends["first"].log.events if e.kind == "stop"]
        assert len(stops) == (0 if case == "deploy" else 1)
        state = run_state(tmp_path, "r")
        if fatal:
            assert result.outcome is Outcome.FAILED and len(result.history) == 1
            assert (state.phase.value, state.slots_consumed, state.current_system) == \
                ("failed", 1, None)
            assert vstore.volume("v").location == "detached"
        else:
            assert result.outcome is Outcome.COMPLETED
            assert [r.ended_by for r in result.history[1:]] == [SlotEnd.COMPLETION]
            assert (state.phase.value, state.slots_consumed) == ("complete", 2)

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
        pool = make_pool(make_system("alpha", time_slot=100.0),
                         make_system("beta", time_slot=100.0))
        app = make_app(work_total=300.0, process_count=1)
        run(pool, app, tmp_path, run_id="mf")
        latest = CheckpointStore(tmp_path).latest("mf")
        manifest = commit_record(tmp_path / "mf", int(latest.name))
        assert set(manifest) == {"run_id", "seq", "progress", "digest",
                                 "origin_system", "created_at", "volume", "length"}
        assert manifest["run_id"] == "mf" and manifest["origin_system"] == "beta"
        # the latest checkpoint is all of the run's volume's committed bytes
        data = tmp_path / "volumes" / "demo-in" / "data.bin"
        assert (manifest["seq"], manifest["volume"]) == (2, "demo-in")
        assert manifest["length"] == data.stat().st_size == \
            VolumeStore(tmp_path).volume("demo-in").byte_size
        assert manifest["digest"] == sha256_hex(data.read_bytes())

    def test_slots_consumed_matches_history(self, tmp_path):
        pool = make_pool(make_system("alpha", time_slot=100.0),
                         make_system("beta", time_slot=100.0))
        app = make_app(work_total=150.0, process_count=1)
        result = run(pool, app, tmp_path, run_id="sc")
        assert run_state(tmp_path, "sc").slots_consumed == len(result.history)

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

    def test_quiet_ticks_move_the_clock_in_one_call(self, monkeypatch):
        cluster = self._running_cluster(work_total=86_000.0, time_slot=86_400.0)
        backend = cluster.backend
        calls = []
        for name in ("wait", "advance_to"):
            def counted(t, real=getattr(backend, name), name=name):
                calls.append(name)
                real(t)
            monkeypatch.setattr(backend, name, counted)
        outcome = monitor(cluster, budget=86_400.0, guard=100.0)
        assert outcome.result is MonitorResult.COMPLETED
        assert outcome.elapsed == pytest.approx(86_000.0, abs=1e-6)
        # the quiet ticks in one advance_to, then a wait per tick near
        # completion; a wait per quiet tick made about 86 000 calls
        assert calls[0] == "advance_to" and len(calls) <= 4

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
            backend.stage_volume(b"seed", quantize_work(base_fraction * work_total))
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
        assert run_state.io_seconds > 0
        t0 = probe.backend.now()
        ticks = tick_times(t0, budget - guard, poll)
        if data.draw(st.booleans(), label="complete_near_tick"):
            # work that is done within a quantum of one tick: the edge where
            # quantize_work's rounding to nearest finishes the app early
            assume(base_fraction <= 0.9)
            tick = data.draw(st.sampled_from(ticks), label="tick")
            active = tick - run_state.started_at - run_state.paused_total - \
                run_state.io_seconds
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

        # a save cut off between its bytes and its commit record
        with open(tmp_path / "volumes" / "demo-in" / "data.bin", "ab") as fh:
            fh.write(b"partial volume")
        assert store.latest("torn") == committed
        with open(tmp_path / "torn" / "log", "ab") as fh:
            fh.write(b'{"commit":{"run_id":')
        assert store.latest("torn") == committed

        ckpt, content = store.load(store.latest("torn"))
        resumed = run(make_pool(make_system("omega", time_slot=400.0)), app, tmp_path,
                      run_id="torn", resume_from=ckpt, resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        assert resumed.output_volume.content_digest == sha256_hex(
            volume_content(app.name, make_input_bytes(7, app.name, 4096), 300.0))

    @pytest.mark.parametrize("run_id", ["..", ".", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_run_id_that_is_not_one_path_component_is_refused(self, tmp_path, run_id):
        store = tmp_path / "store"
        app = make_app(work_total=30.0, process_count=1)
        with pytest.raises(OrchestratorError, match="run_id"):
            run(make_pool(make_system("alpha")), app, store, run_id=run_id)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
        assert sorted(p.name for p in store.iterdir()) == ["volumes"]

    def test_latest_none_when_nothing_committed(self, tmp_path):
        (tmp_path / "r").mkdir()
        append_record(tmp_path / "r" / "log", {"drop": 1})
        with open(tmp_path / "r" / "log", "ab") as fh:
            fh.write(b'{"commit":{"run_id":')  # a commit cut off halfway
        assert CheckpointStore(tmp_path).latest("r") is None


class SimulatedCrash(Exception):
    """Stands for the process dying at a chosen write."""


def crash_in_append(monkeypatch, call, half):
    """Make the `call`-th append to a file that holds bytes die, with all of
    its tail written or only half of it; the records after it are never
    written."""
    import bee.storage

    real = bee.storage.extend_file
    calls = []

    def extend(path, committed, content):
        if committed:
            calls.append(path)
        if committed and len(calls) == call:
            if half:
                content = bytes(content)[:committed + (len(content) - committed) // 2]
            real(path, committed, content)
            raise SimulatedCrash(path)
        real(path, committed, content)

    monkeypatch.setattr(bee.storage, "extend_file", extend)


def checkpoint(seq, content, run_id="r"):
    return Checkpoint(run_id=run_id, seq=seq, progress=float(seq),
                      digest=sha256_hex(bytes(content)), origin_system="alpha",
                      created_at=0.0)


STREAM = make_input_bytes(11, "stream", 1024)  # one deterministic output stream


class TestSegment:
    """A checkpoint is a committed length of its volume's data.bin: no save
    changes a byte that a live commit covers, wherever a save is cut off and
    whichever run reuses the run id."""

    def _migrating_app(self):
        return make_app(work_total=4 * 95.0 + 50.0, process_count=1)

    @pytest.mark.parametrize("half", [False, True], ids=["whole_tail", "half_tail"])
    def test_cut_off_append_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch,
                                                          half):
        app = self._migrating_app()
        clean = run(make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5))),
                    app, tmp_path / "clean", run_id="r")
        store = tmp_path / "store"
        crash_in_append(monkeypatch, 3, half)  # checkpoint 3
        with pytest.raises(SimulatedCrash):
            run(make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5))),
                app, store, run_id="r")
        monkeypatch.undo()

        cstore = CheckpointStore(store)
        assert cstore.latest("r") == store / "r" / "2"
        ckpt, content = cstore.load(store / "r" / "2")
        assert ckpt.seq == 2 and cstore.verify(store / "r" / "2")
        assert (store / "volumes" / "demo-in" / "data.bin").stat().st_size > len(content)
        state = run_state(store, "r")
        assert (state.phase.value, state.progress) == ("failed", ckpt.progress)

        resumed = run(make_pool(*(make_system(f"b{i}", time_slot=100.0) for i in range(3))),
                      app, store, run_id="r", resume_from=ckpt, resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        assert resumed.output_volume.content_digest == clean.output_volume.content_digest

    @pytest.mark.parametrize("half", [False, True], ids=["whole_tail", "half_tail"])
    def test_same_store_commits_the_next_save_after_a_cut_off_append(self, tmp_path,
                                                                    monkeypatch, half):
        a = Chain(make_input_bytes(7, "demo", 1000))
        b = a + b"tail of two" * 10
        c = b + b"three" * 30
        store = CheckpointStore(tmp_path)
        store.volumes.create("v", a)
        store.save(checkpoint(1, a), a, "v")
        store.save(checkpoint(2, b), b, "v")
        crash_in_append(monkeypatch, 1, half)
        with pytest.raises(SimulatedCrash):
            store.save(checkpoint(3, c), c, "v")
        monkeypatch.undo()
        data = tmp_path / "volumes" / "v" / "data.bin"
        assert store.latest("r") == tmp_path / "r" / "2"
        assert len(b) < data.stat().st_size <= len(c)

        store.save(checkpoint(3, c), c, "v")
        assert store.latest("r") == tmp_path / "r" / "3"
        assert data.read_bytes() == bytes(c)  # the cut-off tail was cut off, not kept
        for seq, content in ((1, a), (2, b), (3, c)):
            assert store.load(tmp_path / "r" / str(seq))[1] == bytes(content)
            assert store.verify(tmp_path / "r" / str(seq))

    def test_reused_run_id_leaves_latest_loadable(self, tmp_path):
        app = make_app(work_total=1000.0, process_count=1)
        first = run(make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(3))),
                    app, tmp_path, run_id="r")
        assert [r.ended_by for r in first.history] == [SlotEnd.TIMESLOT_CHECKPOINT] * 3
        # the second run's only checkpoint is a shorter prefix of the same bytes
        second = run(make_pool(make_system("slow", time_slot=100.0, cpu_rate=0.5)),
                     app, tmp_path, run_id="r")
        assert second.outcome is Outcome.STALLED_WITH_CHECKPOINT
        cstore = CheckpointStore(tmp_path)
        assert cstore.latest("r") == tmp_path / "r" / "1"
        ckpt, content = cstore.load(cstore.latest("r"))
        assert cstore.verify(cstore.latest("r"))
        assert ckpt.progress == second.history[0].progress_delta
        assert content == volume_content(app.name, make_input_bytes(7, app.name, 4096),
                                         ckpt.progress)
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["log"]

    def test_only_the_committed_parts_prove_an_extension(self, tmp_path, monkeypatch):
        compared = count_compares(monkeypatch)
        a = Chain(bytes(bytearray(b"first checkpoint")))
        b = a + b" and its tail"
        store = CheckpointStore(tmp_path)
        store.volumes.create("v", a)
        store.save(checkpoint(1, a), a, "v")
        store.save(checkpoint(2, b), b, "v")  # extends the chain the store holds
        assert compared == []
        # equal bytes in other objects prove nothing: they are read and compared
        c = Chain(bytes(bytearray(b"first checkpoint")), b" and its tail", b" and more")
        store.save(checkpoint(3, c), c, "v")
        # so are plain bytes, which are a chain of one new part
        d = bytes(c) + b"!"
        store.save(checkpoint(4, d), d, "v")
        assert compared == [(0, len(b)), (0, len(c))]
        for seq, content in ((1, a), (2, b), (3, c), (4, d)):
            assert commit_record(tmp_path / "r", seq)["length"] == len(content)
            assert store.load(tmp_path / "r" / str(seq))[1] == bytes(content)
            assert store.verify(tmp_path / "r" / str(seq))

    def test_a_run_extends_each_checkpoint_by_identity(self, tmp_path, monkeypatch):
        compared, saves = count_compares(monkeypatch), []
        real_save = CheckpointStore.save

        def save(store, ckpt, content, volume_id):
            saves.append(ckpt.seq)
            return real_save(store, ckpt, content, volume_id)

        monkeypatch.setattr(CheckpointStore, "save", save)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        assert run(pool, self._migrating_app(), tmp_path, run_id="r").outcome is \
            Outcome.COMPLETED
        # every save, and the output at completion, is handed a chain built on
        # the input the run read: no committed byte is read back to compare
        assert saves == [1, 2, 3, 4]
        assert compared == []

    def test_missing_or_short_segment_is_a_corrupt_checkpoint(self, tmp_path):
        # the checkpoints' bytes are their volume's data.bin
        a = Chain(b"first checkpoint")
        b = a + b" and its tail"
        store = CheckpointStore(tmp_path)
        store.volumes.create("v", a)
        store.save(checkpoint(1, a), a, "v")
        store.save(checkpoint(2, b), b, "v")
        data = tmp_path / "volumes" / "v" / "data.bin"
        data.write_bytes(bytes(b)[:-1])
        assert store.load(tmp_path / "r" / "1")[1] == bytes(a)
        with pytest.raises(MigrationError, match="checkpoint corrupt"):
            store.load(tmp_path / "r" / "2")
        data.unlink()
        for seq in (1, 2):
            with pytest.raises(MigrationError, match="checkpoint corrupt"):
                store.load(tmp_path / "r" / str(seq))

    @settings(max_examples=80, deadline=None)
    @given(base=st.integers(0, 64),
           ops=st.lists(st.one_of(st.tuples(st.just("extend"), st.integers(0, 48)),
                                  st.tuples(st.just("resume"), st.integers(0, 99)),
                                  st.tuples(st.just("reopen")),
                                  st.tuples(st.just("disagree"), st.integers(0, 999),
                                            st.integers(0, 48)),
                                  st.tuples(st.just("corrupt"))), max_size=12))
    def test_chains_hash_and_commit_exactly_their_bytes(self, base, ops):
        from bee.orchestrator import _corrupt

        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            running, store = RunningDigest(), CheckpointStore(root)
            current = Chain(STREAM[:base])
            store.volumes.create("v", current)
            data, log = root / "volumes" / "v" / "data.bin", root / "r" / "log"
            live, seq = {}, 0  # live: seq -> (checkpoint, bytes)

            for op, *args in ops:
                if op == "extend":  # the run's next output, saved
                    current = current + STREAM[len(current):len(current) + args[0]]
                    seq += 1
                    digest = running.hexdigest(current)
                    assert digest == sha256_hex(bytes(current))
                    ckpt = Checkpoint(run_id="r", seq=seq, progress=float(len(current)),
                                      digest=digest, origin_system=None, created_at=0.0)
                    store.save(ckpt, current, "v")
                    live = {k: v for k, v in live.items() if k < seq}
                    live[seq] = (ckpt, bytes(current))
                elif op == "resume" and live:
                    # from any live commit, by a new run's digest and store:
                    # its saves are shorter than the committed bytes until
                    # they pass them, and its first save compares
                    seq = sorted(live)[args[0] % len(live)]
                    running, store = RunningDigest(), CheckpointStore(root)
                    ckpt, content = store.load(root / "r" / str(seq))
                    current = Chain(content)
                    assert running.hexdigest(current) == ckpt.digest
                elif op == "reopen":  # the same run, by a store that holds no chain
                    store = CheckpointStore(root)
                elif op == "disagree":
                    committed = VolumeStore(root).volume("v").byte_size
                    whole = bytearray(STREAM[:len(current) + args[1]])
                    if not min(len(whole), committed):
                        continue
                    whole[args[0] % min(len(whole), committed)] ^= 1
                    before = data.read_bytes(), log.read_bytes() if log.exists() else b""
                    ckpt = Checkpoint(run_id="r", seq=seq + 1, progress=0.0,
                                      digest=sha256_hex(bytes(whole)), origin_system=None,
                                      created_at=0.0)
                    with pytest.raises(StorageError, match="does not agree"):
                        store.save(ckpt, Chain(bytes(whole)), "v")
                    assert (data.read_bytes(), log.read_bytes() if log.exists() else b"") \
                        == before
                elif op == "corrupt":  # a delivery that is refused, not stored
                    delivered = _corrupt(bytes(current))
                    assert running.hexdigest(delivered) == sha256_hex(delivered)

                # every live commit loads its bytes, which match its digest,
                # and the committed bytes are a prefix of the stream
                reader = CheckpointStore(root)
                assert reader.latest("r") == (root / "r" / str(max(live)) if live else None)
                for k, (ckpt, content) in live.items():
                    assert reader.load(root / "r" / str(k)) == (ckpt, content)
                    assert sha256_hex(content) == ckpt.digest
                vol = VolumeStore(root).volume("v")
                committed = data.read_bytes()[:vol.byte_size]
                assert committed == STREAM[:vol.byte_size]
                assert vol.content_digest == sha256_hex(committed)


class TestStoreIo:
    """Each run hashes its volume in full once, then only the bytes each slot
    appends, and writes each checkpoint's bytes to one file."""

    def _migrating_app(self):
        # 95 units per 100 s slot: four guard-fired slots, then completion
        return make_app(work_total=4 * 95.0 + 50.0, process_count=1)

    def test_hashes_one_volume_plus_the_appended_bytes(self, tmp_path, monkeypatch):
        import bee.storage

        vstore = VolumeStore(tmp_path)
        app = self._migrating_app()
        initial = make_input_bytes(7, app.name, 1 << 16)
        volume = vstore.create(f"{app.name}-in", initial)
        fed, reads = [], []
        real_content = VolumeStore.content

        def counting_content(store, volume_id):
            reads.append(volume_id)
            return real_content(store, volume_id)

        monkeypatch.setattr(bee.storage, "hashlib", counting_hashlib(fed))
        monkeypatch.setattr(VolumeStore, "content", counting_content)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        cfg = SimConfig(seed=7, **EXACT_CFG)
        result = run_workflow(pool, app, volume, make_hardware(),
                              lambda s: make_backend(s, cfg), tmp_path, cfg=cfg,
                              run_id="hashes")

        migrated = [r for r in result.history if r.ended_by is SlotEnd.TIMESLOT_CHECKPOINT]
        assert len(migrated) == 4
        assert result.history[-1].ended_by is SlotEnd.COMPLETION
        # the first checkpoint is hashed in full; every later hash (delivery,
        # next checkpoint, final output) covers only what the app appended
        appended = result.output_volume.byte_size - len(initial)
        assert appended > 0
        assert sum(n for _, n in fed) <= len(initial) + appended + 64
        # only the initial load reads the volume back from the store
        assert len(reads) <= 1

    def test_corrupted_delivery_leaves_later_digests_correct(self, tmp_path):
        app = self._migrating_app()
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        clean = run(pool, app, tmp_path / "clean", run_id="r")

        cfg = SimConfig(seed=7, **EXACT_CFG)
        backends = []

        def factory(system):
            backend = make_backend(system, cfg)
            if system.id == "s1":  # the first delivery arrives corrupted once
                backend.inject_fault("transfer", times=1)
            backends.append(backend)
            return backend

        store = tmp_path / "faulty"
        volume = VolumeStore(store).create(f"{app.name}-in",
                                           make_input_bytes(7, app.name, 4096))
        result = run_workflow(pool, app, volume, make_hardware(), factory, store,
                              cfg=cfg, run_id="r")

        assert sum(e.kind == "transfer_digest_mismatch"
                   for b in backends for e in b.log.events) == 1
        assert [r.ended_by for r in result.history] == [r.ended_by for r in clean.history]
        # s1 takes checkpoint 2 right after the corrupted delivery
        for seq in (2, 3, 4):
            manifest = commit_record(store / "r", seq)
            data = store / "volumes" / manifest["volume"] / "data.bin"
            on_disk = data.read_bytes()[:manifest["length"]]
            assert len(on_disk) == manifest["length"]
            assert manifest["digest"] == hashlib.sha256(on_disk).hexdigest()
        assert result.output_volume.content_digest == clean.output_volume.content_digest
        data = (store / "volumes" / volume.id / "data.bin").read_bytes()
        assert hashlib.sha256(data).hexdigest() == clean.output_volume.content_digest

    def test_checkpoints_intact_after_migrations_and_resume(self, tmp_path):
        app = self._migrating_app()
        stalled = run(make_pool(*(make_system(f"a{i}", time_slot=100.0) for i in range(2))),
                      app, tmp_path, run_id="r")
        assert stalled.outcome is Outcome.STALLED_WITH_CHECKPOINT
        cstore = CheckpointStore(tmp_path)
        ckpt, content = cstore.load(cstore.latest("r"))
        resumed = run(make_pool(*(make_system(f"b{i}", time_slot=100.0) for i in range(3))),
                      app, tmp_path, run_id="r", resume_from=ckpt, resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        seqs = sorted({doc["commit"]["seq"] for doc in read_log(tmp_path / "r" / "log")
                       if "commit" in doc})
        assert seqs == [1, 2, 3, 4]
        # no later write of the data volume touched a checkpoint's bytes
        assert all(cstore.verify(tmp_path / "r" / str(seq)) for seq in seqs)
        vol = VolumeStore(tmp_path).volume(f"{app.name}-in")
        data = (tmp_path / "volumes" / vol.id / "data.bin").read_bytes()
        assert vol == resumed.output_volume
        assert (vol.content_digest, vol.byte_size) == (sha256_hex(data), len(data))
        assert data == volume_content(app.name, make_input_bytes(7, app.name, 4096),
                                      app.work_total)

    def test_data_volume_holds_the_latest_checkpoint_at_each_slot(self, tmp_path):
        app = self._migrating_app()
        cfg = SimConfig(seed=7, **EXACT_CFG)
        initial = make_input_bytes(7, app.name, 4096)
        data = tmp_path / "volumes" / f"{app.name}-in" / "data.bin"
        seen = []

        def factory(system):
            vol = VolumeStore(tmp_path).volume(f"{app.name}-in")
            latest = CheckpointStore(tmp_path).latest("r")
            held = CheckpointStore(tmp_path).load(latest)[1] if latest else initial
            seen.append(data.read_bytes() == held and
                        (vol.content_digest, vol.byte_size) == (sha256_hex(held), len(held)))
            return make_backend(system, cfg)

        volume = VolumeStore(tmp_path).create(f"{app.name}-in", initial)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        result = run_workflow(pool, app, volume, make_hardware(), factory, tmp_path,
                              cfg=cfg, run_id="r")
        assert result.outcome is Outcome.COMPLETED
        assert seen == [True] * 5
        assert data.read_bytes() == volume_content(app.name, initial, app.work_total)
        assert all(CheckpointStore(tmp_path).verify(tmp_path / "r" / str(seq))
                   for seq in (1, 2, 3, 4))

    def test_writes_each_checkpoint_once_plus_the_final_volume(self, tmp_path, monkeypatch):
        app = self._migrating_app()
        written = count_payload_writes(monkeypatch)
        VolumeStore(tmp_path).create(f"{app.name}-in", make_input_bytes(7, app.name, 1 << 16))
        written.clear()
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        result = run(pool, app, tmp_path, run_id="w", input_size=1 << 16)
        assert result.outcome is Outcome.COMPLETED
        lengths = [1 << 16, *(len(CheckpointStore(tmp_path).load(tmp_path / "w" / str(seq))[1])
                              for seq in (1, 2, 3, 4)), result.output_volume.byte_size]
        # what each checkpoint appended past the one before, and then the
        # output past the last, all to the volume's data.bin
        assert written == [("data.bin", b - a) for a, b in zip(lengths, lengths[1:])]

    def test_checkpoints_append_to_one_segment(self, tmp_path):
        # the one file is the volume's data.bin
        app = self._migrating_app()
        cfg = SimConfig(seed=7, **EXACT_CFG)
        data = tmp_path / "volumes" / f"{app.name}-in" / "data.bin"
        seen = []

        def factory(system):
            if CheckpointStore(tmp_path).latest("r"):
                seen.append((data.stat().st_ino, data.read_bytes()))
            return make_backend(system, cfg)

        volume = VolumeStore(tmp_path).create(f"{app.name}-in",
                                              make_input_bytes(7, app.name, 4096))
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        result = run_workflow(pool, app, volume, make_hardware(), factory, tmp_path,
                              cfg=cfg, run_id="r")
        assert result.outcome is Outcome.COMPLETED
        # one file, never replaced, whose committed bytes never change
        assert len(seen) == 4 and len({ino for ino, _ in seen}) == 1
        assert all(b.startswith(a) and len(b) > len(a)
                   for (_, a), (_, b) in zip(seen, seen[1:]))
        cstore = CheckpointStore(tmp_path)
        for seq, (_, held) in enumerate(seen, start=1):
            manifest = commit_record(tmp_path / "r", seq)
            assert (manifest["volume"], manifest["length"]) == (f"{app.name}-in", len(held))
            assert cstore.load(tmp_path / "r" / str(seq))[1] == held
        # a checkpoint makes no file and no directory
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == ["log"]
        assert sorted(p.name for p in data.parent.iterdir()) == ["data.bin", "log"]

    @staticmethod
    def _stall_then_resume(store, slots):
        """The shape of perfbench's sim-migrate on a small volume: `slots`
        slots that stall, then a resume from latest() that completes on
        `slots` fresh systems; returns the files and directories it made."""
        app = make_app(name="sim-migrate", work_total=1.5 * 95.0 * slots, process_count=1)
        cfg = SimConfig(seed=7, **EXACT_CFG)
        volume = VolumeStore(store).create("input", make_input_bytes(7, app.name, 4096))

        def pass_of(prefix, **kwargs):
            pool = make_pool(*(make_system(f"{prefix}{i:02d}", time_slot=100.0)
                               for i in range(slots)))
            return run_workflow(pool, app, volume, make_hardware(),
                                lambda s: make_backend(s, cfg), store, cfg=cfg,
                                run_id="sim-migrate", **kwargs)

        with _creations() as made:
            stalled = pass_of("a")
            cstore = CheckpointStore(store)
            ckpt, content = cstore.load(cstore.latest("sim-migrate"))
            resumed = pass_of("b", resume_from=ckpt, resume_content=content)
        assert (stalled.outcome, resumed.outcome) == \
            (Outcome.STALLED_WITH_CHECKPOINT, Outcome.COMPLETED)
        assert (ckpt.seq, len(resumed.history)) == (slots, (slots + 1) // 2)
        return [p.removeprefix(f"{store}/") for p in made]

    def test_migrating_run_makes_the_same_few_files_whatever_its_slots(self, tmp_path):
        made = self._stall_then_resume(tmp_path / "few", 4)
        # a record is an append to a log, and a checkpoint and the completed
        # run append their bytes to data.bin: no other file, no temporary
        # file and no rename
        assert made == ["sim-migrate/", "sim-migrate/log"]
        assert self._stall_then_resume(tmp_path / "many", 16) == made
        listing = [sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))
                   for root in (tmp_path / "few", tmp_path / "many")]
        assert listing[0] == listing[1] == [
            "sim-migrate", "sim-migrate/log",
            "volumes", "volumes/input", "volumes/input/data.bin", "volumes/input/log"]

    def test_migrating_benchmark_run_writes_one_volume_plus_tails(self, tmp_path,
                                                                  monkeypatch):
        # the shape of perfbench's sim-migrate: an 8 MiB volume, 16 slots that
        # stall, then a resume from latest() that completes on 16 fresh systems
        app = make_app(name="sim-migrate", work_total=6000.0, process_count=4)
        cfg = SimConfig(seed=7)
        volume = VolumeStore(tmp_path).create("input", make_input_bytes(7, app.name, 8 << 20))
        written = count_payload_writes(monkeypatch)

        def pass_of(prefix, **kwargs):
            pool = make_pool(*(make_system(f"{prefix}{i:02d}", n_hosts=4, time_slot=60.0)
                               for i in range(16)))
            return run_workflow(pool, app, volume, make_hardware(),
                                lambda s: make_backend(s, cfg), tmp_path, cfg=cfg,
                                run_id="sim-migrate", **kwargs)

        stalled = pass_of("a")
        cstore = CheckpointStore(tmp_path)
        ckpt, content = cstore.load(cstore.latest("sim-migrate"))
        resumed = pass_of("b", resume_from=ckpt, resume_content=content)
        assert (stalled.outcome, resumed.outcome) == \
            (Outcome.STALLED_WITH_CHECKPOINT, Outcome.COMPLETED)
        assert (ckpt.seq, len(resumed.history)) == (16, 13)
        # the tail of each checkpoint, the resume's first (write 17) included,
        # then the output's tail past the last: every payload byte goes to
        # data.bin, once.  Writing every checkpoint in full wrote 243 MiB, the
        # output whole 16.4 MiB, and the first checkpoint in full 8.4 MiB.
        output = resumed.output_volume.byte_size
        assert len(written) == 16 + 12 + 1
        assert {name for name, _ in written} == {"data.bin"}
        assert 0 < min(n for _, n in written) and max(n for _, n in written) < 64 << 10
        assert sum(n for _, n in written) == output - volume.byte_size == 192_000

    def test_meta_json_rewritten_only_when_it_changes(self, tmp_path, monkeypatch):
        unchanged = []
        real_write_meta = VolumeStore._write_meta

        def spy(store, vol):
            if store.exists(vol.id) and store.volume(vol.id) == vol:
                unchanged.append(vol)
            real_write_meta(store, vol)

        monkeypatch.setattr(VolumeStore, "_write_meta", spy)
        app = self._migrating_app()
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(5)))
        assert run(pool, app, tmp_path, run_id="m").outcome is Outcome.COMPLETED
        assert unchanged == []


    def test_stall_then_resume_holds_one_volume_at_a_time(self, tmp_path):
        app = self._migrating_app()
        cfg = SimConfig(seed=7, **EXACT_CFG)
        volume = VolumeStore(tmp_path).create(f"{app.name}-in",
                                              make_input_bytes(7, app.name, 8 << 20))

        def pass_of(prefix, n, **kwargs):
            pool = make_pool(*(make_system(f"{prefix}{i}", time_slot=100.0) for i in range(n)))
            return run_workflow(pool, app, volume, make_hardware(),
                                lambda s: make_backend(s, cfg), tmp_path, cfg=cfg,
                                run_id="r", **kwargs)

        def stall_then_resume():
            stalled = pass_of("a", 2)
            cstore = CheckpointStore(tmp_path)
            ckpt, content = cstore.load(cstore.latest("r"))
            return stalled, pass_of("b", 3, resume_from=ckpt, resume_content=content)

        (stalled, resumed), peak = traced_peak(stall_then_resume)
        assert (stalled.outcome, resumed.outcome) == \
            (Outcome.STALLED_WITH_CHECKPOINT, Outcome.COMPLETED)
        # the volume read from the store, and later the one loaded from the
        # checkpoint, each shared by every chain built on it; a copy of the
        # whole volume per checkpoint peaked near three volumes
        assert peak < 1.5 * volume.byte_size + (1 << 20)


# (PARALLEL_MIN_BLOCKS, CPUs) that split a range of a few slices across two
# to four processes; None leaves every range this short to this process
SPLITS = [None, (1, 4), (7, 3), (JOIN_BLOCKS, 2)]
ACTIVE_COUNT = threading.active_count


@contextlib.contextmanager
def hashing_split(split):
    """Ranges split as `split` says, in a process taken to have one thread:
    in-process agents of other tests may have left threads behind."""
    if split is None:
        yield
        return
    min_blocks, cpus = split
    with mock.patch.object(bee.workload, "PARALLEL_MIN_BLOCKS", min_blocks), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            mock.patch.object(threading, "active_count", lambda: 1):
        yield


class TestOutputVolume:
    def test_large_append_peaks_near_twice_its_output(self):
        units = 50_000
        out, peak = traced_peak(append_output, "big", b"", 0.0, float(units))
        assert len(out) == units * 32
        # the slices plus the joined result, and one slice's block objects
        assert peak <= 2 * len(out) + (512 << 10)

    def test_large_append_to_a_chain_peaks_near_its_output(self):
        units = 50_000
        base = Chain(b"seed")
        out, peak = traced_peak(append_output, "big", base, 0.0, float(units))
        assert len(out) == len(base) + units * 32
        # the slices, which become the chain's new parts, and one slice's
        # block objects and join (about 0.6 MiB); joining the slices into one
        # part held the output twice
        assert peak <= units * 32 + (1 << 20)

    @settings(max_examples=40, deadline=None)
    @given(name=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
           base=st.lists(st.binary(max_size=40), max_size=3),
           done=st.integers(0, 3000),
           units=st.sampled_from([0, 1, JOIN_BLOCKS - 1, JOIN_BLOCKS, JOIN_BLOCKS + 1,
                                  2 * JOIN_BLOCKS + 1, 4 * JOIN_BLOCKS + 5])
           | st.integers(0, 300))
    def test_append_to_a_chain_adds_slices_as_parts(self, name, base, done, units):
        base = Chain(*base)
        expected = append_output(name, bytes(base), float(done), float(done + units))
        serial = append_output(name, base, float(done), float(done + units))
        for split in SPLITS:
            with hashing_split(split):
                out = append_output(name, base, float(done), float(done + units))
            assert bytes(out) == expected
            assert out.extends(base)
            assert all(len(part) <= JOIN_BLOCKS * 32 for part in out.parts[len(base.parts):])
            # a split range is cut on the serial slices' boundaries
            assert out.parts == serial.parts

    @given(name=st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
           base=st.integers(0, 2000), units=st.integers(0, 300))
    def test_one_sha256_block_per_unit(self, name, base, units):
        expected = b"seed" + b"".join(hashlib.sha256(f"{name}:{i}".encode()).digest()
                                      for i in range(base + 1, base + units + 1))
        assert append_output(name, b"seed", float(base), float(base + units)) == expected

    @given(seed=st.integers(-10, 1 << 40),
           name=st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
           size=st.sampled_from([0, 1, 31, 32, 33, JOIN_BLOCKS * 32 + 33])
           | st.integers(0, 5000))
    def test_input_bytes_match_per_block_formula(self, seed, name, size):
        out = bytearray()
        counter = 0
        while len(out) < size:
            out.extend(hashlib.sha256(f"{seed}:{name}:{counter}".encode()).digest())
            counter += 1
        assert make_input_bytes(seed, name, size) == bytes(out[:size])


def formula(label: str, start: int, end: int) -> bytes:
    return b"".join(hashlib.sha256(f"{label}:{i}".encode()).digest()
                    for i in range(start, end + 1))


def spy_forks(monkeypatch) -> list[int]:
    """The pid of each child os.fork makes from now on."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def in_children(monkeypatch, action):
    """Make each forked hashing child run `action` before it hashes."""
    parent, real = os.getpid(), bee.workload._serial_slices

    def slices(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(bee.workload, "_serial_slices", slices)


class TestSplitHashing:
    """A long range hashed by forked children leaves no child and no fd,
    however the generator ends."""

    @pytest.fixture(autouse=True)
    def released(self):
        fds = set(os.listdir("/proc/self/fd"))
        with hashing_split((1, 2)):
            yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert set(os.listdir("/proc/self/fd")) == fds

    def test_a_split_range_forks_a_child_per_further_cpu(self, monkeypatch):
        forks = spy_forks(monkeypatch)
        assert b"".join(bee.workload._slices("x", 1, 2 * JOIN_BLOCKS)) == \
            formula("x", 1, 2 * JOIN_BLOCKS)
        assert len(forks) == 1

    @pytest.mark.parametrize("action", [lambda: sys.exit(3),
                                        lambda: os.kill(os.getpid(), signal.SIGKILL)],
                             ids=["exits-non-zero", "sigkilled"])
    def test_a_failed_child_raises_one_error_naming_its_range(self, monkeypatch, action):
        in_children(monkeypatch, action)
        with pytest.raises(RuntimeError, match=rf"blocks {JOIN_BLOCKS + 1}\.\.{2 * JOIN_BLOCKS} "):
            list(bee.workload._slices("x", 1, 2 * JOIN_BLOCKS))

    def test_a_generator_closed_after_its_first_slice(self):
        slices = bee.workload._slices("x", 1, 4 * JOIN_BLOCKS)
        assert len(next(slices)) == JOIN_BLOCKS * 32
        slices.close()

    def test_an_interrupt_in_the_parent_mid_range(self, monkeypatch):
        parent, real = os.getpid(), bee.workload._serial_slices

        def interrupted(*args):
            slices = real(*args)
            yield next(slices)
            if os.getpid() == parent:
                raise KeyboardInterrupt
            yield from slices

        monkeypatch.setattr(bee.workload, "_serial_slices", interrupted)
        with pytest.raises(KeyboardInterrupt):
            list(bee.workload._slices("x", 1, 4 * JOIN_BLOCKS))

    def test_no_fork_while_a_second_thread_is_alive(self, monkeypatch):
        monkeypatch.setattr(threading, "active_count", ACTIVE_COUNT)
        forks = spy_forks(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            out = b"".join(bee.workload._slices("x", 1, 4 * JOIN_BLOCKS))
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert forks == []
        assert out == formula("x", 1, 4 * JOIN_BLOCKS)


class TestSplitSelection:
    """Which sim-hpc runs fork, by count: one child per long fetch on 2 CPUs."""

    def _run(self, tmp_path, monkeypatch, app, pool):
        cfg = SimConfig(seed=1)
        volume = VolumeStore(tmp_path).create("input", make_input_bytes(1, app.name, 4096))
        fetches = []
        real_fetch = SimHpcBackend.fetch_volume

        def fetch(backend, ref):
            fetches.append(ref)
            return real_fetch(backend, ref)

        monkeypatch.setattr(SimHpcBackend, "fetch_volume", fetch)
        forks = spy_forks(monkeypatch)
        with hashing_split((bee.workload.PARALLEL_MIN_BLOCKS, 2)):
            result = run_workflow(pool, app, volume, make_hardware(),
                                  lambda s: make_backend(s, cfg), tmp_path, cfg=cfg,
                                  run_id="r")
        return result, fetches, forks

    def test_a_long_run_forks_once_per_fetch(self, tmp_path, monkeypatch):
        # sim-long's shape, shorter: each slot appends 82-104 k blocks, at
        # least 2 * PARALLEL_MIN_BLOCKS
        app = make_app(name="long", work_total=290_000.0, process_count=4)
        pool = make_pool(*(make_system(f"l{i}", n_hosts=4, time_slot=30_000.0)
                           for i in range(3)))
        result, fetches, forks = self._run(tmp_path, monkeypatch, app, pool)
        assert result.outcome is Outcome.COMPLETED
        assert min(r.progress_delta for r in result.history) >= \
            2 * bee.workload.PARALLEL_MIN_BLOCKS
        assert len(fetches) == len(forks) == 3

    def test_a_migrating_run_of_short_slots_never_forks(self, tmp_path, monkeypatch):
        # sim-migrate's first pass: a few hundred blocks per slot
        app = make_app(name="sim-migrate", work_total=6000.0, process_count=4)
        pool = make_pool(*(make_system(f"a{i:02d}", n_hosts=4, time_slot=60.0)
                           for i in range(16)))
        result, fetches, forks = self._run(tmp_path, monkeypatch, app, pool)
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT
        assert len(fetches) == 16 and forks == []

    def test_input_bytes_never_fork(self, monkeypatch):
        forks = spy_forks(monkeypatch)
        with hashing_split((bee.workload.PARALLEL_MIN_BLOCKS, 2)):
            make_input_bytes(7, "sim-migrate", 8 << 20)
        assert forks == []


class TestAppRun:
    def test_pause_freezes_progress_until_resume(self):
        run = AppRun(rate=1.0, work_total=100.0, started_at=0.0)
        assert run.pause(10.0) is True
        assert run.progress(50.0) == 10.0
        assert run.resume(30.0) is True
        assert run.progress(50.0) == 30.0
        assert run.resume(40.0) is False

    def test_a_second_pause_changes_nothing(self):
        run = AppRun(rate=1.0, work_total=100.0, started_at=0.0)
        assert run.pause(10.0) is True
        assert run.pause(20.0) is False
        assert run.paused_at == 10.0
        run.resume(30.0)
        assert run.progress(40.0) == 20.0

    def test_io_seconds_delay_progress(self):
        run = AppRun(rate=2.0, work_total=100.0, io_seconds=5.0, started_at=10.0)
        assert run.progress(15.0) == 0.0
        assert run.progress(20.0) == 10.0

    def test_progress_before_start_is_the_base(self):
        run = AppRun(rate=1.0, work_total=100.0, base=40.0)
        assert run.progress(1e6) == 40.0
        assert run.pause(5.0) is False

    def test_progress_accrues_on_the_base_up_to_the_quantized_total(self):
        work_total = 30.0 + 0.7 * WORK_QUANTUM
        run = AppRun(rate=1.0, work_total=work_total, base=10.0, started_at=0.0)
        assert run.progress(5.0) == 15.0
        assert run.progress(1e6) == quantize_work(work_total) > work_total


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
        store.volumes.create("v", b"input-bytes")
        ckpt, content, duration, state = checkpoint_now(
            RunState(), cluster, store, "r", "v", 1, created_at=backend.now())
        assert ckpt.progress == 10.0
        assert bytes(content) == volume_content("demo", b"input-bytes", 10.0)
        assert ckpt.digest == sha256_hex(bytes(content))
        assert state.need_migration and state.last_host_system == "alpha"
        assert store.verify(store.latest("r"))

    def test_back_to_back_checkpoints_identical_digest(self, tmp_path):
        from bee.model import RunState

        cluster, backend = self._cluster()
        backend.wait(10.0)
        store = CheckpointStore(tmp_path)
        store.volumes.create("v", b"input-bytes")
        first, _, _, _ = checkpoint_now(RunState(), cluster, store, "r", "v", 1,
                                        created_at=0.0)
        second, _, _, _ = checkpoint_now(RunState(), cluster, store, "r", "v", 2,
                                         created_at=0.0)
        assert first.digest == second.digest
        assert first.progress == second.progress

    def test_non_checkpointable_rejected(self, tmp_path):
        cluster, _ = self._cluster(checkpointable=False)
        from bee.model import RunState

        with pytest.raises(CheckpointUnsupported):
            checkpoint_now(RunState(), cluster, CheckpointStore(tmp_path), "r", "v", 1, 0.0)


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
        charges = [e for e in backend.log.events if e.kind == "data_transfer"]
        assert charges[0].detail["seconds"] == pytest.approx(0.01, abs=1e-9)

    def test_zero_byte_volume_transfers_instantly(self, tmp_path):
        ckpt, content, src, dst, backend, vstore = self._fixture(tmp_path, content=b"")
        vol = transfer_and_restore(ckpt, b"", src, dst, backend, vstore, "v")
        assert vol.content_digest == sha256_hex(b"")
        charges = [e for e in backend.log.events if e.kind == "data_transfer"]
        assert charges[0].detail["seconds"] == 0.0

    def test_corruption_retried_once_then_succeeds(self, tmp_path):
        ckpt, content, src, dst, backend, vstore = self._fixture(
            tmp_path, content=b"payload", fault_times=1)
        vol = transfer_and_restore(ckpt, b"payload", src, dst, backend, vstore, "v")
        assert vol.content_digest == ckpt.digest
        mismatches = [e for e in backend.log.events
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
