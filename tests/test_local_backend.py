"""The orchestrator scenario suite must pass unchanged on the simulator and on
the local-process backend (with wall-clock budgets scaled down)."""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from bee.cli import EXIT_FAILED, main
from bee.cluster import DeploymentError, deploy_cluster
from bee.model import NetworkSolution, to_json
from bee.netvirt.fleet import AgentFleet, _package_pythonpath
from bee.storage import VolumeStore, sha256_hex
from bee.workload import quantize_work, volume_content
from bee.orchestrator import (CheckpointStore, MonitorResult, Outcome, SlotEnd, monitor,
                              run_workflow)
from bee.backends import SimConfig, make_backend
from bee.backends.local import LocalProcessBackend
from conftest import make_app, make_hardware, make_pool, make_system, run_state

# Per-slot progress is (slot - guard) * processes * rate: 114 for the
# simulator, 76 for the local backend, so 150 units always needs a migration.
SCENARIOS = {
    # sim seconds are logical; local seconds are real, so budgets shrink
    "sim-hpc": dict(time_slot=60.0, cpu_rate=1.0, work_one_slot=20.0,
                    work_two_slots=150.0, poll=1.0),
    "local": dict(time_slot=1.0, cpu_rate=40.0, work_one_slot=20.0,
                  work_two_slots=150.0, poll=0.02),
}


def _run(backend_kind, work_total, tmp_path, n_systems=3,
         network=NetworkSolution.P2P_STAR, run_id="r", poll=None):
    params = SCENARIOS[backend_kind]
    cfg = SimConfig(backend=backend_kind, seed=5, poll_interval=poll or params["poll"],
                    cpu_overhead_fraction=0.0)
    systems = [make_system(f"sys{i}", n_hosts=2, time_slot=params["time_slot"],
                           cpu_rate=params["cpu_rate"]) for i in range(n_systems)]
    app = make_app(name=f"par-{backend_kind}", work_total=work_total,
                   process_count=2)
    store = tmp_path / backend_kind
    vstore = VolumeStore(store)
    volume = vstore.create(f"{app.name}-in", b"scenario-input")
    result = run_workflow(make_pool(*systems), app, volume, make_hardware(network),
                          lambda s: make_backend(s, cfg), store, cfg=cfg,
                          run_id=run_id)
    return app, result


@pytest.mark.parametrize("backend_kind", list(SCENARIOS))
class TestBackendSubstitutability:
    def test_single_slot_completion(self, backend_kind, tmp_path):
        params = SCENARIOS[backend_kind]
        app, result = _run(backend_kind, params["work_one_slot"], tmp_path)
        assert result.outcome is Outcome.COMPLETED
        assert [r.ended_by for r in result.history] == [SlotEnd.COMPLETION]
        expected = volume_content(app.name, b"scenario-input", app.work_total)
        assert result.output_volume.content_digest == sha256_hex(expected)

    def test_migration_preserves_output_digest(self, backend_kind, tmp_path):
        params = SCENARIOS[backend_kind]
        app, result = _run(backend_kind, params["work_two_slots"], tmp_path)
        assert result.outcome is Outcome.COMPLETED
        assert len(result.history) >= 2
        assert result.history[0].ended_by is SlotEnd.TIMESLOT_CHECKPOINT
        assert [r.system_id for r in result.history] == \
            [f"sys{i}" for i in range(len(result.history))]
        expected = volume_content(app.name, b"scenario-input", app.work_total)
        assert result.output_volume.content_digest == sha256_hex(expected)

    def test_stall_leaves_resumable_checkpoint(self, backend_kind, tmp_path):
        app, result = _run(backend_kind, 100_000.0, tmp_path, n_systems=1,
                           run_id="stall")
        assert result.outcome is Outcome.STALLED_WITH_CHECKPOINT
        store = CheckpointStore(tmp_path / backend_kind)
        path = store.latest("stall")
        assert path is not None and store.verify(path)


@pytest.fixture
def spawned(monkeypatch):
    """Every agent process an AgentFleet starts during the test."""
    procs = []
    real_spawn = AgentFleet._spawn

    def spawn(self, args, portfile):
        proc = real_spawn(self, args, portfile)
        procs.append(proc)
        return proc

    monkeypatch.setattr(AgentFleet, "_spawn", spawn)
    return procs


def _local_backend(tmp_path):
    cfg = SimConfig(backend="local", seed=5, poll_interval=0.02)
    system = make_system("sys0", n_hosts=3, time_slot=1.0, cpu_rate=40.0)
    return system, LocalProcessBackend(system, cfg, workdir=tmp_path / "work")


def test_local_deploy_failure_reaps_spawned_agents(tmp_path, spawned):
    system, backend = _local_backend(tmp_path)
    backend.inject_fault("create_vm", host="sys0-h1")
    app = make_app(name="leak", work_total=10.0, process_count=2)
    try:
        with pytest.raises(DeploymentError):
            deploy_cluster(system.hosts, app, "c-leak", make_hardware(), backend)
        assert spawned
        assert all(proc.poll() is not None for proc in spawned)
    finally:
        backend.close()


@pytest.mark.parametrize("network", [NetworkSolution.P2P_TREE, NetworkSolution.MULTICAST])
def test_no_agent_alive_when_cluster_stop_returns(tmp_path, spawned, network):
    system, backend = _local_backend(tmp_path)
    app = make_app(name="reap", work_total=10_000.0, process_count=3)
    try:
        cluster = deploy_cluster(system.hosts, app, "c-reap", make_hardware(network),
                                 backend)
        assert len(spawned) == (4 if network is NetworkSolution.MULTICAST else 3)
        assert all(proc.poll() is None for proc in spawned)
        cluster.stop()
        assert all(proc.poll() is not None for proc in spawned)
    finally:
        backend.close()


def test_no_agent_alive_after_teardown_of_wired_cluster(tmp_path, spawned):
    system, backend = _local_backend(tmp_path)
    backend.inject_fault("docker_start", host="sys0-h2")
    app = make_app(name="torn", work_total=10.0, process_count=3)
    try:
        with pytest.raises(DeploymentError):
            deploy_cluster(system.hosts, app, "c-torn",
                           make_hardware(NetworkSolution.MULTICAST), backend)
        assert len(spawned) == 4
        assert all(proc.poll() is not None for proc in spawned)
    finally:
        backend.close()


def test_local_run_leaves_no_temp_dir_or_agent(tmp_path, spawned, monkeypatch):
    # a temp dir of this test's own, so that no other run's workdirs show
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    made, mkdtemp = [], tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp",
                        lambda *args, **kw: made.append(mkdtemp(*args, **kw)) or made[-1])

    def workdirs():
        return set(temp.glob("bee-local-*"))

    before = workdirs()
    app, result = _run("local", SCENARIOS["local"]["work_two_slots"], tmp_path)
    assert result.outcome is Outcome.COMPLETED
    assert len(result.history) >= 2
    assert len(spawned) >= 4
    assert all(proc.poll() is not None for proc in spawned)
    assert made and all(Path(path).parent == temp for path in made)
    assert workdirs() - before == set()


def test_close_keeps_a_callers_workdir(tmp_path):
    (tmp_path / "work").mkdir()
    _, backend = _local_backend(tmp_path)
    backend.close()
    assert (tmp_path / "work").is_dir()


def test_fetched_volume_extends_the_staged_chain(tmp_path):
    from bee.backends.base import NodeRef
    from bee.storage import Chain

    reported = iter([3.0, 7.0])

    class FakeAgent:
        def call(self, **request):
            assert request == {"cmd": "status"}
            return {"ok": True, "progress": next(reported)}

    _, backend = _local_backend(tmp_path)
    app = make_app(name="fetch", work_total=10.0, process_count=1)
    backend.begin_cluster("c1", app, make_hardware(), None)
    backend.fleet.alive = lambda node: True
    backend._client = lambda ref: FakeAgent()
    staged = Chain(b"staged input")
    backend.stage_volume(staged)
    first = backend.fetch_volume(NodeRef("sys0-h0", 0))
    assert first.extends(staged)
    assert bytes(first) == volume_content(app.name, b"staged input", 3.0)
    backend.stage_volume(first, 3.0)  # the next slot starts from this checkpoint
    second = backend.fetch_volume(NodeRef("sys0-h0", 0))
    assert second.extends(first)
    assert bytes(second) == volume_content(app.name, b"staged input", 7.0)
    assert [e.detail["nbytes"] for e in backend.log.events
            if e.kind == "fetch_volume"] == [len(first), len(second)]
    backend.close()


def test_a_local_run_sends_agents_no_volume_bytes(tmp_path, monkeypatch):
    from bee.netvirt.agent import AgentClient

    requests = []
    call = AgentClient.call

    def spy(self, **request):
        requests.append(request)
        return call(self, **request)

    monkeypatch.setattr(AgentClient, "call", spy)
    app, result = _run("local", SCENARIOS["local"]["work_two_slots"], tmp_path)
    assert result.outcome is Outcome.COMPLETED and len(result.history) >= 2
    expected = volume_content(app.name, b"scenario-input", app.work_total)
    assert result.output_volume.content_digest == sha256_hex(expected)
    assert requests and not any("data_b64" in request for request in requests)
    assert {request["cmd"] for request in requests} <= \
        {"configure", "exec", "app_start", "status", "pause", "resume", "stop"}


# The local scenario's app runs at 2 processes x 40 units/s = 80 units/s.
LOCAL_RATE = 80.0


def test_a_local_slot_ends_when_its_app_finishes_not_at_the_next_tick(tmp_path):
    app, result = _run("local", 0.3 * LOCAL_RATE, tmp_path, n_systems=1, poll=1.0)
    assert result.outcome is Outcome.COMPLETED
    [slot] = result.history
    assert slot.ended_by is SlotEnd.COMPLETION
    # the app ends about 0.3 s in; the next tick would come at the 0.95 s guard deadline
    assert slot.slot_duration_used < 0.9


def test_a_completing_slot_polls_once_more_than_its_ticks(tmp_path, monkeypatch):
    polls = []
    progress = LocalProcessBackend.progress

    def spy(self, ref):
        polls.append(time.monotonic())
        return progress(self, ref)

    monkeypatch.setattr(LocalProcessBackend, "progress", spy)
    poll = 0.2
    app, result = _run("local", 0.5 * LOCAL_RATE, tmp_path, n_systems=1, poll=poll)
    assert result.outcome is Outcome.COMPLETED
    used = result.history[0].slot_duration_used
    monitored = polls[:-1]  # the last reading is the fetch of the final volume
    # one poll per whole tick before completion, plus one at completion: no spin
    # when a predicted completion lands a quantum early
    assert len(monitored) <= int(used / poll) + 2
    # and that last poll came at the predicted completion, not on a tick
    assert monitored[-1] - monitored[-2] < 0.85 * poll


def _timed_wait(backend, seconds: float) -> float:
    start = time.monotonic()
    backend.wait(seconds)
    return time.monotonic() - start


def test_a_paused_app_sets_no_wake(tmp_path):
    system, backend = _local_backend(tmp_path)
    app = make_app(name="paused", work_total=40.0, process_count=2)
    try:
        cluster = deploy_cluster(system.hosts, app, "c-paused", make_hardware(), backend)
        rate = backend.app_rate()
        time.sleep(max(0.0, (app.work_total - cluster.progress()) / rate - 0.3))
        cluster.progress()  # a running reading: the app ends about 0.3 s from now
        cluster.pause()
        assert _timed_wait(backend, 0.4) >= 0.39
        cluster.progress()  # a frozen reading predicts nothing
        assert _timed_wait(backend, 0.4) >= 0.39
        cluster.resume()
        cluster.progress()
        assert _timed_wait(backend, 2.0) < 1.0
        assert cluster.progress() == quantize_work(app.work_total)
    finally:
        backend.close()


def test_an_agent_dying_during_a_poll_fails_the_slot(tmp_path):
    system, backend = _local_backend(tmp_path)
    app = make_app(name="dies", work_total=10_000.0, process_count=2)
    try:
        cluster = deploy_cluster(system.hosts, app, "c-dies", make_hardware(), backend)
        fleet = backend.fleet
        alive = fleet.alive

        def dies_after_the_check(node):
            answer = alive(node)
            fleet.procs[node].kill()
            fleet.procs[node].wait(timeout=5)
            return answer

        fleet.alive = dies_after_the_check
        assert monitor(cluster, 1.0, 0.05, 0.02).result is MonitorResult.FAILED
        assert backend.log.events[-1].kind == "node_failure"
    finally:
        backend.close()


def test_an_agent_dying_after_its_app_completes_fails_the_run(tmp_path, monkeypatch):
    import bee.orchestrator

    watch = bee.orchestrator.monitor

    def dies_after_completion(cluster, *args):
        outcome = watch(cluster, *args)
        proc = cluster.backend.fleet.procs[cluster.master_ref.node_index]
        proc.kill()
        proc.wait(timeout=5)
        return outcome

    monkeypatch.setattr(bee.orchestrator, "monitor", dies_after_completion)
    app, result = _run("local", SCENARIOS["local"]["work_one_slot"], tmp_path, n_systems=1)
    assert result.outcome is Outcome.FAILED
    assert [r.ended_by for r in result.history] == [SlotEnd.FAILURE]


def test_an_agent_dying_before_the_checkpoint_fails_the_run(tmp_path, spawned, monkeypatch,
                                                             capsys):
    pause = LocalProcessBackend.pause

    def dies_first(self, ref):
        proc = self.fleet.procs[ref.node_index]
        proc.kill()
        proc.wait(timeout=5)
        pause(self, ref)

    monkeypatch.setattr(LocalProcessBackend, "pause", dies_first)
    docs = {"pool": make_pool(make_system("sys0", n_hosts=2, time_slot=1.0)),
            "app": make_app(name="ckpt-dies", work_total=1000.0, process_count=2),
            "uconf": make_hardware()}
    argv = ["run", "--backend", "local", "--store", str(tmp_path / "store")]
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(to_json(doc)), encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert main(argv) == EXIT_FAILED
    out, err = capsys.readouterr()
    assert out.startswith("run ") and out.splitlines()[0].endswith(": failed")
    assert "config error" not in err
    assert spawned and all(proc.poll() is not None for proc in spawned)


def _pids_naming(path: Path) -> set[int]:
    """Processes whose command line contains `path`, read from /proc."""
    key = str(path).encode()
    pids = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if key in (entry / "cmdline").read_bytes():
                    pids.add(int(entry.name))
            except OSError:
                pass  # the process exited while the scan ran
    return pids - {os.getpid()}


def _local_run_mid_slot(tmp_path) -> subprocess.Popen:
    """`bee run --backend local` with TMPDIR at tmp_path/tmp, once its app runs."""
    docs = {"pool": make_pool(make_system("sys0", n_hosts=2, time_slot=60.0)),
            "app": make_app(name="killed", work_total=1e6, process_count=2),
            "uconf": make_hardware()}
    argv = [sys.executable, "-m", "bee.cli", "run", "--backend", "local",
            "--store", str(tmp_path / "store")]
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(to_json(doc)), encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    (tmp_path / "tmp").mkdir()
    env = dict(os.environ, TMPDIR=str(tmp_path / "tmp"), PYTHONPATH=_package_pythonpath())
    bee = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 30
    while True:
        states = [run_state(tmp_path / "store", p.parent.name)
                  for p in (tmp_path / "store").glob("*/log")]
        agents = _pids_naming(tmp_path) - {bee.pid}
        if len(agents) >= 2 and any(s is not None and s.phase.value == "running"
                                    for s in states):
            return bee  # mid-slot: deployed, and the app is running
        if bee.poll() is not None or time.monotonic() > deadline:
            bee.kill()
            bee.communicate(timeout=5)
            pytest.fail("slot never started")
        time.sleep(0.05)


def _assert_agents_gone(tmp_path) -> None:
    ended = time.monotonic()
    while _pids_naming(tmp_path) and time.monotonic() - ended < 2.0:
        time.sleep(0.02)
    assert not _pids_naming(tmp_path), "agents outlived their run by 2 s"


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigkilled_local_run_leaves_no_agent_alive(tmp_path):
    bee = _local_run_mid_slot(tmp_path)
    bee.kill()
    bee.communicate(timeout=5)
    _assert_agents_gone(tmp_path)


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
def test_signalled_local_run_cleans_up_and_exits_with_one_line(tmp_path, signum):
    bee = _local_run_mid_slot(tmp_path)
    try:
        bee.send_signal(signum)
        _, err = bee.communicate(timeout=15)
    finally:
        bee.kill()
    assert bee.returncode == 128 + signum
    assert err == f"interrupted by {signum.name}\n"
    _assert_agents_gone(tmp_path)
    assert list((tmp_path / "tmp").iterdir()) == []
