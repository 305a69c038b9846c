"""The four benchmark workloads, generated from a seed.

The seed changes only random content (input bytes, the simulator's
provisioning jitter, the overlay's destination sequence), never sizes, so
every seed measures the same amount of work.  Each iteration runs in a fresh
directory: set-up (store and input volume, or the agent fleet) is timed as
``setup_s``, the workload's operations as ``run_s``, and the teardown closes
every backend, removes every directory and checks that no agent survived.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from bee import orchestrator
from bee import workload as bee_workload
from bee.backends.base import SimConfig
from bee.backends.local import LocalProcessBackend
from bee.backends.simhpc import SimHpcBackend
from bee.model import (
    AppSpec,
    CommKind,
    CommPattern,
    ComputeSystem,
    ContainerSource,
    DiskBandwidth,
    HardwareConfig,
    Host,
    IoProfile,
    NetworkSolution,
    ResourcePool,
    StorageSolution,
    SystemKind,
)
from bee.netvirt.agent import DeliveryError
from bee.netvirt.fleet import AgentFleet
from bee.orchestrator import Outcome, SlotEnd
from bee.storage import VolumeStore

import checks
from checks import CheckError

clock = time.perf_counter

MIN_SETUP_SECONDS = 0.05

HARDWARE = HardwareConfig(vcpus=1, ram_mb=1024, network_solution=NetworkSolution.P2P_TREE,
                          storage_solution=StorageSolution.VIRTIO_PASSTHROUGH,
                          ssh_base_port=10022)


@dataclass
class Sample:
    """One iteration: timings, checked operations, and one entry per failed check."""

    setup_s: float = 0.0
    run_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    children_cpu_s: float = 0.0
    extra: dict = field(default_factory=dict)


def system(sid: str, n_hosts: int, time_slot: float, cpu_rate: float) -> ComputeSystem:
    return ComputeSystem(
        id=sid, kind=SystemKind.HPC,
        hosts=tuple(Host(f"{sid}-h{i}") for i in range(n_hosts)),
        time_slot=time_slot, kvm_available=True, host_file_sharing=False,
        net_bandwidth_native=100.0, disk_bandwidth_native=DiskBandwidth(500.0, 500.0),
        cpu_rate_native=cpu_rate)


def app(name: str, work_total: int, processes: int = 4) -> AppSpec:
    return AppSpec(
        name=name, container_source=ContainerSource(image_ref=f"bench/{name}:1"),
        entry_command=("mpirun", name), process_count=processes,
        comm_pattern=CommPattern(CommKind.ONE_TO_ONE_HEAVY), work_total=float(work_total),
        io_profile=IoProfile(0, 0), checkpointable=True)


# ---------------------------------------------------------------------------
# per-iteration scratch space and teardown checks


def _live_children() -> list[int]:
    """Pids of this process's children that have not exited."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if ppid == me and state != "Z":
            found.append(int(entry))
    return found


def _has_running_child() -> bool:
    """Reap exited children; True if some child is still running."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


class Scratch:
    """One iteration's directory plus every backend and fleet created in it.

    run_workflow never closes the backends it makes, so the local factory
    records them here and close() closes them, removes the directory (stores and
    ``bee-local-*`` workdirs) and checks that no agent process is left.
    """

    def __init__(self, root: Path):
        self.dir = Path(tempfile.mkdtemp(prefix="iter-", dir=root))
        self.backends: list[LocalProcessBackend] = []
        self.fleets: list[AgentFleet] = []

    @staticmethod
    def sim_factory(cfg: SimConfig):
        # simulated backends hold nothing to release; keeping them would keep
        # every slot's staged volume alive and inflate peak memory
        return lambda sys_: SimHpcBackend(sys_, cfg)

    def local_factory(self, cfg: SimConfig):
        def make(sys_: ComputeSystem) -> LocalProcessBackend:
            workdir = tempfile.mkdtemp(prefix="bee-local-", dir=self.dir)
            backend = LocalProcessBackend(sys_, cfg, workdir=workdir)
            self.backends.append(backend)
            return backend
        return make

    def close(self) -> list[str]:
        problems = []
        for backend in self.backends:
            backend.close()
        for fleet in self.fleets:
            fleet.stop()
        shutil.rmtree(self.dir, ignore_errors=True)
        if self.dir.exists():
            problems.append(f"could not remove {self.dir}")
        if _has_running_child():
            pids = _live_children()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            while _has_running_child():
                time.sleep(0.01)
            problems.append(f"agent processes alive after teardown: {pids}")
        return problems


def _failure(exc: BaseException) -> str:
    if isinstance(exc, CheckError):
        return str(exc)
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# run_workflow workloads


class Workflow:
    """A store plus a seeded input volume, then run_workflow until the app is done."""

    name = ""
    app: AppSpec
    input_size: int
    backend: str
    pool: ResourcePool
    endings: tuple[SlotEnd, ...]

    def __init__(self, seed: int):
        self.seed = seed
        self.input = bee_workload.make_input_bytes(seed, self.app.name, self.input_size)
        self.reference = checks.reference_digest(self.input, self.app.name,
                                                 int(self.app.work_total))

    def iteration(self, root: Path, tracer=None) -> Sample:
        sample = Sample(attempted=2)  # the workflow and the teardown
        scratch = Scratch(root)
        try:
            # a set-up of a few milliseconds is repeated, each time in a fresh
            # store, so that its median rests on more than one sample
            setups = []
            while not setups or sum(setups) < MIN_SETUP_SECONDS:
                store = scratch.dir / f"store{len(setups)}"
                t0 = clock()
                content = bee_workload.make_input_bytes(self.seed, self.app.name,
                                                        self.input_size)
                data = VolumeStore(store).create("input", content)
                setups.append(clock() - t0)
                if sum(setups) < MIN_SETUP_SECONDS:
                    shutil.rmtree(store)
            sample.setup_s = statistics.median(setups)
            t0 = clock()
            if tracer is None:
                results = self.run(scratch, store, data)
            else:
                results = tracer.call("bench.run", self.run, scratch, store, data)
            sample.run_s = clock() - t0
            checks.check_equal(content, self.input, "input bytes for the same seed")
            self.check(results, store / "volumes" / data.id / "data.bin")
        except Exception as exc:  # a failed check or a crash counts as one failed run
            sample.failures.append(_failure(exc))
        finally:
            problems = scratch.close()
            if problems:
                sample.failures.append("; ".join(problems))
        return sample

    def run(self, scratch: Scratch, store: Path, data):
        cfg = SimConfig(backend=self.backend, seed=self.seed)
        factory = scratch.local_factory(cfg) if self.backend == "local" \
            else scratch.sim_factory(cfg)
        return orchestrator.run_workflow(self.pool, self.app, data, HARDWARE, factory, store,
                                         cfg=cfg, run_id=self.name)

    def check(self, result, data_file: Path) -> None:
        self.check_output(result, data_file)
        checks.check_equal(tuple(r.ended_by for r in result.history), self.endings,
                           "slot endings")
        checks.check_history(result.history, self.app.work_total,
                             {s.id: s.time_slot for s in self.pool.systems})

    def check_output(self, result, data_file: Path) -> None:
        checks.check_equal(result.outcome, Outcome.COMPLETED, "outcome")
        checks.check_equal(result.output_volume.content_digest, self.reference,
                           "output volume digest")
        checks.check_digest(data_file.read_bytes(), self.reference, "stored output")


class SimLong(Workflow):
    """One long run: the polling monitor and output hashing dominate."""

    name = "sim-long"
    app = app("sim-long", 800_000)
    input_size = 64 << 10
    backend = "sim-hpc"
    pool = ResourcePool(tuple(system(f"long{i}", 4, 86_400.0, 1.0) for i in range(3)))
    endings = (SlotEnd.TIMESLOT_CHECKPOINT, SlotEnd.TIMESLOT_CHECKPOINT, SlotEnd.COMPLETION)


class SimMigrate(Workflow):
    """Stall on one pool, then resume from the latest checkpoint on a fresh one."""

    name = "sim-migrate"
    app = app("sim-migrate", 6000)
    input_size = 8 << 20
    pool_a = ResourcePool(tuple(system(f"a{i:02d}", 4, 60.0, 1.0) for i in range(16)))
    pool_b = ResourcePool(tuple(system(f"b{i:02d}", 4, 60.0, 1.0) for i in range(16)))

    def run(self, scratch: Scratch, store: Path, data):
        cfg = SimConfig(seed=self.seed)
        factory = scratch.sim_factory(cfg)
        stalled = orchestrator.run_workflow(self.pool_a, self.app, data, HARDWARE, factory,
                                            store, cfg=cfg, run_id=self.name)
        cstore = orchestrator.CheckpointStore(store)
        ckpt, content = cstore.load(cstore.latest(self.name))
        resumed = orchestrator.run_workflow(self.pool_b, self.app, data, HARDWARE, factory,
                                            store, cfg=cfg, run_id=self.name,
                                            resume_from=ckpt, resume_content=content)
        return stalled, ckpt, content, resumed

    def check(self, results, data_file: Path) -> None:
        stalled, ckpt, content, resumed = results
        checks.check_equal(stalled.outcome, Outcome.STALLED_WITH_CHECKPOINT, "first outcome")
        checks.check_equal(len(stalled.history), 16, "slots before the stall")
        checks.check_equal(ckpt.seq, 16, "latest checkpoint sequence")
        checks.check_digest(content, ckpt.digest, "latest checkpoint content")
        checks.check_equal(len(resumed.history), 13, "slots after the resume")
        self.check_output(resumed, data_file)
        slots = {s.id: s.time_slot for s in self.pool_a.systems + self.pool_b.systems}
        checks.check_history(stalled.history + resumed.history, self.app.work_total, slots)


class LocalMigrate(Workflow):
    """Real agent processes: deploy, one guard-fired migration, completion.

    The rate puts completion about 0.5 s into the second slot, half a poll
    interval away from either poll, so wall-clock noise cannot move it to
    another poll.
    """

    name = "local-migrate"
    app = app("local-migrate", 10)
    input_size = 64 << 10
    backend = "local"
    pool = ResourcePool((system("loc0", 4, 2.0, 1.145), system("loc1", 4, 4.0, 1.145)))
    endings = (SlotEnd.TIMESLOT_CHECKPOINT, SlotEnd.COMPLETION)


# ---------------------------------------------------------------------------
# overlay workload


class OverlayTree:
    """A closed loop of sends through a 15-agent tree, then through a killed relay."""

    name = "overlay-tree"
    nodes = 15
    sources = (0, 14)  # the root and the deepest leaf: destinations 1 to 6 hops away
    healthy_sends = 4000
    dead = 1  # an interior relay: its subtree holds 3, 4 and 7 to 10
    through_dead = 8
    around_dead = 4
    payload_bytes = 64

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.healthy = []
        for _ in range(self.healthy_sends):
            src = rng.choice(self.sources)
            dst = rng.choice([n for n in range(self.nodes) if n != src])
            self.healthy.append((src, dst, rng.randbytes(self.payload_bytes)))
        crossing = [(s, d) for s in self.sources for d in range(self.nodes)
                    if d != s and self.dead in checks.heap_path(s, d)]
        avoiding = [(s, d) for s in self.sources for d in range(self.nodes)
                    if d != s and self.dead not in checks.heap_path(s, d)]
        pairs = [rng.choice(crossing) for _ in range(self.through_dead)] + \
                [rng.choice(avoiding) for _ in range(self.around_dead)]
        rng.shuffle(pairs)
        self.after_kill = [(s, d, rng.randbytes(self.payload_bytes)) for s, d in pairs]

    def _phases(self, fleet: AgentFleet, sample: Sample) -> None:
        hop_us: dict[int, list[float]] = {}
        start = clock()
        for src, dst, payload in self.healthy:
            t0 = clock()
            try:
                hops = fleet.send(src, dst, payload)
            except DeliveryError:
                hops = None
            elapsed = clock() - t0
            try:
                checks.check_healthy_send(src, dst, hops)
                hop_us.setdefault(hops, []).append(elapsed * 1e6)
            except CheckError as exc:
                sample.failures.append(str(exc))
        sample.run_s = clock() - start
        sample.extra["frames"] = sum(sum(fleet.counts(n).values()) for n in range(self.nodes))
        fleet.kill(self.dead)
        dead_ms = []
        start = clock()
        for src, dst, payload in self.after_kill:
            t0 = clock()
            hops = relay = None
            try:
                hops = fleet.send(src, dst, payload)
            except DeliveryError as exc:
                relay = exc.relay
            elapsed = clock() - t0
            if self.dead in checks.heap_path(src, dst):
                dead_ms.append(elapsed * 1e3)
            try:
                checks.check_dead_relay_send(src, dst, self.dead, hops, relay)
            except CheckError as exc:
                sample.failures.append(str(exc))
        sample.run_s += clock() - start
        sample.extra["hop_us"] = hop_us
        sample.extra["dead_ms"] = dead_ms

    def iteration(self, root: Path, tracer=None) -> Sample:
        sample = Sample(attempted=len(self.healthy) + len(self.after_kill) + 1)
        scratch = Scratch(root)
        try:
            t0 = clock()
            fleet = AgentFleet(NetworkSolution.P2P_TREE, self.nodes, scratch.dir / "fleet")
            scratch.fleets.append(fleet)
            fleet.start()
            for node in range(self.nodes):
                checks.check_equal(fleet.client(node).call(cmd="ping"),
                                   {"ok": True, "node": node}, f"ping {node}")
            sample.setup_s = clock() - t0
            if tracer is None:
                self._phases(fleet, sample)
            else:
                tracer.call("bench.run", self._phases, fleet, sample)
        except Exception as exc:
            sample.failures.append(_failure(exc))
        finally:
            problems = scratch.close()
            if problems:
                sample.failures.append("; ".join(problems))
        return sample


WORKLOADS = {w.name: w for w in (SimLong, SimMigrate, LocalMigrate, OverlayTree)}
