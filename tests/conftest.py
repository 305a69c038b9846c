import hashlib
import tempfile
import tracemalloc
import types
from pathlib import Path

import pytest

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
from bee.storage import read_log, read_status


@pytest.fixture(scope="session", autouse=True)
def no_leftover_temp_dirs():
    """The suite must leave no bee-* entry behind in the system temp directory."""
    def entries():
        return {p.name for p in Path(tempfile.gettempdir()).glob("bee-*")}

    before = entries()
    yield
    left = sorted(entries() - before)
    assert not left, f"tests left {left} in {tempfile.gettempdir()}"


def commit_record(run_dir: Path, seq: int) -> dict:
    """The last commit record of checkpoint `seq` in the run's log."""
    return [doc["commit"] for doc in read_log(run_dir / "log")
            if "commit" in doc and doc["commit"]["seq"] == seq][-1]


def count_compares(monkeypatch) -> list[tuple[int, int]]:
    """The (start, end) of each range of committed bytes that a volume write
    reads back and compares from now on."""
    import bee.storage

    compared, real = [], bee.storage._agrees

    def spy(fh, chain, start, end):
        compared.append((start, end))
        return real(fh, chain, start, end)

    monkeypatch.setattr(bee.storage, "_agrees", spy)
    return compared


def run_state(store: Path, run_id: str):
    """The run's last recorded state, as `bee status` reads it."""
    from bee.orchestrator import RunResult

    return read_status(store, run_id, RunResult)[0]


def counting_hashlib(fed: list) -> types.SimpleNamespace:
    """A stand-in for the hashlib module whose sha256 logs what it is fed.

    Each hash started from data appends ("new", nbytes) to `fed`; each later
    update() appends ("update", nbytes).  The digests are hashlib's own.
    """
    class Sha256:
        def __init__(self, state):
            self._state = state

        def update(self, data):
            fed.append(("update", len(data)))
            self._state.update(data)

        def copy(self):
            return Sha256(self._state.copy())

        def hexdigest(self):
            return self._state.hexdigest()

    def sha256(data=b""):
        fed.append(("new", len(data)))
        return Sha256(hashlib.sha256(data))

    return types.SimpleNamespace(sha256=sha256)


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs), and the peak of the memory Python allocated while
    it ran, in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_system(sid="alpha", n_hosts=2, time_slot=100.0, cpu_rate=1.0,
                net_bw=100.0, disk_read=500.0, disk_write=500.0,
                kind=SystemKind.HPC, host_file_sharing=False):
    return ComputeSystem(
        id=sid, kind=kind,
        hosts=tuple(Host(f"{sid}-h{i}") for i in range(n_hosts)),
        time_slot=time_slot, kvm_available=True,
        host_file_sharing=host_file_sharing,
        net_bandwidth_native=net_bw,
        disk_bandwidth_native=DiskBandwidth(disk_read, disk_write),
        cpu_rate_native=cpu_rate)


def make_app(name="demo", work_total=50.0, process_count=2, checkpointable=True,
             comm=CommKind.ONE_TO_ONE_HEAVY, ratio=None, image_ref="demo:1",
             buildfile=None, io_read=0, io_write=0):
    source = ContainerSource(image_ref=image_ref, buildfile=buildfile)
    if buildfile is not None:
        source = ContainerSource(image_ref=None, buildfile=buildfile)
    return AppSpec(
        name=name, container_source=source, entry_command=("mpirun", name),
        process_count=process_count, comm_pattern=CommPattern(comm, ratio),
        work_total=work_total,
        io_profile=IoProfile(io_read, io_write), checkpointable=checkpointable)


def make_hardware(network=NetworkSolution.P2P_TREE,
                  storage=StorageSolution.VIRTIO_PASSTHROUGH,
                  vcpus=1, ssh_base_port=10022):
    return HardwareConfig(vcpus=vcpus, ram_mb=1024, network_solution=network,
                          storage_solution=storage, ssh_base_port=ssh_base_port)


def make_pool(*systems):
    return ResourcePool(systems=tuple(systems))


@pytest.fixture
def small_pool():
    return make_pool(make_system("alpha"), make_system("beta"))
