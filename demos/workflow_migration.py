"""Walk an application across a prioritized pool of systems.

The job is too big for any single allocation, so the engine checkpoints near
each slot boundary, migrates the data volume, and resumes on the next system.
We then stall it on purpose and resume from the persisted checkpoint.
"""

import tempfile

from bee import (
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
    SimConfig,
    StorageSolution,
    SystemKind,
    make_backend,
    run_workflow,
)
from bee.orchestrator import CheckpointStore, Outcome
from bee.storage import VolumeStore
from bee.workload import make_input_bytes


def system(name, slot_seconds, rate):
    return ComputeSystem(
        id=name, kind=SystemKind.HPC,
        hosts=(Host(f"{name}-h0"), Host(f"{name}-h1")),
        time_slot=slot_seconds, kvm_available=True, host_file_sharing=False,
        net_bandwidth_native=100.0,
        disk_bandwidth_native=DiskBandwidth(500.0, 500.0),
        cpu_rate_native=rate)


pool = ResourcePool(systems=(
    system("cluster-fast", slot_seconds=120.0, rate=1.5),   # highest priority
    system("cluster-mid", slot_seconds=100.0, rate=1.0),
    system("cloud-burst", slot_seconds=300.0, rate=0.8),
))

app = AppSpec(
    name="plasma-sim",
    container_source=ContainerSource(image_ref="registry/plasma:2.1"),
    entry_command=("mpirun", "plasma"),
    process_count=2,
    comm_pattern=CommPattern(CommKind.ONE_TO_ONE_HEAVY),
    work_total=500.0,
    io_profile=IoProfile(read_bytes_per_slot=1 << 20, write_bytes_per_slot=1 << 20),
    checkpointable=True)

hardware = HardwareConfig(vcpus=1, ram_mb=2048,
                          network_solution=NetworkSolution.P2P_TREE,
                          storage_solution=StorageSolution.VIRTIO_PASSTHROUGH,
                          ssh_base_port=10022)

cfg = SimConfig(backend="sim-hpc", seed=2024)

with tempfile.TemporaryDirectory(prefix="bee-demo-") as root:
    store, stall_store = f"{root}/full", f"{root}/stall"
    volumes = VolumeStore(store)
    data = volumes.create("plasma-input", make_input_bytes(2024, "plasma-sim", 1 << 16))

    print("=== full pool: the job migrates until it completes ===")
    result = run_workflow(pool, app, data, hardware,
                          lambda s: make_backend(s, cfg), store, cfg=cfg,
                          run_id="demo-full")
    print(f"outcome: {result.outcome.value}")
    for rec in result.history:
        print(f"  {rec.system_id:>14}  {rec.ended_by.value:<20} "
              f"used {rec.slot_duration_used:8.2f}s  +{rec.progress_delta:g} work")
    print(f"output digest: {result.output_volume.content_digest[:16]}...")

    print()
    print("=== starved pool: the run stalls with a persisted checkpoint ===")
    small = ResourcePool(systems=(system("cluster-fast", 120.0, 1.5),))
    volumes2 = VolumeStore(stall_store)
    data2 = volumes2.create("plasma-input", make_input_bytes(2024, "plasma-sim", 1 << 16))
    stalled = run_workflow(small, app, data2, hardware,
                           lambda s: make_backend(s, cfg), stall_store, cfg=cfg,
                           run_id="demo-stall")
    ckpts = CheckpointStore(stall_store)
    path = ckpts.latest("demo-stall")
    print(f"outcome: {stalled.outcome.value}; checkpoint at {path}")

    print()
    print("=== new capacity shows up: resume from the checkpoint ===")
    ckpt, content = ckpts.load(path)
    fresh = ResourcePool(systems=(system("cloud-burst", 600.0, 0.8),))
    resumed = run_workflow(fresh, app, data2, hardware,
                           lambda s: make_backend(s, cfg), stall_store, cfg=cfg,
                           run_id="demo-stall", resume_from=ckpt, resume_content=content)
    print(f"outcome: {resumed.outcome.value} "
          f"(picked up at {ckpt.progress:g} of {app.work_total:g} work units)")
    same = resumed.output_volume.content_digest == result.output_volume.content_digest
    print(f"resumed output identical to the uninterrupted run: {same}")
    assert resumed.outcome is Outcome.COMPLETED and same
