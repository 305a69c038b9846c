"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every randomized sweep is seeded, and criterion 10 re-runs the seeded
generators to check that their JSON artifacts are byte-identical.
"""

import math
import random
import time


from bee.model import (
    CommKind,
    NetworkSolution,
    StorageSolution,
    SystemKind,
    canonical_json,
    to_json,
)
from bee.storage import StoragePlan, VolumeStore, effective_bandwidth, iobench_table
from bee.workload import make_input_bytes
from bee.netvirt.topology import (
    HUB,
    build_topology,
    cost_of_trace,
    predict_link_frames,
    route,
)
from bee.netvirt.agent import DeliveryError
from bee.netvirt.fleet import AgentFleet
from bee.cluster import DeploymentError, PortRegistry, deploy_cluster
from bee.orchestrator import (
    CheckpointStore,
    Outcome,
    run_workflow,
)
from bee.backends import SimConfig, make_backend
from bee.backends.base import sim_compute
from bee.backends.scaling import replay_scaling
from conftest import make_app, make_hardware, make_pool, make_system

STAR = NetworkSolution.P2P_STAR
TREE = NetworkSolution.P2P_TREE
MCAST = NetworkSolution.MULTICAST


def _report(number, title, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number:02d} {title}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# seeded generators (shared with the determinism criterion)


def _gen_setup(seed):
    rng = random.Random(seed)
    n_systems = rng.randint(1, 4)
    systems = []
    for i in range(n_systems):
        systems.append(make_system(
            f"s{seed}-{i}", n_hosts=rng.randint(1, 4),
            time_slot=round(rng.uniform(20.0, 120.0), 3),
            cpu_rate=round(rng.uniform(0.1, 2.0), 3),
            net_bw=round(rng.uniform(50.0, 200.0), 3),
            disk_read=round(rng.uniform(100.0, 1000.0), 3),
            disk_write=round(rng.uniform(100.0, 1000.0), 3)))
    max_hosts = max(len(s.hosts) for s in systems)
    app = make_app(name=f"app{seed}", work_total=float(rng.randint(1, 400)),
                   process_count=rng.randint(1, max_hosts),
                   comm=rng.choice(list(CommKind)),
                   ratio=None,
                   io_read=rng.choice([0, 0, 1 << 20]),
                   io_write=rng.choice([0, 0, 1 << 20]))
    if app.comm_pattern.kind is CommKind.MIXED:
        app = make_app(name=app.name, work_total=app.work_total,
                       process_count=app.process_count, comm=CommKind.MIXED,
                       ratio=round(rng.random(), 3),
                       io_read=app.io_profile.read_bytes_per_slot,
                       io_write=app.io_profile.write_bytes_per_slot)
    hardware = make_hardware(network=rng.choice(list(NetworkSolution)),
                             storage=rng.choice(list(StorageSolution)))
    return make_pool(*systems), app, hardware


def _run_workflow_case(seed, store_dir, with_resume=True):
    """Run one seeded config; if it stalls, resume it on a fresh system and
    also run the combined pool uninterrupted.  Returns artifact + backends."""
    pool, app, hardware = _gen_setup(seed)
    cfg = SimConfig(backend="sim-hpc", seed=seed)
    backends = []

    def factory(system):
        backend = make_backend(system, cfg)
        backends.append(backend)
        return backend

    vstore = VolumeStore(store_dir)
    vol_id = f"{app.name}-in"
    if not vstore.exists(vol_id):
        vstore.create(vol_id, make_input_bytes(seed, app.name, 2048))
    result = run_workflow(pool, app, vstore.volume(vol_id), hardware, factory,
                          store_dir, cfg=cfg, run_id=f"run-{seed}")

    artifact = {"seed": seed, "result": to_json(result)}
    resumed_digest = straight_digest = None
    if with_resume and result.outcome is Outcome.STALLED_WITH_CHECKPOINT:
        rescue = make_system(f"rescue-{seed}", n_hosts=4, time_slot=100_000.0,
                             cpu_rate=1.0)
        store = CheckpointStore(store_dir)
        ckpt, content = store.load(store.latest(f"run-{seed}"))
        artifact["checkpoint"] = to_json(ckpt)
        resumed = run_workflow(make_pool(rescue), app, vstore.volume(vol_id),
                               hardware, factory, store_dir, cfg=cfg,
                               run_id=f"run-{seed}", resume_from=ckpt,
                               resume_content=content)
        assert resumed.outcome is Outcome.COMPLETED
        resumed_digest = resumed.output_volume.content_digest

        straight_store = str(store_dir) + "-straight"
        vstore2 = VolumeStore(straight_store)
        vstore2.create(vol_id, make_input_bytes(seed, app.name, 2048))
        straight = run_workflow(
            make_pool(*pool.systems, rescue), app, vstore2.volume(vol_id),
            hardware, factory, straight_store, cfg=cfg, run_id=f"run-{seed}-s")
        assert straight.outcome is Outcome.COMPLETED
        straight_digest = straight.output_volume.content_digest
        artifact["resumed_digest"] = resumed_digest
        artifact["straight_digest"] = straight_digest
    return pool, app, result, artifact, backends, resumed_digest, straight_digest


# the system kind each simulated backend kind deploys onto
SIM_SYSTEM_KINDS = {"sim-hpc": SystemKind.HPC,
                    "sim-cloud-aws": SystemKind.CLOUD_AWS_LIKE,
                    "sim-cloud-baremetal": SystemKind.CLOUD_BAREMETAL_LIKE}


def _deploy_case(seed, backend_kind="sim-hpc"):
    """One seeded deploy (possibly faulted); returns an artifact dict."""
    rng = random.Random(seed)
    n_hosts = rng.randint(1, 6)
    system = make_system(f"d{seed}", n_hosts=n_hosts, kind=SIM_SYSTEM_KINDS[backend_kind])
    app = make_app(name=f"dep{seed}", process_count=n_hosts,
                   image_ref="img:1" if rng.random() < 0.7 else None,
                   buildfile=None if rng.random() < 0.7 else "Dockerfile")
    if app.container_source.image_ref is None and app.container_source.buildfile is None:
        app = make_app(name=app.name, process_count=n_hosts, buildfile="Dockerfile")
    hardware = make_hardware(network=rng.choice(list(NetworkSolution)))
    cfg = SimConfig(backend=backend_kind, seed=seed)
    backend = make_backend(system, cfg)
    registry = PortRegistry()

    fault = None
    if rng.random() < 0.35:
        fault = rng.choice(["create_img", "start_vm", "img_pull", "img_build",
                            "docker_start", "app_start"])
        backend.inject_fault(fault, host=rng.choice(system.hosts).id)

    artifact = {"seed": seed, "hosts": n_hosts, "fault": fault}
    try:
        cluster = deploy_cluster(system.hosts, app, f"c{seed}", hardware, backend,
                                 registry=registry)
        artifact["status"] = cluster.status.value
        artifact["ports"] = sorted(registry.allocated())
        artifact["events"] = backend.log.records()
        return artifact, backend, registry, cluster
    except DeploymentError as exc:
        artifact["status"] = "stopped"
        artifact["error"] = str(exc)
        artifact["ports"] = sorted(registry.allocated())
        artifact["events"] = backend.log.records()
        return artifact, backend, registry, None


def _trace_for_wire(n, messages=500, seed=424):
    rng = random.Random(seed)
    trace = []
    while len(trace) < messages:
        s, d = rng.randrange(n), rng.randrange(n)
        if s != d:
            trace.append((s, d, 16))
    return trace


def _scaling_artifact():
    app = make_app(name="scale", work_total=1000.0, process_count=64,
                   comm=CommKind.ONE_TO_ONE_HEAVY)
    out = {}
    hpc = make_backend(make_system("hpc", n_hosts=64), SimConfig(seed=42))
    for kind in (TREE, STAR, MCAST):
        rows = replay_scaling(app, hpc, kind, [1, 16, 64])
        out[kind.value] = to_json(rows)
    cloud = make_backend(make_system("aws", n_hosts=64, kind=SystemKind.CLOUD_AWS_LIKE),
                         SimConfig(backend="sim-cloud-aws", seed=42))
    out["cloud"] = to_json(replay_scaling(app, cloud, None, [1, 16, 64]))
    return out


WORKFLOW_SEEDS = list(range(100))
DEPLOY_SEEDS = list(range(50))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_conservation_and_resume_equivalence(tmp_path):
    t0 = time.monotonic()
    completed = stalled = 0
    for seed in WORKFLOW_SEEDS:
        pool, app, result, _, _, resumed, straight = _run_workflow_case(
            seed, tmp_path / f"w{seed}")
        if result.outcome is Outcome.COMPLETED:
            completed += 1
            assert math.fsum(r.progress_delta for r in result.history) == app.work_total
        elif result.outcome is Outcome.STALLED_WITH_CHECKPOINT:
            stalled += 1
            assert resumed is not None and resumed == straight
    assert completed and stalled, "generator must exercise both outcomes"
    _report(1, "workflow conservation & resume equivalence", t0, 30.0)


def test_criterion_02_guard_safety(tmp_path):
    t0 = time.monotonic()
    checked = 0
    for seed in WORKFLOW_SEEDS:
        pool, app, result, _, backends, _, _ = _run_workflow_case(
            seed, tmp_path / f"w{seed}", with_resume=False)
        systems = {s.id: s for s in pool.systems}
        systems[f"rescue-{seed}"] = make_system(f"rescue-{seed}", time_slot=100_000.0)
        for rec in result.history:
            assert rec.slot_duration_used <= systems[rec.system_id].time_slot
        for backend in backends:
            guards = [e.detail["seconds"] for e in backend.log.events
                      if e.kind == "guard_computed"]
            writes = [e.detail["seconds"] for e in backend.log.events
                      if e.kind == "checkpoint_write"]
            for write in writes:
                assert guards and write <= guards[0]
                checked += 1
    assert checked > 0
    _report(2, "guard safety & checkpoint window", t0, 30.0)


def test_criterion_03_topology_invariants():
    t0 = time.monotonic()
    for n in range(1, 65):
        star = build_topology(STAR, n)
        tree = build_topology(TREE, n)
        mcast = build_topology(MCAST, n)
        bound = 2 * int(math.log2(n)) if n > 1 else 0
        for src in range(n):
            for dst in range(n):
                star_path = route(star, src, dst)
                assert len(star_path) - 1 <= 2
                tree_path = route(tree, src, dst)
                assert len(tree_path) - 1 <= bound
                for path, topo in ((star_path, star), (tree_path, tree)):
                    for u, v in zip(path, path[1:]):
                        assert (min(u, v), max(u, v)) in topo.edges
        if n >= 2:
            assert cost_of_trace(mcast, [(0, n - 1, 1)]).messages_on_wire == n - 1
    _report(3, "topology invariants n=1..64", t0, 10.0)


def test_criterion_04_wire_model_equivalence(tmp_path):
    t0 = time.monotonic()
    n = 8
    trace = _trace_for_wire(n)
    for kind in (STAR, TREE, MCAST):
        with AgentFleet(kind, n, tmp_path / kind.value) as fleet:
            for s, d, size in trace:
                fleet.send(s, d, bytes(size))
            predicted = predict_link_frames(build_topology(kind, n), trace)
            observed = {}
            for node in range(n):
                for peer, count in fleet.counts(node).items():
                    key = (HUB, node) if peer == "hub" else (int(peer), node)
                    observed[key] = count
            assert observed == predicted
    _report(4, "wire/model equivalence (local agents, 500 msgs)", t0, 60.0)


def test_criterion_05_fault_asymmetry(tmp_path):
    t0 = time.monotonic()
    # multicast: killing a non-hub node leaves every other pair deliverable
    n = 8
    with AgentFleet(MCAST, n, tmp_path / "mcast") as fleet:
        fleet.kill(3)
        alive = [i for i in range(n) if i != 3]
        for s in alive:
            for d in alive:
                if s != d:
                    assert fleet.send(s, d, b"x") == 1
    # tree: killing an interior node breaks exactly the pairs routed through it
    n = 7
    victim = 1
    topo = build_topology(TREE, n)
    with AgentFleet(TREE, n, tmp_path / "tree") as fleet:
        fleet.kill(victim)
        alive = [i for i in range(n) if i != victim]
        broken = set()
        for s in alive:
            for d in alive:
                if s == d:
                    continue
                try:
                    fleet.send(s, d, b"x")
                except DeliveryError:
                    broken.add((s, d))
        expected = {(s, d) for s in alive for d in alive
                    if s != d and victim in route(topo, s, d)}
        assert broken == expected
    _report(5, "fault asymmetry (multicast vs tree)", t0, 60.0)


def test_criterion_06_storage_model():
    t0 = time.monotonic()
    rows = iobench_table(StorageSolution.DATA_IMAGE_NFS, max_nodes=32)
    for row in rows:
        if row["n_nodes"] >= 2:
            assert 120.0 <= row["read_worker_aggregate_mbps"] <= 130.0
            assert 120.0 <= row["write_worker_aggregate_mbps"] <= 130.0
    plan = StoragePlan(StorageSolution.VIRTIO_PASSTHROUGH, 0, "/mnt/shared",
                       native_read=431.0, native_write=377.0)
    assert abs(effective_bandwidth(plan, 1, "read") - 431.0) / 431.0 < 1e-9
    assert abs(effective_bandwidth(plan, 1, "write") - 0.9 * 377.0) / (0.9 * 377.0) < 1e-9
    _report(6, "storage model (flat export band, passthrough ratios)", t0, 5.0)


def test_criterion_07_compute_overhead():
    t0 = time.monotonic()
    for cores in (1, 2, 4, 8, 16):
        virtualized = sim_compute(1000.0, cores, 1.0, 0.09)
        native = sim_compute(1000.0, cores, 1.0, 0.0)
        loss = 1.0 - native / virtualized
        assert abs(loss - 0.09) <= 0.001  # 9% +/- 0.1%
    _report(7, "compute overhead 9% constant across cores", t0, 5.0)


def test_criterion_08_scaling_ordering():
    t0 = time.monotonic()
    artifact = _scaling_artifact()
    for procs_idx, procs in ((1, 16), (2, 64)):
        tree_rt = artifact[TREE.value][procs_idx]["runtime_s"]
        star_rt = artifact[STAR.value][procs_idx]["runtime_s"]
        mcast_rt = artifact[MCAST.value][procs_idx]["runtime_s"]
        assert tree_rt <= star_rt <= mcast_rt, f"ordering broken at {procs}"
    assert artifact["cloud"][2]["speedup"] >= artifact[TREE.value][2]["speedup"]
    _report(8, "scaling study ordering & cloud dominance", t0, 30.0)


def test_criterion_09_deployment_pipeline():
    t0 = time.monotonic()
    stage_num = {"cluster_init": 1, "vm_layer": 2, "image_build": 2,
                 "docker_layer": 3, "app_start": 4}
    faulted = clean = 0
    for seed in DEPLOY_SEEDS:
        artifact, backend, registry, cluster = _deploy_case(seed)
        if artifact["fault"] is None or cluster is not None:
            clean += 1
            numbered = [stage_num[r["stage"]] for r in artifact["events"]
                        if r["stage"] in stage_num]
            assert numbered == sorted(numbered)
            starts = [r for r in artifact["events"] if r["action"] == "app_start"]
            assert [r["host"] for r in starts] == [cluster.nodes[0].host_id]
            # parallel-start equivalence: a serial redeploy lands in the same state
            serial = deploy_cluster(backend.system.hosts, cluster.app, cluster.name,
                                    make_hardware(network=cluster.topology.kind),
                                    make_backend(backend.system, SimConfig(seed=seed)),
                                    parallelism=1)
            assert serial.nodes == cluster.nodes
            assert serial.status == cluster.status
        else:
            faulted += 1
            assert artifact["status"] == "stopped"
            assert artifact["ports"] == []
    assert faulted and clean
    _report(9, "deployment pipeline (50 seeded deploys incl. faults)", t0, 30.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()

    def artifacts(tag):
        out = []
        for seed in WORKFLOW_SEEDS[:10]:
            _, _, _, artifact, _, _, _ = _run_workflow_case(
                seed, tmp_path / f"{tag}-w{seed}")
            out.append(artifact)
        for seed in DEPLOY_SEEDS[:10]:
            artifact, _, _, _ = _deploy_case(seed)
            out.append(artifact)
        out.append({"scaling": _scaling_artifact()})
        out.append({"wire": {f"{k}-{v}": c for (k, v), c in sorted(
            predict_link_frames(build_topology(TREE, 8),
                                _trace_for_wire(8)).items(),
            key=lambda kv: str(kv[0]))}})
        from bee.model import StorageSolution

        out.append({"iobench": iobench_table(StorageSolution.DATA_IMAGE_NFS, 32)})
        return canonical_json(out).encode()

    first = artifacts("a")
    second = artifacts("b")
    assert first == second
    _report(10, "determinism: byte-identical artifacts for equal seeds", t0, 10.0)
