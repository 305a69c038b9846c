import json
from contextlib import closing

import pytest

from bee.model import CommKind, NetworkSolution, SystemKind, from_json, to_json
from bee.netvirt.topology import build_topology, cost_of_trace
from bee.backends import BACKEND_KINDS, SimConfig, make_backend
from bee.backends.base import (
    CAPABILITIES,
    BackendCapability,
    BackendOpError,
    NodeRef,
    VmSpec,
    sim_compute,
)
from bee.backends.local import LocalProcessBackend
from bee.backends.scaling import generate_trace, replay_scaling
from bee.backends.simhpc import VM_PROVISION_STEPS
from bee.cluster import deploy_cluster, make_storage_plan
from conftest import make_app, make_hardware, make_system


class TestSimCompute:
    def test_nine_percent_overhead_stretches_walltime(self):
        # 100 units on 1 core at rate 1: native 100 s, virtualized 100/0.91
        virtualized = sim_compute(100.0, 1, 1.0, 0.09)
        native = sim_compute(100.0, 1, 1.0, 0.0)
        assert native == pytest.approx(100.0)
        assert virtualized == pytest.approx(100.0 / 0.91, rel=1e-12)
        throughput_loss = 1.0 - native / virtualized
        assert throughput_loss == pytest.approx(0.09, abs=1e-12)

    def test_zero_overhead_is_identity(self):
        assert sim_compute(42.0, 3, 2.0, 0.0) == pytest.approx(42.0 / 6.0)

    def test_doubling_cores_halves_duration_overhead_constant(self):
        losses = []
        for cores in (1, 2, 4, 8, 16):
            d = sim_compute(64.0, cores, 1.0, 0.09)
            d_native = sim_compute(64.0, cores, 1.0, 0.0)
            assert d == pytest.approx(sim_compute(64.0, 1, 1.0, 0.09) / cores)
            losses.append(1.0 - d_native / d)
        assert all(loss == pytest.approx(0.09, abs=1e-12) for loss in losses)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sim_compute(-1.0, 1, 1.0)
        with pytest.raises(ValueError):
            sim_compute(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            sim_compute(1.0, 1, 1.0, 1.0)


class TestCapabilities:
    def test_aws_like_keeps_vm_layer_and_shared_fs(self):
        backend = make_backend(make_system("aws", kind=SystemKind.CLOUD_AWS_LIKE),
                               SimConfig(backend="sim-cloud-aws"))
        cap = backend.capability()
        assert cap.has_vm_layer and cap.native_shared_fs
        assert cap.cpu_overhead_fraction == pytest.approx(0.09)

    def test_baremetal_drops_vm_layer_and_overhead(self):
        backend = make_backend(make_system("metal", kind=SystemKind.CLOUD_BAREMETAL_LIKE),
                               SimConfig(backend="sim-cloud-baremetal"))
        cap = backend.capability()
        assert not cap.has_vm_layer
        assert cap.cpu_overhead_fraction == 0.0

    def test_sim_hpc_offers_all_overlays(self):
        backend = make_backend(make_system(), SimConfig())
        assert backend.capability().topology_choices == frozenset(NetworkSolution)


ALL_OVERLAYS = frozenset(NetworkSolution)

# (has_vm_layer, native_shared_fs, topology_choices, default cpu_overhead_fraction);
# None as the shared filesystem stands for the system's host_file_sharing
EXPECTED_CAPABILITY = {
    "sim-hpc": (True, None, ALL_OVERLAYS, 0.09),
    "sim-cloud-aws": (True, True, frozenset(), 0.09),
    "sim-cloud-baremetal": (False, True, frozenset(), 0.0),
    "local": (True, None, ALL_OVERLAYS, 0.09),
}


@pytest.mark.parametrize("overhead", [None, 0.25])
@pytest.mark.parametrize("host_file_sharing", [True, False])
@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_capability_by_kind(kind, host_file_sharing, overhead, tmp_path):
    system = make_system("cap", host_file_sharing=host_file_sharing)
    cfg = SimConfig(backend=kind, cpu_overhead_fraction=overhead)
    backend = LocalProcessBackend(system, cfg, workdir=tmp_path) if kind == "local" \
        else make_backend(system, cfg)
    vm_layer, shared_fs, overlays, default_overhead = EXPECTED_CAPABILITY[kind]
    assert backend.capability() == BackendCapability(
        has_vm_layer=vm_layer,
        native_shared_fs=host_file_sharing if shared_fs is None else shared_fs,
        topology_choices=overlays,
        cpu_overhead_fraction=default_overhead if overhead is None else overhead)


def test_capability_table_has_one_row_per_kind():
    assert len(set(BACKEND_KINDS)) == len(BACKEND_KINDS)
    assert set(CAPABILITIES) == set(EXPECTED_CAPABILITY) == set(BACKEND_KINDS)


SIM_FAULT_SITES = [
    # (backend kind, action, extras the event carries)
    *[("sim-hpc", step, {"index": 1}) for step in VM_PROVISION_STEPS],
    ("sim-hpc", "register_vm", {"index": 1}),
    ("sim-cloud-baremetal", "register_agent", {"index": 1}),
    ("sim-hpc", "start_vm", {}),
    ("sim-hpc", "img_pull", {"ref": "demo:1"}),
    ("sim-hpc", "img_build", {}),
    ("sim-hpc", "docker_start", {"index": 1}),
    ("sim-hpc", "app_start", {"index": 1}),
    ("sim-hpc", "hostname", {"argv": ["hostname"]}),
]
SITE_ARGV = {"img_pull": ["img_pull", "demo:1"], "img_build": ["img_build", "Dockerfile"],
             "docker_start": ["docker_start"], "app_start": ["app_start", "mpirun"],
             "hostname": ["hostname"]}


def _bring_up(backend, hosts):
    """Begin a cluster on `hosts`; returns the VmSpec of each host's node."""
    app = make_app(process_count=len(hosts))
    hardware = make_hardware()
    backend.begin_cluster("c1", app, hardware, make_storage_plan(
        hardware, backend.system, backend, backend.cfg.nfs_cap))
    return [VmSpec(cluster_name="c1", node_index=i, vcpus=1, ram_mb=1024,
                   network_solution=hardware.network_solution,
                   storage_solution=hardware.storage_solution.value)
            for i in range(len(hosts))]


def _assert_one_failed_event(backend, err, host, action, stage, extras):
    assert (err.value.host, err.value.op, err.value.cause) == (host, action, "boom")
    failed = [e for e in backend.log.events if not e.detail["ok"]]
    assert [(e.kind, e.node) for e in failed] == [(action, host)]
    assert failed[0].detail == {"stage": stage, "ok": False, "cause": "boom", **extras}


@pytest.mark.parametrize("kind,action,extras", SIM_FAULT_SITES,
                         ids=[f"{k}-{a}" for k, a, _ in SIM_FAULT_SITES])
def test_sim_fault_site_raises_and_logs_once(kind, action, extras):
    system = make_system("f", n_hosts=2)
    backend = make_backend(system, SimConfig(backend=kind, seed=1))
    specs = _bring_up(backend, system.hosts)
    backend.set_stage("vm_layer")
    host = system.hosts[1].id
    backend.inject_fault(action, host=host, error="boom")
    with pytest.raises(BackendOpError) as err:
        refs = [backend.provision(h.id, spec) for h, spec in zip(system.hosts, specs)]
        if action == "start_vm":
            backend.start_all(refs)
        backend.exec(refs[1], SITE_ARGV[action])
    _assert_one_failed_event(backend, err, host, action, "vm_layer", extras)


@pytest.mark.parametrize("action", ["create_vm", "docker_start"])
def test_local_fault_site_raises_and_logs_once(action, tmp_path):
    system = make_system("f", n_hosts=1)
    with closing(LocalProcessBackend(system, SimConfig(backend="local"),
                                     workdir=tmp_path)) as backend:
        [spec] = _bring_up(backend, system.hosts)
        backend.set_stage("docker_layer")
        host = system.hosts[0].id
        backend.inject_fault(action, host=host, error="boom")
        with pytest.raises(BackendOpError) as err:
            if action == "create_vm":
                backend.provision(host, spec)
            else:
                backend.exec(NodeRef(host_id=host, node_index=0, cluster_name="c1"),
                             [action])
        _assert_one_failed_event(backend, err, host, action, "docker_layer", {})


class TestDeterminism:
    def _event_dump(self, seed):
        backend = make_backend(make_system("alpha", n_hosts=4), SimConfig(seed=seed))
        deploy_cluster(backend.system.hosts, make_app(process_count=4), "c1",
                       make_hardware(), backend)
        return json.dumps(backend.log.records(), sort_keys=True)

    def test_same_seed_identical_event_logs(self):
        assert self._event_dump(7) == self._event_dump(7)

    def test_different_seed_differs(self):
        assert self._event_dump(7) != self._event_dump(8)

    def test_event_log_time_nondecreasing(self):
        backend = make_backend(make_system("alpha", n_hosts=4), SimConfig(seed=3))
        deploy_cluster(backend.system.hosts, make_app(process_count=4), "c1",
                       make_hardware(), backend)
        times = [e.t for e in backend.log.events]
        assert times == sorted(times)

    def test_event_log_renders_ndjson_records(self):
        backend = make_backend(make_system("alpha", n_hosts=2), SimConfig(seed=3))
        deploy_cluster(backend.system.hosts, make_app(process_count=2), "c1",
                       make_hardware(), backend)
        lines = [json.dumps(r, sort_keys=True) for r in backend.log.records()]
        assert len(lines) == len(backend.log.events)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"t", "stage", "host", "action", "ok"}


class TestSimConfig:
    def test_round_trip(self):
        cfg = SimConfig(backend="sim-cloud-aws", seed=9, hop_latency_ms=2.5)
        assert from_json(SimConfig, to_json(cfg), "sim_config") == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            from_json(SimConfig, {"bandwidth": 1.0}, "sim_config")

    def test_partial_dict_uses_defaults(self):
        cfg = from_json(SimConfig, {"backend": "local", "seed": 4}, "sim_config")
        assert cfg.backend == "local" and cfg.seed == 4
        assert cfg.nfs_cap == 125.0


class TestScaling:
    def _rows(self, backend_kind, topology, counts, kind=CommKind.ONE_TO_ONE_HEAVY,
              system_kind=SystemKind.HPC):
        app = make_app(work_total=1000.0, comm=kind, process_count=max(counts))
        system = make_system("study", n_hosts=max(counts), kind=system_kind,
                             host_file_sharing=True)
        backend = make_backend(system, SimConfig(backend=backend_kind, seed=42))
        return replay_scaling(app, backend, topology, counts)

    def test_single_process_speedup_is_one(self):
        for topo in NetworkSolution:
            rows = self._rows("sim-hpc", topo, [1])
            assert rows[0].speedup == pytest.approx(1.0)

    @pytest.mark.parametrize("procs", [16, 64])
    def test_one_to_one_ranking_tree_star_multicast(self, procs):
        runtimes = {}
        for topo in NetworkSolution:
            rows = self._rows("sim-hpc", topo, [procs])
            runtimes[topo] = rows[0].runtime_s
        assert runtimes[NetworkSolution.P2P_TREE] <= runtimes[NetworkSolution.P2P_STAR]
        assert runtimes[NetworkSolution.P2P_STAR] <= runtimes[NetworkSolution.MULTICAST]

    def test_cloud_speedup_dominates_vm_overlay_at_64(self):
        vm_rows = self._rows("sim-hpc", NetworkSolution.P2P_TREE, [64])
        cloud_rows = self._rows("sim-cloud-aws", None, [64],
                                system_kind=SystemKind.CLOUD_AWS_LIKE)
        assert cloud_rows[0].speedup >= vm_rows[0].speedup

    def test_all_to_all_multicast_wire_never_worse_than_unicast_fanout(self):
        from bee.model import CommPattern

        pattern = CommPattern(CommKind.ALL_TO_ALL)
        for n in (4, 8, 16):
            mcast_trace = generate_trace(pattern, n, 42, 10, 64, expand_broadcast=False)
            p2p_trace = generate_trace(pattern, n, 42, 10, 64, expand_broadcast=True)
            mcast_cost = cost_of_trace(build_topology(NetworkSolution.MULTICAST, n),
                                       mcast_trace)
            star_cost = cost_of_trace(build_topology(NetworkSolution.P2P_STAR, n),
                                      p2p_trace)
            assert mcast_cost.messages_on_wire <= star_cost.messages_on_wire

    def test_trace_generation_deterministic(self):
        from bee.model import CommPattern

        pattern = CommPattern(CommKind.MIXED, 0.5)
        a = generate_trace(pattern, 8, 11, 20, 64, expand_broadcast=True)
        b = generate_trace(pattern, 8, 11, 20, 64, expand_broadcast=True)
        assert a == b
