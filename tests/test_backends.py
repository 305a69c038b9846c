import json

import pytest

from bee.model import CommKind, NetworkSolution, SystemKind, from_json, to_json
from bee.netvirt.topology import build_topology, cost_of_trace
from bee.backends import SimConfig, make_backend
from bee.backends.base import sim_compute
from bee.backends.scaling import generate_trace, replay_scaling
from bee.cluster import deploy_cluster
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
        times = [e.t for e in backend.events()]
        assert times == sorted(times)

    def test_event_log_renders_ndjson_records(self):
        backend = make_backend(make_system("alpha", n_hosts=2), SimConfig(seed=3))
        deploy_cluster(backend.system.hosts, make_app(process_count=2), "c1",
                       make_hardware(), backend)
        lines = backend.log.to_ndjson().splitlines()
        assert len(lines) == len(backend.events())
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
