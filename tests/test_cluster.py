import pytest

from bee.model import NetworkSolution
from bee.cluster import (
    Cluster,
    ClusterError,
    ClusterStatus,
    DeploymentError,
    ImageRecipe,
    PortRegistry,
    ProvisionStep,
    StepKind,
    build_image,
    default_recipe,
    deploy_cluster,
    recipe_violations,
)
from bee.backends import SimConfig, make_backend
from conftest import make_app, make_hardware, make_system


def sim_backend(system=None, seed=7, backend="sim-hpc"):
    system = system or make_system("alpha", n_hosts=4)
    return make_backend(system, SimConfig(backend=backend, seed=seed))


def _state(cluster):
    return (cluster.name, cluster.hosts, cluster.nodes, cluster.topology,
            cluster.storage_plan, cluster.status)


def deploy(backend=None, app=None, hardware=None, **kwargs):
    backend = backend or sim_backend()
    app = app or make_app(process_count=4)
    hardware = hardware or make_hardware()
    return deploy_cluster(backend.system.hosts, app, "c1", hardware, backend, **kwargs)


class TestImageRecipe:
    def test_default_recipe_valid(self):
        assert recipe_violations(default_recipe()) == []

    def test_missing_ssh_step_invalid(self):
        recipe = ImageRecipe(
            steps=(ProvisionStep(StepKind.CREATE_USER_ACCOUNTS),
                   ProvisionStep(StepKind.INSTALL_PACKAGES, ("mpi",)),
                   ProvisionStep(StepKind.CONFIGURE_PROXY),
                   ProvisionStep(StepKind.CONFIGURE_SHARED_STORAGE)),
            boot_time_script=(ProvisionStep(StepKind.CONFIGURE_NETWORK_INTERFACES),))
        assert any("configure_ssh" in v for v in recipe_violations(recipe))
        with pytest.raises(ClusterError):
            build_image(recipe, sim_backend())

    def test_duplicate_step_invalid(self):
        recipe = default_recipe()
        recipe = ImageRecipe(steps=recipe.steps + (ProvisionStep(StepKind.CONFIGURE_PROXY),),
                             boot_time_script=recipe.boot_time_script)
        assert any("duplicate" in v for v in recipe_violations(recipe))

    def test_network_step_must_defer_to_boot(self):
        recipe = ImageRecipe(
            steps=default_recipe().steps + (ProvisionStep(StepKind.CONFIGURE_NETWORK_INTERFACES),),
            boot_time_script=())
        assert any("boot time" in v for v in recipe_violations(recipe))

    def test_full_recipe_build_logs_six_steps(self):
        backend = sim_backend()
        build_image(default_recipe(), backend)
        steps = [e for e in backend.log.events if e.kind.startswith("image_step:")]
        assert len(steps) == 6
        deferred = [e for e in steps if e.detail.get("deferred_to_boot")]
        assert [e.kind for e in deferred] == ["image_step:configure_network_interfaces"]

    def test_same_recipe_builds_identical_image_id(self):
        assert build_image(default_recipe(), sim_backend()) == \
            build_image(default_recipe(), sim_backend(seed=99))

    def test_cluster_spec_round_trip(self):
        from bee.model import AppSpec, HardwareConfig, Host, from_json, to_json

        app = make_app(process_count=3)
        hw = make_hardware()
        doc = {"cname": "c9", "hosts": ["h0", "h1", "h2"], "uconf": to_json(hw),
               "app": to_json(app)}
        cname, hosts, app2, hw2 = (from_json(str, doc["cname"], "cname"),
                                   from_json(tuple[Host, ...], doc["hosts"], "hosts"),
                                   from_json(AppSpec, doc["app"], "app"),
                                   from_json(HardwareConfig, doc["uconf"], "uconf"))
        assert cname == "c9"
        assert [h.id for h in hosts] == ["h0", "h1", "h2"]
        assert app2 == app and hw2 == hw


class TestPorts:
    def test_first_allocation_is_base(self):
        reg = PortRegistry()
        assert reg.allocate("h1", 10022) == 10022

    def test_second_allocation_next_free(self):
        reg = PortRegistry()
        reg.allocate("h1", 10022)
        assert reg.allocate("h1", 10022) == 10023

    def test_hosts_are_separate_namespaces(self):
        reg = PortRegistry()
        assert reg.allocate("h1", 10022) == 10022
        assert reg.allocate("h2", 10022) == 10022

    def test_release_makes_port_reusable(self):
        reg = PortRegistry()
        port = reg.allocate("h1", 10022)
        reg.release("h1", port)
        assert reg.allocate("h1", 10022) == 10022


class TestDeploy:
    def test_four_host_tree_deploy(self):
        backend = sim_backend()
        cluster = deploy(backend, hardware=make_hardware(network=NetworkSolution.P2P_TREE))
        assert cluster.status is ClusterStatus.APP_RUNNING
        assert len(cluster.nodes) == 4
        assert cluster.nodes[0].role.value == "master"
        assert all(n.role.value == "worker" for n in cluster.nodes[1:])
        assert cluster.topology.kind is NetworkSolution.P2P_TREE
        assert cluster.topology.edges == frozenset({(0, 1), (0, 2), (1, 3)})

    def test_single_host_degenerate_cluster(self):
        backend = sim_backend(make_system("solo", n_hosts=1))
        cluster = deploy(backend, app=make_app(process_count=1))
        assert len(cluster.nodes) == 1
        assert cluster.topology.edges == frozenset()

    def test_stage_ordering_in_event_log(self):
        backend = sim_backend()
        deploy(backend)
        records = backend.log.records()
        stage_of = {"cluster_init": 1, "vm_layer": 2, "image_build": 2,
                    "docker_layer": 3, "app_start": 4}
        numbered = [stage_of[r["stage"]] for r in records if r["stage"] in stage_of]
        assert numbered == sorted(numbered)

    def test_app_starts_only_on_master(self):
        backend = sim_backend()
        cluster = deploy(backend)
        starts = [r for r in backend.log.records() if r["action"] == "app_start"]
        assert [r["host"] for r in starts] == [cluster.nodes[0].host_id]

    def test_build_fault_fails_stage_three_and_stops(self):
        backend = sim_backend()
        backend.inject_fault("img_build", host="alpha-h2")
        app = make_app(process_count=4, image_ref=None, buildfile="Dockerfile")
        with pytest.raises(DeploymentError) as err:
            deploy(backend, app=app)
        assert "stage 3 failed on host alpha-h2" in str(err.value)

    def test_failed_deploy_releases_everything(self):
        backend = sim_backend()
        backend.inject_fault("create_img", host="alpha-h3")
        registry = PortRegistry()
        with pytest.raises(DeploymentError) as err:
            deploy(backend, registry=registry)
        assert "stage 2" in str(err.value)
        assert registry.allocated() == set()

    def test_ssh_ports_assigned_per_host(self):
        cluster = deploy()
        ports = [n.ssh_forward_port for n in cluster.nodes]
        assert ports == [10022] * 4  # one VM per distinct host

    def test_parallel_start_equivalent_to_serial(self):
        serial = deploy(sim_backend(seed=3), parallelism=1)
        parallel = deploy(sim_backend(seed=3), parallelism=4)
        assert _state(serial) == _state(parallel)

    def test_insufficient_hosts_rejected(self):
        backend = sim_backend(make_system("tiny", n_hosts=2))
        with pytest.raises(DeploymentError):
            deploy(backend, app=make_app(process_count=4))


class TestLifecycle:
    def test_pause_resume_cycle(self):
        cluster = deploy()
        assert cluster.pause() is ClusterStatus.PAUSED
        assert cluster.resume() is ClusterStatus.APP_RUNNING

    def test_pause_from_defined_rejected(self):
        backend = sim_backend()
        cluster = Cluster("c0", backend.system, backend, PortRegistry())
        with pytest.raises(ClusterError) as err:
            cluster.pause()
        assert "defined" in str(err.value)

    def test_stop_releases_ports_for_reuse(self):
        registry = PortRegistry()
        backend = sim_backend()
        cluster = deploy(backend, registry=registry)
        assert registry.allocated() != set()
        assert cluster.stop() is ClusterStatus.STOPPED
        assert registry.allocated() == set()
        assert cluster.nodes == ()
        assert cluster.refs == []

    def test_stop_from_paused_allowed(self):
        cluster = deploy()
        cluster.pause()
        assert cluster.stop() is ClusterStatus.STOPPED

    def test_stop_twice_rejected(self):
        cluster = deploy()
        cluster.stop()
        with pytest.raises(ClusterError):
            cluster.stop()


class TestNoVmBackends:
    def test_baremetal_emits_no_vm_events(self):
        backend = sim_backend(make_system("metal", n_hosts=2),
                              backend="sim-cloud-baremetal")
        cluster = deploy(backend, app=make_app(process_count=2))
        vm_actions = {"create_vm", "create_img", "start_vm", "register_vm"}
        assert not [r for r in backend.log.records() if r["action"] in vm_actions]
        assert cluster.status is ClusterStatus.APP_RUNNING
        assert all(n.vm_id is None for n in cluster.nodes)
        assert all(n.ssh_forward_port is None for n in cluster.nodes)

    def test_cloud_clusters_have_no_overlay(self):
        backend = sim_backend(make_system("aws", n_hosts=2), backend="sim-cloud-aws")
        cluster = deploy(backend, app=make_app(process_count=2))
        assert cluster.topology is None
