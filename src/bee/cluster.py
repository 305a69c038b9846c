"""Virtual-cluster deployment: the four-stage pipeline plus the image recipe.

Stages: (1) cluster init and host registration, (2) VM layer with parallel
start, (3) container layer with image pull/build and parallel start, (4) app
launch on the master.  Any stage failure tears the cluster down to stopped.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from bee.model import (
    AppSpec,
    ComputeSystem,
    HardwareConfig,
    Host,
    StorageSolution,
    canonical_json,
)
from bee.netvirt.topology import Topology, build_topology
from bee.storage import StoragePlan
from bee.backends.base import Backend, BackendOpError, NodeRef, VmSpec

STAGE_NUMBER = {"cluster_init": 1, "vm_layer": 2, "docker_layer": 3, "app_start": 4}

MOUNT_PATH = "/mnt/shared"


class ClusterError(RuntimeError):
    pass


class DeploymentError(ClusterError):
    def __init__(self, stage: str, host: str, cause: str):
        num = STAGE_NUMBER.get(stage, 0)
        super().__init__(f"stage {num} failed on host {host}: {cause}")
        self.stage = stage
        self.host = host
        self.cause = cause


class ClusterStatus(str, Enum):
    DEFINED = "defined"
    VM_LAYER_UP = "vm_layer_up"
    DOCKER_LAYER_UP = "docker_layer_up"
    APP_RUNNING = "app_running"
    PAUSED = "paused"
    STOPPED = "stopped"


LEGAL_TRANSITIONS: dict[ClusterStatus, set[ClusterStatus]] = {
    ClusterStatus.DEFINED: {ClusterStatus.VM_LAYER_UP, ClusterStatus.DOCKER_LAYER_UP,
                            ClusterStatus.STOPPED},
    ClusterStatus.VM_LAYER_UP: {ClusterStatus.DOCKER_LAYER_UP, ClusterStatus.STOPPED},
    ClusterStatus.DOCKER_LAYER_UP: {ClusterStatus.APP_RUNNING, ClusterStatus.STOPPED},
    ClusterStatus.APP_RUNNING: {ClusterStatus.PAUSED, ClusterStatus.STOPPED},
    ClusterStatus.PAUSED: {ClusterStatus.APP_RUNNING, ClusterStatus.STOPPED},
    ClusterStatus.STOPPED: set(),
}


class NodeRole(str, Enum):
    MASTER = "master"
    WORKER = "worker"


@dataclass(frozen=True)
class NodeHandle:
    host_id: str
    vm_id: str | None
    docker_id: str
    role: NodeRole
    ssh_forward_port: int | None
    mpi_vnic_addr: str


# ---------------------------------------------------------------------------
# image recipe (offline phase of the image builder)


class StepKind(str, Enum):
    CREATE_USER_ACCOUNTS = "create_user_accounts"
    CONFIGURE_NETWORK_INTERFACES = "configure_network_interfaces"
    CONFIGURE_SSH = "configure_ssh"
    INSTALL_PACKAGES = "install_packages"
    CONFIGURE_PROXY = "configure_proxy"
    CONFIGURE_SHARED_STORAGE = "configure_shared_storage"


@dataclass(frozen=True)
class ProvisionStep:
    kind: StepKind
    packages: tuple[str, ...] = ()


@dataclass(frozen=True)
class ImageRecipe:
    """Offline steps plus the steps deferred to first boot.

    Interface settings depend on addresses only known at boot, so the network
    step must sit in the boot-time script.
    """

    steps: tuple[ProvisionStep, ...]
    boot_time_script: tuple[ProvisionStep, ...] = ()


def default_recipe(packages: tuple[str, ...] = ("openmpi", "docker")) -> ImageRecipe:
    return ImageRecipe(
        steps=(
            ProvisionStep(StepKind.CREATE_USER_ACCOUNTS),
            ProvisionStep(StepKind.CONFIGURE_SSH),
            ProvisionStep(StepKind.INSTALL_PACKAGES, packages),
            ProvisionStep(StepKind.CONFIGURE_PROXY),
            ProvisionStep(StepKind.CONFIGURE_SHARED_STORAGE),
        ),
        boot_time_script=(ProvisionStep(StepKind.CONFIGURE_NETWORK_INTERFACES),),
    )


def recipe_violations(recipe: ImageRecipe) -> list[str]:
    out = []
    kinds = [s.kind for s in recipe.steps] + [s.kind for s in recipe.boot_time_script]
    for kind in StepKind:
        count = kinds.count(kind)
        if count == 0:
            out.append(f"missing step {kind.value}")
        elif count > 1:
            out.append(f"duplicate step {kind.value}")
    if StepKind.CONFIGURE_NETWORK_INTERFACES not in {s.kind for s in recipe.boot_time_script}:
        out.append("configure_network_interfaces must run at boot time")
    return out


def recipe_digest(recipe: ImageRecipe) -> str:
    doc = {
        "steps": [[s.kind.value, list(s.packages)] for s in recipe.steps],
        "boot_time_script": [[s.kind.value, list(s.packages)]
                             for s in recipe.boot_time_script],
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def build_image(recipe: ImageRecipe, backend: Backend) -> str:
    """Run the offline image build; returns a reusable content-derived image id.

    Boot-time steps cost nothing now: they are baked into the image as a
    startup script and logged as deferred.
    """
    problems = recipe_violations(recipe)
    if problems:
        raise ClusterError("invalid image recipe: " + "; ".join(problems))
    previous_stage = backend.stage
    backend.set_stage("image_build")
    for step in recipe.steps:
        backend.charge(backend.cfg.image_step_seconds, f"image_step:{step.kind.value}",
                       "builder")
    for step in recipe.boot_time_script:
        backend.log.append(backend.now(), f"image_step:{step.kind.value}", "builder",
                           stage="image_build", deferred_to_boot=True)
    image_id = "img-" + recipe_digest(recipe)[:16]
    backend.charge(0.0, "image_ready", "builder")
    backend.set_stage(previous_stage)
    return image_id


# ---------------------------------------------------------------------------
# ssh port forwarding


class PortRegistry:
    """Host-local forward ports; each host is its own namespace."""

    def __init__(self) -> None:
        self._used: dict[str, set[int]] = {}

    def allocate(self, host: str, base_port: int) -> int:
        if not (1024 <= base_port < 65535):
            raise ClusterError(f"base port {base_port} out of range")
        used = self._used.setdefault(host, set())
        port = base_port
        while port in used:
            port += 1
            if port >= 65535:
                raise ClusterError(f"port space exhausted on {host}")
        used.add(port)
        return port

    def release(self, host: str, port: int) -> None:
        self._used.get(host, set()).discard(port)

    def allocated(self, host: str | None = None) -> set[int]:
        if host is not None:
            return set(self._used.get(host, set()))
        return {p for ports in self._used.values() for p in ports}


# ---------------------------------------------------------------------------
# deployment pipeline


class Cluster:
    """Runtime handle for a deployed virtual cluster."""

    def __init__(self, name: str, system: ComputeSystem, backend: Backend,
                 registry: PortRegistry):
        self.name = name
        self.system = system
        self.backend = backend
        self.registry = registry
        self.hosts: tuple[str, ...] = ()
        self.nodes: tuple[NodeHandle, ...] = ()
        self.refs: list[NodeRef] = []
        self.ports: list[tuple[str, int]] = []
        self.topology: Topology | None = None
        self.storage_plan: StoragePlan | None = None
        self.app: AppSpec | None = None
        self.status = ClusterStatus.DEFINED

    @property
    def master_ref(self) -> NodeRef:
        return self.refs[0]

    def _transition(self, target: ClusterStatus) -> ClusterStatus:
        if target not in LEGAL_TRANSITIONS[self.status]:
            raise ClusterError(
                f"illegal transition: cannot go to {target.value} from {self.status.value}")
        self.status = target
        return self.status

    def progress(self) -> float:
        return self.backend.progress(self.master_ref)

    def pause(self) -> ClusterStatus:
        self._transition(ClusterStatus.PAUSED)
        for ref in self.refs:
            self.backend.pause(ref)
        return self.status

    def resume(self) -> ClusterStatus:
        self._transition(ClusterStatus.APP_RUNNING)
        for ref in self.refs:
            self.backend.resume(ref)
        return self.status

    def stop(self) -> ClusterStatus:
        self._transition(ClusterStatus.STOPPED)
        self._release()
        return self.status

    def _release(self) -> None:
        for ref in list(self.refs):
            self.backend.stop(ref)
        for host, port in self.ports:
            self.registry.release(host, port)
        self.refs = []
        self.ports = []
        self.nodes = ()


def make_storage_plan(hardware: HardwareConfig, system: ComputeSystem,
                      backend: Backend, nfs_cap: float) -> StoragePlan:
    solution = hardware.storage_solution
    if backend.capability().native_shared_fs and system.kind.value.startswith("cloud"):
        # Provider-managed shared filesystem; directory passthrough semantics.
        solution = StorageSolution.VIRTIO_PASSTHROUGH
    return StoragePlan(
        solution=solution,
        master_node=0,
        mount_path=MOUNT_PATH,
        native_read=system.disk_bandwidth_native.read,
        native_write=system.disk_bandwidth_native.write,
        nfs_cap=nfs_cap,
    )


def _vnic_addr(index: int) -> str:
    return f"10.88.{index // 250}.{index % 250 + 1}"


def deploy_cluster(hosts: Sequence[Host | str], app: AppSpec, cname: str,
                   hardware: HardwareConfig, backend: Backend, *,
                   image_id: str | None = None, parallelism: int | None = None,
                   registry: PortRegistry | None = None) -> Cluster:
    """Deploy the full stack on the given hosts and start the application.

    Returns the cluster in app_running status; on any stage failure the cluster
    is torn down to stopped and a DeploymentError names the stage and host.
    """
    host_ids = [h.id if isinstance(h, Host) else str(h) for h in hosts]
    if len(host_ids) < app.process_count:
        raise DeploymentError("cluster_init", host_ids[0] if host_ids else "-",
                              f"need {app.process_count} hosts, have {len(host_ids)}")
    host_ids = host_ids[: app.process_count]

    cap = backend.capability()
    registry = registry if registry is not None else PortRegistry()
    cluster = Cluster(cname, backend.system, backend, registry)
    plan = make_storage_plan(hardware, backend.system, backend, backend.cfg.nfs_cap)
    cluster.storage_plan = plan
    cluster.app = app
    backend.begin_cluster(cname, app, hardware, plan)
    overlay = cap.has_vm_layer and bool(cap.topology_choices)

    try:
        _run_stages(cluster, host_ids, app, cname, hardware, backend, cap,
                    image_id, parallelism, overlay)
    except BackendOpError as exc:
        stage = backend.stage
        _teardown(cluster, backend)
        raise DeploymentError(stage, exc.host, exc.cause) from exc
    except DeploymentError:
        _teardown(cluster, backend)
        raise

    cluster.topology = build_topology(hardware.network_solution, len(host_ids)) \
        if overlay else None
    return cluster


def _run_stages(cluster: Cluster, host_ids: list[str], app: AppSpec, cname: str,
                hardware: HardwareConfig, backend: Backend, cap, image_id,
                parallelism, overlay: bool) -> None:
    # stage 1: cluster init
    backend.set_stage("cluster_init")
    backend.charge(0.0, "create_cluster", cname)
    for host in host_ids:
        backend.charge(0.0, "register_host", host)
    cluster.hosts = tuple(host_ids)

    if overlay and hardware.network_solution not in cap.topology_choices:
        raise DeploymentError("cluster_init", host_ids[0],
                              f"backend cannot wire {hardware.network_solution.value}")

    vm_ids: dict[int, str | None] = {}
    ports: dict[int, int | None] = {}

    def make_spec(index: int, img: str | None) -> VmSpec:
        return VmSpec(cluster_name=cname, node_index=index, vcpus=hardware.vcpus,
                      ram_mb=hardware.ram_mb,
                      network_solution=hardware.network_solution,
                      storage_solution=hardware.storage_solution.value,
                      image_id=img)

    # stage 2: VM layer (skipped entirely when the backend has no VM layer)
    if cap.has_vm_layer:
        backend.set_stage("vm_layer")
        if image_id is None:
            image_id = build_image(default_recipe(), backend)

        def provision_one(item: tuple[int, str]) -> NodeRef:
            index, host = item
            ref = backend.provision(host, make_spec(index, image_id))
            vm_ids[index] = f"vm-{cname}-{index}"
            port = cluster.registry.allocate(host, hardware.ssh_base_port)
            cluster.ports.append((host, port))
            ports[index] = port
            return ref

        cluster.refs = backend.parallel_map(provision_one, list(enumerate(host_ids)),
                                            parallelism)
        backend.start_all(cluster.refs)
        cluster.status = ClusterStatus.VM_LAYER_UP
    else:
        backend.set_stage("docker_layer")

        def register_one(item: tuple[int, str]) -> NodeRef:
            index, host = item
            ref = backend.provision(host, make_spec(index, image_id))
            vm_ids[index] = None
            ports[index] = None
            return ref

        cluster.refs = backend.parallel_map(register_one, list(enumerate(host_ids)),
                                            parallelism)

    # stage 3: container layer
    backend.set_stage("docker_layer")
    source = app.container_source

    def docker_one(ref: NodeRef) -> None:
        if source.image_ref is not None:
            backend.exec(ref, ["img_pull", source.image_ref])
        else:
            backend.exec(ref, ["img_build", source.buildfile or ""])
        backend.charge(0.0, "register_docker", ref.host_id)

    backend.parallel_map(docker_one, cluster.refs, parallelism)
    backend.parallel_map(lambda ref: backend.exec(ref, ["docker_start"]),
                         cluster.refs, parallelism)
    cluster.status = ClusterStatus.DOCKER_LAYER_UP

    # stage 4: application start on the master node
    backend.set_stage("app_start")
    backend.exec(cluster.refs[0], ["app_start", *app.entry_command])
    cluster.status = ClusterStatus.APP_RUNNING

    nodes = []
    for index, host in enumerate(host_ids):
        nodes.append(NodeHandle(
            host_id=host,
            vm_id=vm_ids.get(index),
            docker_id=f"dkr-{cname}-{index}",
            role=NodeRole.MASTER if index == 0 else NodeRole.WORKER,
            ssh_forward_port=ports.get(index),
            mpi_vnic_addr=_vnic_addr(index),
        ))
    cluster.nodes = tuple(nodes)


def _teardown(cluster: Cluster, backend: Backend) -> None:
    backend.set_stage("teardown")
    cluster._release()
    backend.abort_cluster()
    backend.charge(0.0, "teardown_complete", cluster.name)
    cluster.status = ClusterStatus.STOPPED
