"""Domain types, validation, and the JSON file formats shared by the whole engine.

All types here are immutable values; runtime state lives in the orchestrator
and cluster layers.  Bandwidths are MB/s with MB = 2**20 bytes throughout.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

# the work lattice lives with the app model, which relay agents load without this module
from bee.workload import MAX_WORK, WORK_QUANTUM, quantize_work  # noqa: F401

MB = 1 << 20


class SystemKind(str, Enum):
    HPC = "hpc"
    CLOUD_AWS_LIKE = "cloud-aws-like"
    CLOUD_BAREMETAL_LIKE = "cloud-baremetal-like"


class NetworkSolution(str, Enum):
    MULTICAST = "multicast"
    P2P_STAR = "p2p_star"
    P2P_TREE = "p2p_tree"


class StorageSolution(str, Enum):
    DATA_IMAGE_NFS = "data_image_nfs"
    VIRTIO_PASSTHROUGH = "virtio_passthrough"


class CommKind(str, Enum):
    ALL_TO_ALL = "all_to_all"
    ONE_TO_ONE_HEAVY = "one_to_one_heavy"
    MIXED = "mixed"


class Phase(str, Enum):
    INIT = "init"
    DEPLOYING = "deploying"
    RUNNING = "running"
    CHECKPOINTING = "checkpointing"
    MIGRATING = "migrating"
    STALLED = "stalled"
    COMPLETE = "complete"
    FAILED = "failed"


class ParseError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


# field metadata: to_json leaves the key out while the value is None
OMIT_IF_NONE = {"omit_if_none": True}


@dataclass(frozen=True)
class Host:
    id: str


@dataclass(frozen=True)
class DiskBandwidth:
    read: float
    write: float


@dataclass(frozen=True)
class ComputeSystem:
    """One schedulable system in the pool: a set of hosts plus a time-slot budget."""

    id: str
    kind: SystemKind
    hosts: tuple[Host, ...]
    time_slot: float
    kvm_available: bool
    host_file_sharing: bool
    net_bandwidth_native: float
    disk_bandwidth_native: DiskBandwidth
    cpu_rate_native: float


@dataclass(frozen=True)
class ResourcePool:
    """Priority-ordered systems; the head is tried first."""

    systems: tuple[ComputeSystem, ...]


@dataclass(frozen=True)
class ContainerSource:
    """Exactly one of image_ref / buildfile should be set."""

    image_ref: str | None = field(default=None, metadata=OMIT_IF_NONE)
    buildfile: str | None = field(default=None, metadata=OMIT_IF_NONE)


@dataclass(frozen=True)
class CommPattern:
    kind: CommKind
    # fraction of one-to-one traffic, mixed only
    ratio: float | None = field(default=None, metadata=OMIT_IF_NONE)


@dataclass(frozen=True)
class IoProfile:
    read_bytes_per_slot: int
    write_bytes_per_slot: int


@dataclass(frozen=True)
class AppSpec:
    """Descriptor of the containerized application to run."""

    name: str
    container_source: ContainerSource
    entry_command: tuple[str, ...]
    process_count: int
    comm_pattern: CommPattern
    work_total: float
    io_profile: IoProfile
    checkpointable: bool


@dataclass(frozen=True)
class HardwareConfig:
    """Per-node virtual hardware plus the network/storage wiring choices."""

    vcpus: int
    ram_mb: int
    network_solution: NetworkSolution
    storage_solution: StorageSolution
    ssh_base_port: int


@dataclass(frozen=True)
class DataVolume:
    """Content-addressed blob of application data; bytes live in the volume store."""

    id: str
    byte_size: int
    content_digest: str


@dataclass(frozen=True)
class RunState:
    phase: Phase = Phase.INIT
    current_system: str | None = None
    last_host_system: str | None = None
    need_migration: bool = False
    progress: float = 0.0
    slots_consumed: int = 0


@dataclass(frozen=True)
class Violation:
    field: str
    rule: str
    message: str


# ---------------------------------------------------------------------------
# validation


def _check_system(sys_: ComputeSystem, where: str, out: list[Violation]) -> None:
    if not sys_.hosts:
        out.append(Violation(f"{where}.hosts", "non-empty", "system has no hosts"))
    if sys_.time_slot <= 0:
        out.append(Violation(f"{where}.time_slot", "> 0", f"got {sys_.time_slot}"))
    if sys_.net_bandwidth_native <= 0:
        out.append(Violation(f"{where}.net_bandwidth_native", "> 0", f"got {sys_.net_bandwidth_native}"))
    if sys_.disk_bandwidth_native.read <= 0 or sys_.disk_bandwidth_native.write <= 0:
        out.append(Violation(f"{where}.disk_bandwidth_native", "> 0", "read/write bandwidth must be positive"))
    if not (0 < sys_.cpu_rate_native <= MAX_WORK):
        out.append(Violation(f"{where}.cpu_rate_native", "in (0, 2**33]",
                             f"got {sys_.cpu_rate_native}"))
    host_ids = [h.id for h in sys_.hosts]
    if len(set(host_ids)) != len(host_ids):
        out.append(Violation(f"{where}.hosts", "unique ids", "duplicate host ids"))


def validate(pool: ResourcePool, app: AppSpec, hardware: HardwareConfig) -> list[Violation]:
    """Check every type invariant plus placement satisfiability.

    Returns a list of violations (empty means valid); never raises on bad input.
    Placement rule: one application node per host, so the app fits a system iff
    that system has at least process_count hosts.
    """
    out: list[Violation] = []

    if not pool.systems:
        out.append(Violation("pool.systems", "non-empty", "pool has no systems"))
    ids = [s.id for s in pool.systems]
    if len(set(ids)) != len(ids):
        out.append(Violation("pool.systems", "unique ids", "duplicate system ids"))
    for i, sys_ in enumerate(pool.systems):
        _check_system(sys_, f"pool.systems[{i}]", out)

    src = app.container_source
    if (src.image_ref is None) == (src.buildfile is None):
        out.append(Violation("app.container_source", "exactly one variant",
                             "set exactly one of image_ref / buildfile"))
    if app.process_count < 1:
        out.append(Violation("app.process_count", ">= 1", f"got {app.process_count}"))
    if not (0 < app.work_total <= MAX_WORK):
        out.append(Violation("app.work_total", "in (0, 2**33]", f"got {app.work_total}"))
    if app.comm_pattern.kind is CommKind.MIXED:
        if app.comm_pattern.ratio is None or not (0.0 <= app.comm_pattern.ratio <= 1.0):
            out.append(Violation("app.comm_pattern.ratio", "in [0, 1]",
                                 f"mixed pattern needs a ratio, got {app.comm_pattern.ratio}"))
    elif app.comm_pattern.ratio is not None:
        out.append(Violation("app.comm_pattern.ratio", "mixed only",
                             "ratio is only meaningful for the mixed pattern"))
    if app.io_profile.read_bytes_per_slot < 0 or app.io_profile.write_bytes_per_slot < 0:
        out.append(Violation("app.io_profile", ">= 0", "byte counts must be non-negative"))
    if not app.entry_command:
        out.append(Violation("app.entry_command", "non-empty", "missing entry command"))

    if hardware.vcpus < 1:
        out.append(Violation("uconf.vcpus", ">= 1", f"got {hardware.vcpus}"))
    if hardware.ram_mb < 1:
        out.append(Violation("uconf.ram_mb", ">= 1", f"got {hardware.ram_mb}"))
    if not (1024 <= hardware.ssh_base_port < 65535):
        out.append(Violation("uconf.ssh_base_port", "in [1024, 65535)", f"got {hardware.ssh_base_port}"))

    if pool.systems and app.process_count >= 1:
        if not any(len(s.hosts) >= app.process_count for s in pool.systems):
            out.append(Violation("pool.systems", "insufficient hosts",
                                 f"no system has {app.process_count} hosts for one process per node"))
    return out


# ---------------------------------------------------------------------------
# JSON serialization (field names match the domain types, lower_snake_case)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering used for every persisted artifact."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def to_json(obj: Any) -> Any:
    """The JSON value of a dataclass (an object keyed by field name), an enum
    (its value), a tuple or list (a list) or a plain value."""
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)
                if not (f.metadata.get("omit_if_none") and getattr(obj, f.name) is None)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    return obj


@functools.cache
def _schema(cls: type) -> tuple[dict[str, Any], frozenset[str]]:
    """Field types by name, and the names of the fields without a default."""
    hints = get_type_hints(cls)
    return ({f.name: hints[f.name] for f in fields(cls)},
            frozenset(f.name for f in fields(cls)
                      if f.default is MISSING and f.default_factory is MISSING))


def _mismatch(path: str, want: str, data: Any) -> ParseError:
    return ParseError(f"{path}: expected {want}, got {json.dumps(data, default=str)[:40]}")


def from_json(cls: Any, data: Any, path: str) -> Any:
    """Parse the JSON value `data` as type `cls`, strictly.

    bool is never a number, an int field takes only integers, a float field
    takes any finite number, enums are read by value and tuples from lists.
    An object may omit fields that have a default and may not carry unknown
    keys; a dataclass with exactly one required field also accepts that
    field's bare value.  Every error is a ParseError that starts with the
    path of the offending field, for example pool.systems[1].time_slot.
    """
    if get_origin(cls) in (Union, UnionType):
        (inner,) = [t for t in get_args(cls) if t is not type(None)]
        return None if data is None else from_json(inner, data, path)
    if get_origin(cls) is tuple:
        if type(data) is not list:
            raise _mismatch(path, "list", data)
        return tuple(from_json(get_args(cls)[0], v, f"{path}[{i}]") for i, v in enumerate(data))
    if is_dataclass(cls):
        types, required = _schema(cls)
        if type(data) is not dict:
            if len(required) != 1:
                raise _mismatch(path, "object", data)
            (name,) = required
            return cls(**{name: from_json(types[name], data, path)})
        if data.keys() - types.keys():
            raise ParseError(f"{path}: unknown fields {sorted(data.keys() - types.keys())}")
        if required - data.keys():
            raise ParseError(f"{path}: missing fields {sorted(required - data.keys())}")
        return cls(**{k: from_json(types[k], v, f"{path}.{k}") for k, v in data.items()})
    if issubclass(cls, Enum):
        try:
            return cls(data)
        except ValueError:
            raise _mismatch(path, "one of " + ", ".join(m.value for m in cls), data) from None
    if cls is float and type(data) in (int, float):
        try:
            value = float(data)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        raise _mismatch(path, "a finite number", data)
    if type(data) is cls:
        return data
    raise _mismatch(path, cls.__name__, data)


def run_state_to_dict(state: RunState) -> dict:
    """A run's state record (kept as a name of its own for tracers to wrap)."""
    return to_json(state)


def load_json_file(path: str | os.PathLike) -> Any:
    """The parsed content of a JSON file; undecodable content raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
