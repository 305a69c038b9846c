"""Shared-storage performance model and the content-addressed volume store.

Two sharing designs are modeled: a dedicated data image mounted on the master
and re-exported to workers over the virtual network (flat, capped aggregate),
and hypervisor directory passthrough (near-native, 10% write penalty).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from pathlib import Path

from bee.model import (
    MB,
    DETACHED,
    DataVolume,
    StorageSolution,
    canonical_json,
    from_json,
    load_json_file,
    to_json,
)

DEFAULT_NFS_CAP = 125.0  # MB/s, middle of the measured flat band


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Chain:
    """Volume bytes as an immutable chain of `bytes` parts: a base and the
    tails appended to it (a rope, after Boehm, Atkinson and Plass).

    `chain + tail` makes a new chain that shares every part of this one and
    copies no bytes.  Parts are `bytes` and are held in a tuple, so neither a
    part nor a chain can change once made.  So a chain whose leading parts
    are the very objects of another chain holds that chain's bytes followed
    by more; `extends` proves it by identity, in O(parts) and without reading
    a byte.  `bytes(chain)` joins the parts: use it only where a whole copy
    is needed.
    """

    __slots__ = ("parts", "_len")

    def __init__(self, *parts: bytes) -> None:
        for part in parts:
            if not isinstance(part, bytes):
                raise TypeError(f"a chain holds bytes, not {type(part).__name__}")
        self.parts = parts
        self._len = sum(map(len, parts))

    @classmethod
    def of(cls, content: Chain | bytes) -> Chain:
        """`content` itself if it is a chain, else a chain of that one part."""
        return content if isinstance(content, Chain) else cls(content)

    def __len__(self) -> int:
        return self._len

    def __add__(self, tail: bytes) -> Chain:
        if not isinstance(tail, bytes):
            return NotImplemented
        return Chain(*self.parts, tail) if tail else self

    def __bytes__(self) -> bytes:
        return self.parts[0] if len(self.parts) == 1 else b"".join(self.parts)

    def extends(self, other: Chain) -> bool:
        """Whether this chain's leading parts are the very parts of `other`."""
        n = len(other.parts)
        return n <= len(self.parts) and all(a is b for a, b in zip(self.parts, other.parts))


class RunningDigest:
    """SHA-256 of volume contents that mostly extend the one hashed before.

    It holds the chain it last hashed and the hash state after its bytes.  A
    chain that extends the held one (see Chain.extends) is hashed by
    extending a copy of that state with the new parts alone; anything else is
    hashed in full.  SHA-256 consumes its input as a stream, so both paths
    give the digest of the whole content.  Plain `bytes` are taken as a chain
    of that one part; other types are refused.
    """

    def __init__(self) -> None:
        self._held = Chain()
        self._state = hashlib.sha256()

    def hexdigest(self, content: Chain | bytes) -> str:
        chain = Chain.of(content)
        if chain.extends(self._held):
            state, new = self._state.copy(), chain.parts[len(self._held.parts):]
        else:
            state, new = hashlib.sha256(), chain.parts
        for part in new:
            state.update(part)
        self._held, self._state = chain, state
        return state.hexdigest()


@dataclass(frozen=True)
class StoragePlan:
    solution: StorageSolution
    master_node: int
    mount_path: str
    native_read: float
    native_write: float
    nfs_cap: float = DEFAULT_NFS_CAP


class StorageError(RuntimeError):
    pass


def effective_bandwidth(plan: StoragePlan, node: int, op: str,
                        active_workers: int = 1) -> float:
    """Effective MB/s for one node doing `op` ("read"/"write").

    Workers behind the re-exported data image split the export cap equally;
    the master and both passthrough directions see native disk speed, except
    passthrough writes which run at 90% of native.
    """
    if op not in ("read", "write"):
        raise ValueError(f"op must be read or write, got {op!r}")
    if node < 0:
        raise StorageError(f"unknown node {node}")
    native = plan.native_read if op == "read" else plan.native_write
    if plan.solution is StorageSolution.VIRTIO_PASSTHROUGH:
        return native if op == "read" else 0.9 * native
    if node == plan.master_node:
        return native
    share = plan.nfs_cap / max(1, active_workers)
    return min(native, share)


def model_io(plan: StoragePlan, node: int, op: str, nbytes: float,
             active_workers: int = 1) -> float:
    """Seconds for `nbytes` of I/O on `node` given concurrently active workers."""
    if nbytes < 0:
        raise ValueError("byte count must be non-negative")
    if nbytes == 0:
        return 0.0
    return nbytes / (effective_bandwidth(plan, node, op, active_workers) * MB)


def iobench_table(solution: StorageSolution, max_nodes: int = 32,
                  native_read: float = 500.0, native_write: float = 500.0,
                  nfs_cap: float = DEFAULT_NFS_CAP,
                  bytes_per_process: int = 1 << 30) -> list[dict]:
    """Modeled throughput per node count for the write-then-cross-read workload.

    Worker aggregate excludes the master, which mounts the data image directly.
    """
    rows = []
    for n in range(1, max_nodes + 1):
        plan = StoragePlan(solution=solution, master_node=0, mount_path="/mnt/shared",
                           native_read=native_read, native_write=native_write,
                           nfs_cap=nfs_cap)
        workers = n - 1
        row: dict = {"n_nodes": n, "solution": solution.value}
        for op in ("read", "write"):
            master_bw = effective_bandwidth(plan, 0, op, active_workers=workers)
            if workers > 0:
                each = effective_bandwidth(plan, 1, op, active_workers=workers)
            else:
                each = 0.0
            row[f"{op}_master_mbps"] = master_bw
            row[f"{op}_worker_each_mbps"] = each
            row[f"{op}_worker_aggregate_mbps"] = each * workers
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# volume store


def write_new_file(path: Path, content: Chain | bytes) -> None:
    """Write `content` to `path` as a new file; an existing one is unlinked first.

    Truncating a file in place makes ext4 (auto_da_alloc) flush its dirty
    pages first, which costs several times the write itself.  A crash
    between unlink and write leaves the file missing, never silently short of
    bytes it used to hold.
    """
    path.unlink(missing_ok=True)
    with open(path, "wb") as fh:
        fh.writelines(Chain.of(content).parts)


def extend_file(path: Path, committed: int, content: Chain | bytes) -> None:
    """Make the file at `path` hold `content`, whose first `committed` bytes it holds.

    Only the bytes past `committed` are written.  Whatever the file held past
    that offset, such as the tail of a write cut off halfway, is cut off
    first; the first `committed` bytes are never written.
    """
    with open(path, "r+b") as fh:
        fh.truncate(committed)
        fh.seek(committed)
        skip = committed
        for part in Chain.of(content).parts:
            if skip < len(part):
                fh.write(memoryview(part)[skip:])
                skip = 0
            else:
                skip -= len(part)


class VolumeStore:
    """Persistent volumes at <root>/volumes/<id>/{meta.json,data.bin}.

    The digest is always the SHA-256 hex of data.bin; attach/detach only touch
    metadata, so they can never change content.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _dir(self, volume_id: str) -> Path:
        return self.root / "volumes" / volume_id

    def exists(self, volume_id: str) -> bool:
        return (self._dir(volume_id) / "meta.json").exists()

    def create(self, volume_id: str, content: Chain | bytes, location: str = DETACHED,
               digest: str | None = None) -> DataVolume:
        """A new volume holding `content`; `digest` is as for write()."""
        vol = DataVolume(id=volume_id, byte_size=len(content),
                         content_digest=digest or sha256_hex(bytes(content)),
                         location=location)
        self._dir(volume_id).mkdir(parents=True, exist_ok=True)
        write_new_file(self._dir(volume_id) / "data.bin", content)
        self._write_meta(vol)
        return vol

    def _write_meta(self, vol: DataVolume) -> None:
        (self._dir(vol.id) / "meta.json").write_text(
            canonical_json(to_json(vol)), encoding="utf-8")

    def volume(self, volume_id: str) -> DataVolume:
        meta = self._dir(volume_id) / "meta.json"
        if not meta.exists():
            raise StorageError(f"no such volume: {volume_id}")
        return from_json(DataVolume, load_json_file(meta), "volume")

    def content(self, volume_id: str) -> bytes:
        path = self._dir(volume_id) / "data.bin"
        if not path.exists():
            raise StorageError(f"no such volume: {volume_id}")
        return path.read_bytes()

    def write(self, volume_id: str, content: Chain | bytes,
              digest: str | None = None) -> DataVolume:
        """Replace the volume's bytes.

        `digest`, when given, must be the SHA-256 hex of exactly `content`,
        computed or verified by the caller; it saves hashing the bytes again.
        meta.json is rewritten only when the record changes.
        """
        vol = self.volume(volume_id)
        write_new_file(self._dir(volume_id) / "data.bin", content)
        new = replace(vol, byte_size=len(content),
                      content_digest=digest or sha256_hex(bytes(content)))
        if new != vol:
            self._write_meta(new)
        return new

    def attach(self, volume_id: str, system_id: str) -> DataVolume:
        vol = self.volume(volume_id)
        if vol.location != DETACHED:
            raise StorageError(
                f"volume {volume_id} already attached on {vol.location}; "
                "the data image allows a single writer")
        vol = replace(vol, location=system_id)
        self._write_meta(vol)
        return vol

    def move(self, volume_id: str, system_id: str) -> DataVolume:
        """Attach the volume on `system_id`, wherever it was attached before.

        One meta.json write in place of a detach and an attach, and none when
        the volume is already there.
        """
        vol = self.volume(volume_id)
        moved = replace(vol, location=system_id)
        if moved != vol:
            self._write_meta(moved)
        return moved

    def detach(self, volume_id: str) -> DataVolume:
        vol = self.volume(volume_id)
        if vol.location == DETACHED:
            raise StorageError(f"volume {volume_id} is not attached")
        vol = replace(vol, location=DETACHED)
        self._write_meta(vol)
        return vol

    def snapshot(self, volume_id: str) -> tuple[bytes, str]:
        """Point-in-time copy of an attached volume; later writes leave it alone."""
        vol = self.volume(volume_id)
        if vol.location == DETACHED:
            raise StorageError(f"cannot snapshot detached volume {volume_id}")
        content = self.content(volume_id)
        return content, sha256_hex(content)
