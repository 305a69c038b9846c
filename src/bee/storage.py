"""Shared-storage performance model, and the run store: every file a run leaves.

Two sharing designs are modeled: a dedicated data image mounted on the master
and re-exported to workers over the virtual network (flat, capped aggregate),
and hypervisor directory passthrough (near-native, 10% write penalty).

The run store is VolumeStore, CheckpointStore and StatusWriter; no other module
names a file in it.  Every whole file is written by replace_file, which a
killed process cannot tear; a segment's appends go through extend_file and
are committed by the manifest written after them; read_record reads records.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
from dataclasses import dataclass, fields, replace
from pathlib import Path

from bee.model import (
    MB,
    DETACHED,
    DataVolume,
    ParseError,
    RunState,
    StorageSolution,
    canonical_json,
    from_json,
    load_json_file,
    run_state_to_dict,
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


class MigrationError(StorageError):
    """Checkpoint bytes that are missing, short, or not the bytes their manifest names."""


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
# the two write primitives and the one reader


def replace_file(path: Path, content: Chain | bytes) -> None:
    """Make the file at `path` hold `content`: write <name>.tmp, then swap it in.

    A process killed at any point leaves `path` whole, as it was or as it is
    now; at most a .tmp is left, which the next write of `path` overwrites.
    Nothing is fsynced, so a power loss can still lose or tear the write.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.writelines(Chain.of(content).parts)
    _swap_in(tmp, path)


_AT_FDCWD, _RENAME_EXCHANGE = -100, 2
try:  # renameat2(2), in glibc since 2.28
    _renameat2 = ctypes.CDLL(None).renameat2
    _renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p,
                           ctypes.c_uint)
    _renameat2.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _renameat2 = None


def _swap_in(tmp: Path, path: Path) -> None:
    """Give `tmp` the name `path` in one step, which no reader or kill can split:
    swap the two names (RENAME_EXCHANGE) and remove the old file, or, when
    that fails for any reason, os.replace.  ext4 starts writing out a file
    renamed over another (auto_da_alloc), which nearly doubled sim-migrate's
    run time; a swap is no such rename, and so gives up that write-out."""
    if _renameat2 is not None and _renameat2(_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD,
                                             os.fsencode(path), _RENAME_EXCHANGE) == 0:
        os.unlink(tmp)
    else:
        os.replace(tmp, path)


def write_record(path: Path, doc) -> None:
    """Write the JSON record `doc` to `path` (canonical JSON is ASCII)."""
    replace_file(path, canonical_json(doc).encode())


def read_record(cls, path: Path, name: str):
    """The JSON record at `path` as a `cls` named `name`.  A missing file
    raises FileNotFoundError, one that does not parse a ParseError naming it."""
    try:
        return from_json(cls, load_json_file(path), name)
    except ParseError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


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
        replace_file(self._dir(volume_id) / "data.bin", content)
        self._write_meta(vol)
        return vol

    def _write_meta(self, vol: DataVolume) -> None:
        write_record(self._dir(vol.id) / "meta.json", to_json(vol))

    def volume(self, volume_id: str) -> DataVolume:
        try:
            return read_record(DataVolume, self._dir(volume_id) / "meta.json", "volume")
        except FileNotFoundError:
            raise StorageError(f"no such volume: {volume_id}") from None

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
        replace_file(self._dir(volume_id) / "data.bin", content)
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


# ---------------------------------------------------------------------------
# runs: checkpoints in <store>/<run_id>/<seq>/, status in <store>/<run_id>/


def run_id_problem(run_id: str) -> str | None:
    """Why run_id cannot name a run's directory in the store, or None if it can.

    A run id is one path component, so no run writes outside its store.
    """
    if run_id in ("", ".", "..") or any(c in run_id for c in "/\\\0"):
        return f"not a single path component: {run_id!r}"
    return None


@dataclass(frozen=True)
class Checkpoint:
    run_id: str
    seq: int
    progress: float
    digest: str
    origin_system: str | None
    created_at: float


@dataclass(frozen=True)
class _Manifest(Checkpoint):
    """manifest.json: a checkpoint and where its bytes are, namely the first
    `length` bytes of the segment file in the directory of seq `segment`.

    The layout stays off Checkpoint, which is the same record wherever its
    bytes are kept.
    """

    segment: int
    length: int

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(**{f.name: getattr(self, f.name) for f in fields(Checkpoint)})


class CheckpointStore:
    """Checkpoints as manifests over append-only segment files.

    Checkpoint `seq` of a run is <root>/<run_id>/<seq>/manifest.json.  Its
    bytes are the first `length` bytes of the segment file
    <root>/<run_id>/<segment>/volume.bin.  A save whose content is a Chain
    that extends the chain this instance last committed (or adopted) appends
    only the new parts to that segment; any other save starts a segment of
    its own (segment == seq), written in full.  So a directory holding only
    {manifest.json, volume.bin} is a complete checkpoint.

    The manifest is written last and is the commit record.  Bytes past the
    committed length are the tail of a save cut off before its manifest, and
    the next append cuts them off.  No save changes a byte that a committed
    manifest covers: before writing anything, save k removes the run's
    manifests with a seq >= k, which an earlier run of the same id left and
    which may name a segment that this save rewrites or extends.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        # (run id, segment, content) of this instance's last committed save or
        # adopted checkpoint; the chain is held by reference, not copied
        self._last: tuple[str, int, Chain] | None = None

    def _dir(self, run_id: str, seq: int) -> Path:
        return self.root / run_id / str(seq)

    def save(self, ckpt: Checkpoint, content: Chain | bytes) -> Path:
        """Commit `content` as checkpoint `ckpt`; returns the manifest's directory."""
        chain = Chain.of(content)
        self._drop_from(ckpt.run_id, ckpt.seq)
        d = self._dir(ckpt.run_id, ckpt.seq)
        d.mkdir(parents=True, exist_ok=True)
        last_run, segment, committed = self._last or (None, 0, Chain())
        if last_run == ckpt.run_id and segment < ckpt.seq and chain.extends(committed):
            extend_file(self._dir(ckpt.run_id, segment) / "volume.bin", len(committed), chain)
        else:
            segment = ckpt.seq
            replace_file(d / "volume.bin", chain)
        write_record(d / "manifest.json",
                     to_json(ckpt) | {"segment": segment, "length": len(chain)})
        self._last = (ckpt.run_id, segment, chain)
        return d

    def adopt(self, run_id: str, ckpt: Checkpoint, content: Chain) -> None:
        """Let run `run_id`'s next save append to the segment of checkpoint `ckpt`.

        `ckpt.digest` must be the SHA-256 of exactly `content`, checked by the
        caller.  The segment is adopted only when this store's manifest for
        (run_id, ckpt.seq) names that digest and len(content), and its segment
        file holds at least that many bytes.  No save changes a committed
        byte, so the segment then holds `content` as its first bytes.  In any
        other case, such as a checkpoint copied from elsewhere, the next save
        starts a segment of its own.
        """
        try:
            m = self._manifest(self._dir(run_id, ckpt.seq))
            size = (self._dir(run_id, m.segment) / "volume.bin").stat().st_size
        except (OSError, ParseError):
            return
        if (m.run_id, m.seq, m.digest, m.length) == \
                (run_id, ckpt.seq, ckpt.digest, len(content)) and size >= m.length:
            self._last = (run_id, m.segment, content)

    def _seqs(self, run_id: str) -> list[int]:
        """The seqs of the run's checkpoint directories, newest first (scandir
        knows each entry's type, so this lists the directory and stats nothing)."""
        try:
            with os.scandir(self.root / run_id) as entries:
                return sorted((int(e.name) for e in entries if e.name.isdigit() and e.is_dir()),
                              reverse=True)
        except FileNotFoundError:
            return []

    def _drop_from(self, run_id: str, seq: int) -> None:
        """Remove the run's checkpoints with a seq >= `seq`, each manifest first."""
        for d in (self._dir(run_id, s) for s in self._seqs(run_id) if s >= seq):
            (d / "manifest.json").unlink(missing_ok=True)
            shutil.rmtree(d)

    def _manifest(self, d: Path) -> _Manifest:
        m = read_record(_Manifest, d / "manifest.json", "manifest")
        problem = run_id_problem(m.run_id)
        if problem:
            raise ParseError(f"manifest.run_id: {problem}")
        if m.seq < 1:
            raise ParseError(f"manifest.seq: expected at least 1, got {m.seq}")
        if not 1 <= m.segment <= m.seq:
            raise ParseError(f"manifest.segment: expected 1 to seq ({m.seq}), got {m.segment}")
        if m.length < 0:
            raise ParseError(f"manifest.length: expected at least 0, got {m.length}")
        return m

    def load(self, path: str | Path) -> tuple[Checkpoint, bytes]:
        """The checkpoint whose manifest is in directory `path`, and its bytes.

        A checkpoint that starts its segment reads the volume.bin beside its
        manifest, so such a directory loads wherever it is copied to.  A
        missing or short segment raises MigrationError.
        """
        d = Path(path)
        m = self._manifest(d)
        segment = d if m.segment == m.seq else d.parent / str(m.segment)
        try:
            with open(segment / "volume.bin", "rb") as fh:
                short = os.fstat(fh.fileno()).st_size < m.length
                content = b"" if short else fh.read(m.length)
        except FileNotFoundError:
            short = True
        if short:
            raise MigrationError(f"checkpoint corrupt: segment {m.segment} does not "
                                 f"hold the checkpoint's {m.length} bytes")
        return m.checkpoint(), content

    def verify(self, path: str | Path) -> bool:
        ckpt, content = self.load(path)
        return sha256_hex(content) == ckpt.digest

    def latest(self, run_id: str) -> Path | None:
        """The newest committed checkpoint of the run.

        save() writes the manifest last, so a sequence whose manifest is
        missing or does not parse was cut off mid-save and is skipped.
        """
        for seq in self._seqs(run_id):
            d = self._dir(run_id, seq)
            try:
                self._manifest(d)
            except (OSError, ParseError):
                continue
            return d
        return None


class StatusWriter:
    """state.json and result.json of one run.  A new writer removes the
    result.json of an earlier run of the same id, so status never shows one
    run's state beside another's result."""

    def __init__(self, store_root: str | Path, run_id: str):
        self.run_id = run_id
        self.dir = Path(store_root) / run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "result.json").unlink(missing_ok=True)

    def state(self, state: RunState) -> None:
        write_record(self.dir / "state.json", run_state_to_dict(state))

    def result(self, result) -> None:
        write_record(self.dir / "result.json", {"run_id": self.run_id} | to_json(result))


def read_status(store_root: str | Path, run_id: str, result_cls: type):
    """(state, result) of the run, each None until the run has written it.
    `result_cls` parses StatusWriter.result's document: the result under its
    run's `run_id`."""
    run_dir = Path(store_root) / run_id
    try:  # a run writes state.json first and never removes it
        state = read_record(RunState, run_dir / "state.json", "state")
    except FileNotFoundError:
        return None, None
    try:
        return state, read_record(result_cls, run_dir / "result.json", "result")
    except FileNotFoundError:
        return state, None
