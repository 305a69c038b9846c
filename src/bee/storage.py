"""Shared-storage performance model, and the run store: every file a run leaves.

Two sharing designs are modeled: a dedicated data image mounted on the master
and re-exported to workers over the virtual network (flat, capped aggregate),
and hypervisor directory passthrough (near-native, 10% write penalty).

The run store is VolumeStore, CheckpointStore and StatusWriter; no other module
names a file in it, and none is ever renamed.  Records are appended to logs by
append_record; a volume's data.bin, the store's only payload file, only grows,
by extend_file.  A checkpoint is a committed length of its volume's data.bin.
"""

from __future__ import annotations

import hashlib
import json
import os
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
    """Checkpoint bytes that are missing, short, or not the bytes their commit names."""


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
# the write primitives and the log readers


def extend_file(path: Path, committed: int, content: Chain | bytes) -> None:
    """Make the file at `path` hold `content`, whose first `committed` bytes it holds.

    Only the bytes past `committed` are written, and a missing file is
    created.  Whatever the file held past that offset, such as the tail of a
    write cut off halfway, is cut off first; the first `committed` bytes are
    never written.  A file shorter than `committed` is refused with
    StorageError.  (ext4 writes a file truncated to 0 out as it is closed.)
    """
    with open(path, "ab") as fh:  # O_APPEND: opened at the end, each write lands there
        if fh.tell() < committed:
            raise StorageError(f"{path} holds fewer than its {committed} committed bytes")
        if fh.tell() != committed:
            fh.truncate(committed)
        skip = committed
        for part in Chain.of(content).parts:
            if skip < len(part):
                fh.write(memoryview(part)[skip:])
                skip = 0
            else:
                skip -= len(part)


_TAIL = 512  # bytes read from a log's end for its last few records
_BLOCK = 1 << 20  # bytes per read when a file is compared with a chain


def _parse_line(line: bytes) -> dict | None:
    """The record on one line of a log, or None if it is not a JSON object."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    return doc if type(doc) is dict else None


def _records_end(tail: bytes, whole: bool) -> int | None:
    """Offset in `tail`, a log's last bytes, just past its last line that is
    a record; 0 if `whole` (it is the whole log) and none is.  None if only
    the first line is left to judge and it may have begun before `tail`."""
    end = tail.rfind(b"\n") + 1  # bytes past the last newline are a torn line
    while end:
        start = tail.rfind(b"\n", 0, end - 1) + 1
        if not (start or whole):
            return None
        if _parse_line(tail[start:end - 1]) is not None:
            return end
        end = start
    return 0 if whole else None


def append_record(path: Path, doc) -> None:
    """Append `doc` to the log at `path` as one line of canonical JSON (which
    holds no newline), by one O_APPEND write.  The log is first cut back to
    just after its last line that is a record: the lines after it are a line
    torn by a killed writer, or garbage that a power loss left, and would
    hide every record appended after them.  That is judged from one read of
    the log's last _TAIL bytes, or of the whole log if they hold no whole
    record.  Nothing is fsynced."""
    line = (canonical_json(doc) + "\n").encode()
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        start = max(0, size - _TAIL)
        end = _records_end(os.pread(fd, size - start, start), not start)
        if end is None:
            start, end = 0, _records_end(os.pread(fd, size, 0), True)
        if start + end < size:
            os.ftruncate(fd, start + end)
        os.write(fd, line)
    finally:
        os.close(fd)


def read_log(path: Path, tail: int = 0) -> list[dict]:
    """The records of the log at `path` (none if it is missing): its lines,
    parsed, up to the first that lacks its newline or is not a JSON object,
    where a killed writer stopped or a power loss left an unwritten tail.
    With `tail`, the whole lines in its last `tail` bytes: these end as the
    whole log's do, as long as nothing but its end was cut off."""
    try:
        with open(path, "rb") as fh:
            start = max(0, fh.seek(0, os.SEEK_END) - tail) if tail else 0
            fh.seek(start)
            lines = fh.read().split(b"\n")[1 if start else 0:-1]
    except FileNotFoundError:
        return []
    records = []
    for line in lines:
        doc = _parse_line(line)
        if doc is None:
            break
        records.append(doc)
    return records


def _agrees(fh, chain: Chain, start: int, end: int) -> bool:
    """Whether bytes `start` to `end` of the file `fh` are those of `chain`,
    read in blocks into one buffer: neither is copied whole."""
    fh.seek(start)
    buf = bytearray(min(end - start, _BLOCK))
    for part in chain.parts:
        view = memoryview(part)[max(start, 0):max(end, 0)]
        start, end = start - len(part), end - len(part)
        for at in range(0, len(view), _BLOCK):
            block = view[at:at + _BLOCK]
            if fh.readinto(memoryview(buf)[:len(block)]) < len(block) \
                    or not buf.startswith(block):
                return False
    return True


def _parse(log: Path, cls, doc, name: str):
    """`doc`, a record read from `log`, as a `cls` named `name`."""
    try:
        return from_json(cls, doc, name)
    except ParseError as exc:
        raise ParseError(f"cannot read {log}: {exc}") from None


class VolumeStore:
    """Persistent volumes at <root>/volumes/<id>/{data.bin,log}; the log's
    last record, read from its last few hundred bytes, describes the volume.

    data.bin only grows: the volume is its first `byte_size` bytes, its
    committed length, and the digest their SHA-256 hex.  attach/detach only
    append records, so they can never change content.  Per volume, a store
    holds the last chain it created, read or wrote: data.bin begins with its
    bytes, which a write of a chain that extends it (see Chain.extends) need
    not read again.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._held: dict[str, Chain] = {}

    def _dir(self, volume_id: str) -> Path:
        return self.root / "volumes" / volume_id

    def _record(self, volume_id: str) -> dict | None:
        log = self._dir(volume_id) / "log"
        records = read_log(log, _TAIL) or read_log(log)
        return records[-1] if records else None

    def exists(self, volume_id: str) -> bool:
        return self._record(volume_id) is not None

    def create(self, volume_id: str, content: Chain | bytes, location: str = DETACHED,
               digest: str | None = None) -> DataVolume:
        """A new volume holding `content`; `digest` is as for write().  An id
        that already has a record is refused."""
        if self.exists(volume_id):
            raise StorageError(f"volume {volume_id} already exists")
        vol = DataVolume(id=volume_id, byte_size=len(content),
                         content_digest=digest or sha256_hex(bytes(content)),
                         location=location)
        self._dir(volume_id).mkdir(parents=True, exist_ok=True)
        # a data.bin already there is what a create killed before its record left
        extend_file(self._dir(volume_id) / "data.bin", 0, content)
        self._write_meta(vol)
        self._held[volume_id] = Chain.of(content)
        return vol

    def _write_meta(self, vol: DataVolume) -> None:
        append_record(self._dir(vol.id) / "log", to_json(vol))

    def volume(self, volume_id: str) -> DataVolume:
        doc = self._record(volume_id)
        if doc is None:
            raise StorageError(f"no such volume: {volume_id}")
        return _parse(self._dir(volume_id) / "log", DataVolume, doc, "volume")

    def _open_data(self, vol: DataVolume):
        """The volume's data.bin, open for reading; it holds the committed bytes."""
        try:
            fh = open(self._dir(vol.id) / "data.bin", "rb")
        except FileNotFoundError:
            raise StorageError(f"no such volume: {vol.id}") from None
        if os.fstat(fh.fileno()).st_size < vol.byte_size:
            fh.close()
            raise StorageError(f"volume {vol.id}: data.bin holds fewer than its "
                               f"{vol.byte_size} committed bytes")
        return fh

    def content(self, volume_id: str) -> bytes:
        vol = self.volume(volume_id)
        with self._open_data(vol) as fh:
            data = fh.read(vol.byte_size)
        self._held[volume_id] = Chain(data)
        return data

    def write(self, volume_id: str, content: Chain | bytes,
              digest: str | None = None) -> DataVolume:
        """Extend the volume to `content`: append the bytes past its committed
        length, then a record, and return the volume as recorded.  Content
        must agree with the committed bytes where the two overlap, or it is
        refused; content no longer than them writes nothing.

        `digest`, when given, must be the SHA-256 hex of exactly `content`,
        computed or verified by the caller; it saves hashing the bytes again.
        """
        vol, chain = self.volume(volume_id), Chain.of(content)
        held = self._held.get(volume_id, Chain())
        proven = len(held) if chain.extends(held) else 0
        overlap = min(len(chain), vol.byte_size)
        if proven < overlap:
            with self._open_data(vol) as fh:
                agrees = _agrees(fh, chain, proven, overlap)
            if not agrees:
                raise StorageError(f"volume {volume_id}: the content written does not "
                                   f"agree with its {vol.byte_size} committed bytes")
        if len(chain) > vol.byte_size:
            extend_file(self._dir(volume_id) / "data.bin", vol.byte_size, chain)
            vol = replace(vol, byte_size=len(chain),
                          content_digest=digest or sha256_hex(bytes(chain)))
            self._write_meta(vol)
        self._held[volume_id] = chain
        return vol

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

        One record in place of a detach and an attach, and none when the
        volume is already there.
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
# runs: one log per run at <store>/<run_id>/log


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
class _Commit(Checkpoint):
    """A commit record: a checkpoint and where its bytes are, namely the first
    `length` bytes of the data.bin of volume `volume` in the same store.

    The layout stays off Checkpoint, which is the same record wherever its
    bytes are kept.
    """

    volume: str
    length: int

    def __post_init__(self) -> None:
        for name in ("run_id", "volume"):
            problem = run_id_problem(getattr(self, name))
            if problem:
                raise ParseError(f"commit.{name}: {problem}")
        if self.seq < 1:
            raise ParseError(f"commit.seq: expected at least 1, got {self.seq}")
        if self.length < 0:
            raise ParseError(f"commit.length: expected at least 0, got {self.length}")

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(**{f.name: getattr(self, f.name) for f in fields(Checkpoint)})


class CheckpointStore:
    """Checkpoints as commit records in the run's log over its volume's data.bin.

    Checkpoint `seq` of a run is named <root>/<run_id>/<seq>; its record is
    a `commit` in the log <root>/<run_id>/log, and its bytes are the first
    `length` bytes of volume `volume`'s data.bin, which a save extends through
    `volumes`, its VolumeStore (see VolumeStore.write).  No committed byte
    ever changes, so a store copied whole loads wherever it is copied to.

    A commit is appended after the bytes it names.  The log is folded in
    order, and a later record supersedes earlier commits: a `commit` the one
    of its seq, and `drop k` every one with a seq >= k.  A save of seq k
    appends `drop k` before its commit, unless this instance's previous save
    was of the same run and a lower seq: once per run.  So a run that reuses
    its id, or resumes from an earlier checkpoint, hides the later commits.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.volumes = VolumeStore(root)
        # (run id, seq) of this instance's last save; a later seq needs no drop
        self._saved: tuple[str, int] | None = None

    def save(self, ckpt: Checkpoint, content: Chain | bytes, volume_id: str) -> Path:
        """Commit `content`, the bytes of volume `volume_id`, as checkpoint
        `ckpt`; returns the checkpoint's path."""
        self.volumes.write(volume_id, content, ckpt.digest)
        run_dir = self.root / ckpt.run_id
        last_run, seq = self._saved or (None, 0)
        if last_run != ckpt.run_id or ckpt.seq <= seq:
            run_dir.mkdir(parents=True, exist_ok=True)
            append_record(run_dir / "log", {"drop": ckpt.seq})
        self._saved = (ckpt.run_id, ckpt.seq)
        append_record(run_dir / "log",
                      {"commit": to_json(ckpt) | {"volume": volume_id, "length": len(content)}})
        return run_dir / str(ckpt.seq)

    @staticmethod
    def _commits(run_dir: Path) -> dict[int, dict]:
        """The live commit records of the run in `run_dir` by seq (see the
        class), checked no further than their seq: a caller parses the one
        it uses."""
        log, commits = run_dir / "log", {}
        for doc in read_log(log):
            if "drop" in doc:
                k = _parse(log, int, doc["drop"], "drop")
                commits = {seq: c for seq, c in commits.items() if seq < k}
            elif "commit" in doc:
                c = doc["commit"]
                seq = c.get("seq") if type(c) is dict else None
                if type(seq) is not int:  # no commit: parsing it says why
                    _parse(log, _Commit, c, "commit")
                commits[seq] = c
        return commits

    def load(self, path: str | Path) -> tuple[Checkpoint, bytes]:
        """The checkpoint named `path`, <store>/<run_id>/<seq>, and its bytes.

        The run's log and its volume are read from that store, wherever it
        is; `path` itself need not exist.  A missing or short data.bin
        raises MigrationError.
        """
        path = Path(path)
        seq = path.name  # str.isdigit() also takes digits int() refuses, such as '²'
        doc = self._commits(path.parent).get(int(seq)) \
            if seq.isascii() and seq.isdigit() else None
        if doc is None:
            raise FileNotFoundError(f"no checkpoint is committed at {path}")
        m = _parse(path.parent / "log", _Commit, doc, "commit")
        try:
            with open(VolumeStore(path.parent.parent)._dir(m.volume) / "data.bin", "rb") as fh:
                content = fh.read(m.length)
        except FileNotFoundError:
            content = b""
        if len(content) < m.length:
            raise MigrationError(f"checkpoint corrupt: volume {m.volume} does not "
                                 f"hold the checkpoint's {m.length} bytes")
        return m.checkpoint(), content

    def verify(self, path: str | Path) -> bool:
        ckpt, content = self.load(path)
        return sha256_hex(content) == ckpt.digest

    def latest(self, run_id: str) -> Path | None:
        """The newest live checkpoint of the run, or None.

        A save appends its commit last, so one cut off mid-save has none and
        is not seen.
        """
        seqs = self._commits(self.root / run_id)
        return self.root / run_id / str(max(seqs)) if seqs else None


class StatusWriter:
    """The state and result records of one run, appended to the run's log.
    A result counts until a state follows it, such as a later run's first,
    so status never shows one run's state beside another's result."""

    def __init__(self, store_root: str | Path, run_id: str):
        self.log = Path(store_root) / run_id / "log"
        self.log.parent.mkdir(parents=True, exist_ok=True)

    def state(self, state: RunState) -> None:
        append_record(self.log, {"state": run_state_to_dict(state)})

    def result(self, result) -> None:
        append_record(self.log, {"result": to_json(result)})


def read_status(store_root: str | Path, run_id: str, result_cls: type):
    """(state, result) of the run: its last state, and the last result after
    that, or None; read from the log's end unless no state is there.
    `result_cls` parses StatusWriter.result's document."""
    log = Path(store_root) / run_id / "log"
    records = read_log(log, _TAIL)
    if not any("state" in doc for doc in records):
        records = read_log(log)
    state = result = None
    for doc in records:
        if "state" in doc:
            state, result = doc["state"], None
        elif "result" in doc:
            result = doc["result"]
    if state is None:
        return None, None
    return (_parse(log, RunState, state, "state"),
            None if result is None else _parse(log, result_cls, result, "result"))
