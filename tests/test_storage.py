import hashlib
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bee.storage
from bee.model import MB, StorageSolution, canonical_json, to_json
from bee.storage import (
    Chain,
    RunningDigest,
    StoragePlan,
    StorageError,
    VolumeStore,
    append_record,
    effective_bandwidth,
    extend_file,
    iobench_table,
    model_io,
    read_log,
    sha256_hex,
)
from conftest import count_compares, counting_hashlib

NFS = StorageSolution.DATA_IMAGE_NFS
VIRTIO = StorageSolution.VIRTIO_PASSTHROUGH


def plan(solution, native_read=500.0, native_write=500.0, nfs_cap=125.0):
    return StoragePlan(solution=solution, master_node=0, mount_path="/mnt/shared",
                       native_read=native_read, native_write=native_write,
                       nfs_cap=nfs_cap)


class TestModelIo:
    def test_virtio_write_runs_at_ninety_percent_of_native(self):
        # 1 GiB at 0.9 * 500 MB/s => 1024 / 450 seconds
        duration = model_io(plan(VIRTIO), node=1, op="write", nbytes=1 << 30)
        assert duration == pytest.approx(1024 / 450, rel=1e-12)

    def test_virtio_read_is_native(self):
        duration = model_io(plan(VIRTIO), node=1, op="read", nbytes=1 << 30)
        assert duration == pytest.approx(1024 / 500, rel=1e-12)

    def test_nfs_worker_capped_at_export_rate(self):
        # one active worker behind a 125 MB/s cap: 1 GiB takes 1024/125 s
        duration = model_io(plan(NFS), node=1, op="read", nbytes=1 << 30,
                            active_workers=1)
        assert duration == pytest.approx(8.192, rel=1e-12)

    def test_nfs_master_native(self):
        duration = model_io(plan(NFS), node=0, op="write", nbytes=500 * MB,
                            active_workers=8)
        assert duration == pytest.approx(1.0, rel=1e-12)

    def test_zero_bytes_instant(self):
        assert model_io(plan(NFS), 1, "read", 0) == 0.0

    def test_unknown_node_rejected(self):
        with pytest.raises(StorageError):
            model_io(plan(NFS), -1, "read", 100)

    def test_nfs_flat_aggregate_across_node_counts(self):
        # worker aggregate never exceeds the cap no matter the fan-out
        p = plan(NFS)
        for workers in range(1, 33):
            each = effective_bandwidth(p, 1, "read", active_workers=workers)
            assert each * workers <= p.nfs_cap + 1e-9

    def test_virtio_dominates_nfs_worker(self):
        for op in ("read", "write"):
            for workers in range(1, 33):
                v = effective_bandwidth(plan(VIRTIO), 1, op, workers)
                n = effective_bandwidth(plan(NFS), 1, op, workers)
                assert v >= n


class TestIobench:
    def test_nfs_worker_aggregate_in_measured_band(self):
        rows = iobench_table(NFS, max_nodes=32)
        for row in rows:
            if row["n_nodes"] >= 2:
                assert 120.0 <= row["read_worker_aggregate_mbps"] <= 130.0
                assert 120.0 <= row["write_worker_aggregate_mbps"] <= 130.0

    def test_virtio_rows_track_native(self):
        rows = iobench_table(VIRTIO, max_nodes=8, native_read=400.0, native_write=400.0)
        for row in rows:
            assert row["read_master_mbps"] == pytest.approx(400.0)
            assert row["write_master_mbps"] == pytest.approx(0.9 * 400.0)


class TestVolumeStore:
    def test_create_and_digest(self, tmp_path):
        store = VolumeStore(tmp_path)
        vol = store.create("v1", b"hello world")
        assert vol.byte_size == 11
        assert vol.content_digest == sha256_hex(b"hello world")
        assert store.volume("v1") == vol

    def test_round_trip_reads_identical(self, tmp_path):
        store = VolumeStore(tmp_path)
        store.create("v1", b"same bytes")
        store.write("v1", b"same bytes, grown")
        assert store.content("v1") == VolumeStore(tmp_path).content("v1") == \
            b"same bytes, grown"

    def test_write_changes_digest(self, tmp_path):
        store = VolumeStore(tmp_path)
        before = store.create("v1", b"one")
        after = store.write("v1", b"one, two")
        assert before.content_digest != after.content_digest
        assert (after.byte_size, after.content_digest) == (8, sha256_hex(b"one, two"))

    @pytest.mark.parametrize("content", [b"two", b"oN", b"onE, two", Chain(b"o", b"x")])
    def test_write_that_does_not_extend_is_refused_and_changes_nothing(self, tmp_path,
                                                                     content):
        store = VolumeStore(tmp_path)
        vol = store.create("v1", b"one")
        data, log = (tmp_path / "volumes" / "v1" / name for name in ("data.bin", "log"))
        before = data.read_bytes(), log.read_bytes()
        with pytest.raises(StorageError, match="does not agree with its 3 committed bytes"):
            store.write("v1", content)
        assert (data.read_bytes(), log.read_bytes()) == before
        assert store.volume("v1") == vol

    @pytest.mark.parametrize("content", [b"", b"o", b"on", Chain(b"o", b"n")])
    def test_write_of_a_prefix_of_the_committed_bytes_writes_nothing(self, tmp_path,
                                                                     content):
        # what a resume from an earlier checkpoint saves again
        store = VolumeStore(tmp_path)
        vol = store.create("v1", b"one")
        data, log = (tmp_path / "volumes" / "v1" / name for name in ("data.bin", "log"))
        before = data.read_bytes(), log.read_bytes()
        assert VolumeStore(tmp_path).write("v1", content) == vol
        assert (data.read_bytes(), log.read_bytes()) == before

    def test_write_reads_only_the_committed_bytes_its_chain_does_not_prove(
            self, tmp_path, monkeypatch):
        compared = count_compares(monkeypatch)
        base = bytes(bytearray(b"input"))
        store = VolumeStore(tmp_path)
        store.create("v1", base)
        # chains built on what the store created, then wrote, need no read
        first = Chain(base) + b"+one"
        store.write("v1", first)
        store.write("v1", first + b"+two")
        assert compared == []
        # equal bytes in other objects are compared, once: the chain written
        # is the one held next
        again = Chain(b"input+one+two")
        store.write("v1", again + b"+three")
        assert compared == [(0, 13)]
        # a fresh store compares what it did not write or read
        other = VolumeStore(tmp_path)
        content = other.content("v1")
        other.write("v1", Chain(content) + b"+four")
        short = Chain(b"input+one")
        other.write("v1", short)  # a prefix: compared, and held
        assert compared == [(0, 13), (0, 9)]
        # past the held chain's end, the committed bytes are still compared
        other.write("v1", short + b"+two+three+four+five")
        assert compared == [(0, 13), (0, 9), (9, 24)]
        assert other.content("v1") == b"input+one+two+three+four+five"

    def test_extend_file_refuses_a_file_shorter_than_its_committed_bytes(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"cut")
        with pytest.raises(StorageError, match="fewer than its 9 committed bytes"):
            extend_file(path, 9, b"committed, then appended")
        assert path.read_bytes() == b"cut"

    def test_store_layout(self, tmp_path):
        store = VolumeStore(tmp_path)
        vol = store.create("vol-9", b"bytes")
        assert read_log(tmp_path / "volumes" / "vol-9" / "log") == [to_json(vol)]
        assert (tmp_path / "volumes" / "vol-9" / "data.bin").read_bytes() == b"bytes"
        assert sorted(p.name for p in (tmp_path / "volumes" / "vol-9").iterdir()) == \
            ["data.bin", "log"]

    def test_volume_reads_only_the_end_of_its_log(self, tmp_path, monkeypatch):
        store = VolumeStore(tmp_path)
        content = Chain(b"payload")
        store.create("v1", content)
        for i in range(200):
            content += b"%d" % (i % 10)
            store.write("v1", content)
        vol = store.volume("v1")
        assert (vol.byte_size, vol.content_digest) == (207, sha256_hex(bytes(content)))
        log = tmp_path / "volumes" / "v1" / "log"
        assert log.stat().st_size > 16 * bee.storage._TAIL
        real = bee.storage.read_log

        def tail_only(path, tail=0):
            assert tail, "the whole log was read"
            return real(path, tail)

        monkeypatch.setattr(bee.storage, "read_log", tail_only)
        assert store.volume("v1") == vol
        with open(log, "ab") as fh:
            fh.write(b'{"byte_size":7,"con')  # a torn last line
        assert store.volume("v1") == vol
        assert store.exists("v1")

    def test_payload_written_as_new_file(self, tmp_path):
        # data.bin is made once and only grows: a hard link to it sees the
        # appended tail, and a second create of the id is refused
        store = VolumeStore(tmp_path)
        store.create("v1", b"old bytes")
        data = tmp_path / "volumes" / "v1" / "data.bin"
        os.link(data, tmp_path / "same")
        store.write("v1", b"old bytes, new tail")
        assert (tmp_path / "same").read_bytes() == data.read_bytes() == b"old bytes, new tail"
        with pytest.raises(StorageError, match="already exists"):
            store.create("v1", b"again")
        assert data.read_bytes() == b"old bytes, new tail"
        assert store.content("v1") == b"old bytes, new tail"

    def test_create_cuts_back_what_a_create_killed_before_its_record_left(self, tmp_path):
        store = VolumeStore(tmp_path)
        data = tmp_path / "volumes" / "v1" / "data.bin"
        data.parent.mkdir(parents=True)
        data.write_bytes(b"left by a killed create")
        vol = store.create("v1", b"fresh")
        assert data.read_bytes() == store.content("v1") == b"fresh"
        assert vol.content_digest == sha256_hex(b"fresh")

    def test_unchanged_meta_is_not_rewritten(self, tmp_path):
        store = VolumeStore(tmp_path)
        store.create("v1", b"bytes")
        data = tmp_path / "volumes" / "v1" / "data.bin"
        with mock.patch.object(store, "_write_meta", wraps=store._write_meta) as meta, \
                mock.patch.object(bee.storage, "extend_file",
                                  wraps=bee.storage.extend_file) as extend:
            vol = store.write("v1", Chain(b"by", b"tes"), sha256_hex(b"bytes"))
            # the committed content again: no byte and no record is appended
            assert (meta.call_count, extend.call_count) == (0, 0)
            assert store.volume("v1") == vol
            assert data.read_bytes() == b"bytes"
            store.write("v1", b"bytes and more")
            assert (meta.call_count, extend.call_count) == (1, 1)
        assert store.volume("v1").content_digest == sha256_hex(b"bytes and more")

    @pytest.mark.parametrize("held", [b"COMMITTED", b"COMMITTED+cut-off tail"])
    def test_extend_file_writes_past_the_committed_bytes_only(self, tmp_path, held):
        path = tmp_path / "data.bin"
        path.write_bytes(held)
        os.link(path, tmp_path / "same")
        extend_file(path, len(b"committed"), b"committed, then appended")
        # the upper-case prefix shows the committed bytes were not written;
        # the link shows the file was extended in place, not replaced
        assert (tmp_path / "same").read_bytes() == b"COMMITTED, then appended"

    @pytest.mark.parametrize("committed", [0, 5, 9, 13, 24])
    def test_extend_file_skips_the_committed_bytes_of_a_chain(self, tmp_path, committed):
        whole = b"committed, then appended"
        path = tmp_path / "data.bin"
        path.write_bytes(whole[:committed].upper())
        # part boundaries at 5, 9 and 13: the offset falls at and inside parts
        extend_file(path, committed, Chain(whole[:5], whole[5:9], whole[9:13], whole[13:]))
        assert path.read_bytes() == whole[:committed].upper() + whole[committed:]

    def test_chain_is_written_part_by_part_as_a_new_file(self, tmp_path):
        store = VolumeStore(tmp_path)
        chain = Chain(b"base", b"+tail") + b"+more"
        vol = store.create("v1", chain)
        assert (vol.byte_size, vol.content_digest) == (14, sha256_hex(b"base+tail+more"))
        vol = store.write("v1", chain + b"!")
        assert (vol.byte_size, vol.content_digest) == (15, sha256_hex(b"base+tail+more!"))
        assert store.content("v1") == b"base+tail+more!"

    def test_new_store_does_not_trust_meta_json(self, tmp_path):
        # data.bin was cut short behind the store's back, so the volume's
        # record names bytes that it does not hold: a store opened afterwards
        # reads and writes neither, and changes nothing
        first = VolumeStore(tmp_path)
        vol = first.create("v1", b"complete payload")
        data = tmp_path / "volumes" / "v1" / "data.bin"
        data.write_bytes(b"compl")
        second = VolumeStore(tmp_path)
        assert second.volume("v1") == vol
        with pytest.raises(StorageError, match="fewer than its 16 committed bytes"):
            second.content("v1")
        with pytest.raises(StorageError, match="fewer than its 16 committed bytes"):
            second.write("v1", b"complete payload, extended")
        assert data.read_bytes() == b"compl"
        assert second.volume("v1") == vol

    def test_bytes_past_the_committed_length_are_not_content(self, tmp_path):
        # a write killed after its append and before its record
        store = VolumeStore(tmp_path)
        store.create("v1", b"committed")
        data = tmp_path / "volumes" / "v1" / "data.bin"
        with open(data, "ab") as fh:
            fh.write(b" and a tail no record names")
        assert store.content("v1") == b"committed"
        assert store.write("v1", b"committed").byte_size == 9
        vol = store.write("v1", b"committed, extended")
        assert data.read_bytes() == store.content("v1") == b"committed, extended"
        assert vol.content_digest == sha256_hex(b"committed, extended")

    @settings(max_examples=200, deadline=None)
    @given(held=st.binary(max_size=40), keep=st.integers(0, 40), tail=st.binary(max_size=8),
           cuts=st.lists(st.integers(0, 48), max_size=4), size=st.integers(0, 40),
           block=st.integers(1, 9), flip=st.integers(0, 47), start=st.integers(0, 40))
    def test_prefix_check_agrees_with_a_whole_compare(self, held, keep, tail, cuts, size,
                                                       block, flip, start):
        # bytes `start` to `size` of the file, which holds `held`, and of the
        # chain, read in blocks of `block` bytes; the chain may differ in one
        # byte and have its part boundaries anywhere in the blocks
        whole = held[:keep] + tail
        if flip < len(whole) and flip % 3 == 0:
            whole = whole[:flip] + bytes([whole[flip] ^ 1]) + whole[flip + 1:]
        bounds = sorted({min(c, len(whole)) for c in cuts} | {0, len(whole)})
        chain = Chain(*(whole[a:b] for a, b in zip(bounds, bounds[1:])))
        size = min(size, len(held), len(whole))
        start = min(start, size)
        with tempfile.TemporaryFile() as fh, \
                mock.patch.object(bee.storage, "_BLOCK", block):
            fh.write(held)
            assert bee.storage._agrees(fh, chain, start, size) == \
                (whole[start:size] == held[start:size])

VOLUME_IDS = st.sampled_from(["a", "b"])
CONTENTS = st.sampled_from([b"", b"x", b"y" * 40]) | st.binary(max_size=16)
STORE_OPS = st.one_of(
    st.tuples(st.just("create"), VOLUME_IDS, CONTENTS),
    # the model's content plus a tail (as a chain of the two), or any bytes
    st.tuples(st.just("write"), VOLUME_IDS, CONTENTS, st.booleans(), st.booleans()),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("crash"), VOLUME_IDS, CONTENTS),
    # a kill in the call's first or second store write (each extends
    # data.bin, then appends a record)
    st.tuples(st.just("kill"), VOLUME_IDS, st.sampled_from(["create", "write"]), CONTENTS,
              st.sampled_from([0, 1])),
)


def killed_at(monkeypatch, at: int) -> list[str]:
    """Kill the process at the store write numbered `at` (from 0), before that
    write changes a file; the names written before it go into the returned
    list."""
    real_extend, real_append, done = bee.storage.extend_file, bee.storage.append_record, []

    def write(real):
        def killable(path, *args):
            if len(done) == at:
                raise Killed
            real(path, *args)
            done.append(path.name)
        return killable
    monkeypatch.setattr(bee.storage, "extend_file", write(real_extend))
    monkeypatch.setattr(bee.storage, "append_record", write(real_append))
    return done


class Killed(Exception):
    """Stands for this process being killed."""


class TestVolumeStoreConsistency:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(STORE_OPS, max_size=25))
    def test_meta_always_describes_data(self, ops):
        """After every operation each volume's record matches its content,
        and a volume without a record does not exist.  A write that does not
        agree with the content, and a create of an existing id, raise
        StorageError and change nothing; a kill anywhere in a call leaves the
        volume as it was before the call or as the call left it."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            store = VolumeStore(root)
            model: dict[str, bytes] = {}  # id -> the content its record describes
            for op in ops:
                kind, vid = op[0], (op[1] if len(op) > 1 else None)
                vol = None
                if kind == "create" and vid in model:
                    with pytest.raises(StorageError, match="already exists"):
                        store.create(vid, op[2])
                elif kind == "create":
                    vol = store.create(vid, op[2])
                    model[vid] = op[2]
                elif kind == "reopen":
                    store = VolumeStore(root)
                elif kind == "crash":
                    # another process was killed mid-append: bytes past the
                    # committed length; then this process restarted
                    if vid in model:
                        with open(root / "volumes" / vid / "data.bin", "ab") as fh:
                            fh.write(op[2][:3] or b"!")
                    store = VolumeStore(root)
                elif kind == "kill":
                    method, content, at = op[2:]
                    if method == "write" and vid in model:
                        content = model[vid] + content
                    with pytest.MonkeyPatch.context() as patch:
                        killed_at(patch, at)
                        try:
                            finished = getattr(store, method)(vid, content)
                        except (Killed, StorageError):
                            finished = None
                    store = VolumeStore(root)
                    if finished is not None:
                        # a write of the bytes the record already names makes
                        # no store write, so no kill reaches it
                        model[vid] = content
                elif vid not in model:
                    with pytest.raises(StorageError):
                        store.write(vid, op[2])
                    continue
                else:
                    committed = model[vid]
                    content = Chain(committed, op[2]) if op[4] else op[2]
                    whole = bytes(content)
                    digest = sha256_hex(whole) if op[3] else None
                    if whole.startswith(committed):
                        vol = store.write(vid, content, digest)
                        model[vid] = whole
                    elif committed.startswith(whole):  # a prefix: nothing to write
                        vol = store.write(vid, content, digest)
                    else:
                        with pytest.raises(StorageError, match="does not agree"):
                            store.write(vid, content, digest)
                if vol is not None:
                    assert vol == store.volume(vid)
                for other in ("a", "b"):
                    assert store.exists(other) == (other in model)
                for other, content in model.items():
                    meta = store.volume(other)
                    assert store.content(other) == content
                    assert (meta.content_digest, meta.byte_size) == \
                        (sha256_hex(content), len(content))

    def test_kill_between_data_and_meta_leaves_meta_describing_data(self, tmp_path,
                                                                    monkeypatch):
        store = VolumeStore(tmp_path)
        store.create("v", b"old bytes")
        done = killed_at(monkeypatch, 1)
        with pytest.raises(Killed):
            store.write("v", b"old bytes, and more of them")
        monkeypatch.undo()
        if done != ["data.bin"]:  # not the case pinned here: fail outright
            pytest.fail(f"killed after writing {done}")
        store = VolumeStore(tmp_path)
        meta, data = store.volume("v"), store.content("v")
        assert (meta.byte_size, meta.content_digest) == (len(data), sha256_hex(data))
        assert data == b"old bytes"


RECORD = st.dictionaries(st.text(max_size=6),
                         st.none() | st.booleans() | st.integers() | st.text(max_size=12),
                         max_size=3)


class TestLog:
    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(RECORD, min_size=1, max_size=8), cut=st.integers(min_value=0),
           new=RECORD, tail=st.sampled_from([1, 16, 64, 4096]))
    def test_reader_takes_the_whole_lines_before_any_cut(self, records, cut, new, tail):
        """Cut a log at any byte: the reader returns exactly the records whose
        lines are whole, the volume's reader, which reads the log's end, the
        last of them, and an append after the cut adds its record."""
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(bee.storage, "_TAIL", tail):
            store = VolumeStore(tmp)
            log = Path(tmp) / "volumes" / "v" / "log"
            log.parent.mkdir(parents=True)
            for doc in records:
                append_record(log, doc)
            data = log.read_bytes()
            assert data == "".join(canonical_json(doc) + "\n" for doc in records).encode()
            log.write_bytes(data[:cut % (len(data) + 1)])
            whole = records[:log.read_bytes().count(b"\n")]
            assert read_log(log) == whole
            assert store._record("v") == (whole[-1] if whole else None)
            append_record(log, new)
            assert read_log(log) == whole + [new]
            assert store._record("v") == new

    def test_unsynced_tail_is_where_the_reader_stops(self, tmp_path):
        # after a power loss an unwritten tail can read back as zeros or as
        # garbage; the reader stops there and the next append cuts it off
        log = tmp_path / "log"
        append_record(log, {"state": 1})
        for tail in (b"\0" * 40, b'{"state":2}garbage\0'):
            with open(log, "ab") as fh:
                fh.write(tail)
            assert read_log(log) == [{"state": 1}]
            append_record(log, {"state": 3})
            assert read_log(log) == [{"state": 1}, {"state": 3}]
            log.write_bytes(b'{"state":1}\n')

    def test_garbage_lines_after_a_volume_record_are_cut_by_the_next_write(self, tmp_path):
        # a power-loss tail that holds a newline would hide every later record
        store = VolumeStore(tmp_path)
        store.create("v1", b"payload")
        with open(tmp_path / "volumes" / "v1" / "log", "ab") as fh:
            fh.write(b"garbage\n")
        grown = store.write("v1", b"payload, grown")
        assert grown.byte_size == 14
        assert store.volume("v1") == grown

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(RECORD, min_size=1, max_size=4),
           garbage=st.lists(st.sampled_from([b"garbage", b"\0" * 40, b"[2]", b"", b"1",
                                             b'{"a":', b"x" * 600]), min_size=1, max_size=4),
           torn=st.booleans(), new=RECORD, tail=st.sampled_from([1, 16, 64, 512, 4096]))
    def test_append_cuts_every_line_after_the_last_record(self, records, garbage, torn,
                                                          new, tail):
        """Lines that are not records, after the last one that is, are cut
        off by the next append, however much of them the tail read holds."""
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(bee.storage, "_TAIL", tail):
            log = Path(tmp) / "log"
            for doc in records:
                append_record(log, doc)
            with open(log, "ab") as fh:
                fh.write(b"\n".join(garbage) + (b"" if torn else b"\n"))
            append_record(log, new)
            assert read_log(log) == records + [new]
            assert log.read_bytes().count(b"\n") == len(records) + 1

    def test_a_line_that_is_not_an_object_ends_the_records(self, tmp_path):
        log = tmp_path / "log"
        log.write_bytes(b'{"a":1}\n[2]\n{"a":3}\n')
        assert read_log(log) == [{"a": 1}]


def fresh(data: bytes) -> bytes:
    """Equal bytes in a new object: equal content proves nothing by identity."""
    return bytes(bytearray(data))


class TestChain:
    def test_append_shares_the_parts_and_copies_no_bytes(self):
        base = fresh(b"base")
        chain = Chain(base)
        longer = chain + b"+tail"
        assert (len(chain), len(longer)) == (4, 9)
        assert longer.parts[0] is base and chain.parts == (base,)
        assert bytes(longer) == b"base+tail"
        assert bytes(chain) is base  # one part: no join
        assert chain + b"" is chain
        assert longer.extends(chain) and longer.extends(Chain()) and chain.extends(chain)
        assert not chain.extends(longer)
        assert not (Chain(fresh(b"base")) + b"+tail").extends(chain)
        assert Chain.of(longer) is longer and Chain.of(base).parts == (base,)

    @pytest.mark.parametrize("part", [bytearray(b"abc"), memoryview(b"abc"), "abc"])
    def test_holds_only_bytes(self, part):
        with pytest.raises(TypeError, match="bytes"):
            Chain(part)
        with pytest.raises(TypeError):
            Chain(b"base") + part


class TestRunningDigest:
    @settings(max_examples=200, deadline=None)
    @given(base=st.binary(min_size=1, max_size=300),
           appends=st.lists(st.binary(max_size=200), max_size=5),
           mutation=st.sampled_from(["flip_first", "truncate", "same_length", "equal_copy"]),
           data=st.data())
    def test_equals_sha256_and_rehashes_what_does_not_extend(self, base, appends,
                                                             mutation, data):
        fed: list = []
        with mock.patch.object(bee.storage, "hashlib", counting_hashlib(fed)):
            running = RunningDigest()
            x = Chain(base)
            assert running.hexdigest(x) == hashlib.sha256(base).hexdigest()
            for tail in appends:
                fed.clear()
                x = x + tail
                assert running.hexdigest(x) == hashlib.sha256(bytes(x)).hexdigest()
                assert fed == ([("update", len(tail))] if tail else [])  # the tail alone

            whole = bytes(x)
            if mutation == "flip_first":
                y = bytes([whole[0] ^ 0xFF]) + whole[1:]
            elif mutation == "truncate":
                y = whole[:data.draw(st.integers(0, len(whole) - 1), label="keep")]
            elif mutation == "same_length":
                i = data.draw(st.integers(0, len(whole) - 1), label="index")
                y = whole[:i] + bytes([whole[i] ^ data.draw(st.integers(1, 255), label="xor")]) \
                    + whole[i + 1:]
            else:
                y = fresh(whole)
            fed.clear()
            assert running.hexdigest(y) == hashlib.sha256(y).hexdigest()
            assert fed == [("new", 0), ("update", len(y))]  # hashed in full

            # the bytes object hashed last is now the part that later data extends
            fed.clear()
            assert running.hexdigest(Chain(y) + b"tail") == \
                hashlib.sha256(y + b"tail").hexdigest()
            assert fed == [("update", 4)]

    def test_only_the_held_parts_prove_an_extension(self):
        held = Chain(fresh(b"held bytes"))
        fed: list = []
        with mock.patch.object(bee.storage, "hashlib", counting_hashlib(fed)):
            running = RunningDigest()
            first = running.hexdigest(held)
            fed.clear()
            assert running.hexdigest(held) == first == hashlib.sha256(b"held bytes").hexdigest()
            assert fed == []  # the very chain: nothing new to hash
            equal = Chain(fresh(b"held bytes"), b"+tail")
            assert running.hexdigest(equal) == hashlib.sha256(b"held bytes+tail").hexdigest()
        assert fed == [("new", 0), ("update", 10), ("update", 5)]  # equal is not the same

    @pytest.mark.parametrize("data", [bytearray(b"abc"), memoryview(b"abc"), "abc"])
    def test_accepts_only_bytes(self, data):
        with pytest.raises(TypeError, match="bytes"):
            RunningDigest().hexdigest(data)
