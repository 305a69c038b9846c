"""Crash points: a migrating run killed at any of its store writes, in any way
a write can be cut off, leaves a store that reads whole, and recovering from
it gives the output of the run that was never killed.

After ALICE (Pillai et al., OSDI 2014) and CrashMonkey (Mohan et al., OSDI
2018), at the level of the application's write calls: every store write goes
through bee.storage.extend_file (a volume's data.bin or a checkpoint segment,
written past its committed length) or bee.storage.append_record (a record,
appended to a run's or a volume's log), so patching those two enumerates every
crash point.
"""

import pytest

import bee.storage
from bee.backends import SimConfig, make_backend
from bee.cli import EXIT_OK, main
from bee.model import canonical_json
from bee.orchestrator import Outcome, run_workflow
from bee.storage import CheckpointStore, VolumeStore, read_log, sha256_hex
from bee.workload import make_input_bytes
from conftest import make_app, make_hardware, make_pool, make_system, run_state

CFG = SimConfig(seed=7, backend="sim-hpc", cpu_overhead_fraction=0.0)
APP = make_app(work_total=240.0, process_count=1)  # two checkpoints, then completion
STORE_FILES = {"log", "data.bin", "volume.bin"}


class Killed(Exception):
    """Stands for the process being killed at a store write."""


class Kill:
    """Counts the calls to the store's two write primitives.  Call `at` is
    cut off in `mode`, and every later call raises without writing, since a
    killed process writes nothing more:
      before  raise without writing;
      torn    extend_file writes half the tail, and append_record half the
              line; then raise;
      after   write, then raise.
    """

    def __init__(self, monkeypatch, at=None, mode=None):
        self.calls, self.at, self.mode, self.dead = 0, at, mode, False
        self.names: set[str] = set()
        self.real_extend, self.real_append = bee.storage.extend_file, bee.storage.append_record
        monkeypatch.setattr(bee.storage, "extend_file", self.extend_file)
        monkeypatch.setattr(bee.storage, "append_record", self.append_record)

    def _cut_here(self, path) -> bool:
        if self.dead:
            raise Killed(f"write of {path.name} after the kill")
        self.calls += 1
        self.names.add(path.name)
        self.dead = self.calls == self.at
        if self.dead and self.mode == "before":
            raise Killed(path)
        return self.dead

    def extend_file(self, path, committed, content):
        if not self._cut_here(path):
            return self.real_extend(path, committed, content)
        if self.mode == "torn":
            content = bytes(content)[:committed + (len(content) - committed) // 2]
        self.real_extend(path, committed, content)
        raise Killed(path)

    def append_record(self, path, doc):
        if not self._cut_here(path):
            return self.real_append(path, doc)
        if self.mode == "torn":
            line = (canonical_json(doc) + "\n").encode()
            with open(path, "ab") as fh:
                fh.write(line[:len(line) // 2])
        else:
            self.real_append(path, doc)
        raise Killed(path)


def run(store, **kwargs):
    pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(3)))
    return run_workflow(pool, APP, VolumeStore(store).volume("in"), make_hardware(),
                        lambda s: make_backend(s, CFG), store, cfg=CFG, run_id="r", **kwargs)


def fresh_store(path):
    VolumeStore(path).create("in", make_input_bytes(7, APP.name, 4096))
    return path


def assert_logs_whole(store):
    """Every line of every log that ends in a newline parses: a kill tears at
    most a log's last line, which has none, and the next append cuts it off."""
    for log in store.rglob("log"):
        assert len(read_log(log)) == log.read_bytes().count(b"\n"), log


def assert_reads_whole(store):
    assert_logs_whole(store)
    if run_state(store, "r") is not None:
        assert main(["status", "r", "--store", str(store)]) == EXIT_OK
    cstore = CheckpointStore(store)
    latest = cstore.latest("r")
    assert latest is None or cstore.verify(latest)


def recover(store):
    """Resume from the latest checkpoint, or run again without one: until the
    first commit, data.bin is still the input."""
    cstore = CheckpointStore(store)
    latest = cstore.latest("r")
    if latest is None:
        return run(store)
    ckpt, content = cstore.load(latest)
    return run(store, resume_from=ckpt, resume_content=content)


@pytest.mark.parametrize("mode", ["before", "torn", "after"])
def test_run_killed_at_any_store_write_recovers_the_same_output(tmp_path, monkeypatch,
                                                               capsys, mode):
    store = fresh_store(tmp_path / "clean")
    counted = Kill(monkeypatch)
    clean = run(store)
    monkeypatch.undo()
    assert clean.outcome is Outcome.COMPLETED and len(clean.history) == 3
    assert counted.names == STORE_FILES
    digest = clean.output_volume.content_digest

    for at in range(1, counted.calls + 1):
        store = fresh_store(tmp_path / f"{mode}-{at}")
        kill = Kill(monkeypatch, at, mode)
        with pytest.raises(Killed):
            run(store)
        monkeypatch.undo()
        assert kill.dead, at
        assert_reads_whole(store)

        result = recover(store)
        assert result.outcome is Outcome.COMPLETED, at
        assert result.output_volume.content_digest == digest, at
        vstore, cstore = VolumeStore(store), CheckpointStore(store)
        assert vstore.volume("in") == result.output_volume
        assert sha256_hex(vstore.content("in")) == digest, at
        assert cstore.verify(cstore.latest("r")), at
        assert run_state(store, "r").phase.value == "complete", at
        assert_logs_whole(store)
    capsys.readouterr()
