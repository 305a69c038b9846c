"""Self-test of the benchmark's generators, checks and tracer.

    python3 perfbench/selftest.py

Exits non-zero if a test fails.  bee is used unmodified: a broken output is
made by flipping a byte of a real run's output, not by patching the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bee.orchestrator  # noqa: E402
from bee.model import NetworkSolution, ResourcePool  # noqa: E402
from bee.netvirt.topology import build_topology, route  # noqa: E402
from bee.orchestrator import SlotEnd, SlotRecord  # noqa: E402
from bee.storage import VolumeStore  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def scratch_root() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))


def raises(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckError:
        return True
    return False


class Tiny(workloads.SimLong):
    """sim-long's shape at 1/8000 of the work: one slot, no migration."""

    app = workloads.app("tiny", 100)
    input_size = 4096
    pool = ResourcePool((workloads.system("tiny0", 4, 3600.0, 1.0),))
    endings = (SlotEnd.COMPLETION,)


def test_generators_are_deterministic():
    for cls in (workloads.SimLong, workloads.SimMigrate, workloads.LocalMigrate):
        a, b, c = cls(7), cls(7), cls(8)
        assert a.input == b.input and a.reference == b.reference, cls.name
        assert a.input != c.input and len(a.input) == len(c.input), cls.name
    a, b, c = workloads.OverlayTree(7), workloads.OverlayTree(7), workloads.OverlayTree(8)
    assert a.healthy == b.healthy and a.after_kill == b.after_kill
    assert a.healthy != c.healthy
    assert len(a.healthy) == len(c.healthy) and len(a.after_kill) == len(c.after_kill)
    for tree in (a, c):
        crossing = [1 for s, d, _ in tree.after_kill if tree.dead in checks.heap_path(s, d)]
        assert len(crossing) == tree.through_dead


def test_heap_distance_matches_bee_routes():
    topo = build_topology(NetworkSolution.P2P_TREE, 15)
    for src in range(15):
        for dst in range(15):
            assert checks.heap_path(src, dst) == route(topo, src, dst)


def test_flipped_output_byte_is_caught():
    tiny = Tiny(3)
    root = scratch_root()
    try:
        assert tiny.iteration(root).failures == []
        scratch = workloads.Scratch(root)
        store = scratch.dir / "store"
        data = VolumeStore(store).create("input", tiny.input)
        result = tiny.run(scratch, store, data)
        data_file = store / "volumes" / data.id / "data.bin"
        tiny.check(result, data_file)
        content = bytearray(data_file.read_bytes())
        content[len(content) // 2] ^= 0x01
        assert raises(checks.check_digest, bytes(content), tiny.reference, "flipped")
        flipped = dataclasses.replace(
            result, output_volume=dataclasses.replace(
                result.output_volume, content_digest=hashlib.sha256(content).hexdigest()))
        assert raises(tiny.check, flipped, data_file)
        data_file.write_bytes(bytes(content))
        assert raises(tiny.check, result, data_file)
        assert scratch.close() == []
    finally:
        shutil.rmtree(root)


def test_dead_relay_send_that_succeeded_is_caught():
    # 0 -> 3 runs through relay 1; 0 -> 2 does not
    assert raises(checks.check_dead_relay_send, 0, 3, 1, 2, None)
    assert raises(checks.check_dead_relay_send, 0, 3, 1, None, 0)
    assert raises(checks.check_dead_relay_send, 0, 2, 1, None, 1)
    assert not raises(checks.check_dead_relay_send, 0, 3, 1, None, 1)
    assert not raises(checks.check_dead_relay_send, 0, 2, 1, 1, None)


def test_healthy_send_checks():
    assert not raises(checks.check_healthy_send, 14, 7, 6)
    assert raises(checks.check_healthy_send, 14, 7, 5)
    assert raises(checks.check_healthy_send, 14, 7, None)


def test_history_checks():
    slots = {"x": 10.0, "y": 10.0}
    good = (SlotRecord("x", 9.5, 0.75, SlotEnd.TIMESLOT_CHECKPOINT),
            SlotRecord("y", 10.0, 0.25, SlotEnd.COMPLETION))
    assert not raises(checks.check_history, good, 1.0, slots)
    assert raises(checks.check_history, good, 2.0, slots)
    over = good[:1] + (SlotRecord("y", 10.5, 0.25, SlotEnd.COMPLETION),)
    assert raises(checks.check_history, over, 1.0, slots)


def test_tracer_restores_every_wrapped_name():
    before = bee.orchestrator.run_workflow, bee.orchestrator.validate, VolumeStore.write
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bee.orchestrator.run_workflow is not before[0]
        assert bee.orchestrator.validate is not before[1]
        root = scratch_root()
        try:
            assert Tiny(3).iteration(root, tracer).failures == []
        finally:
            shutil.rmtree(root)
    finally:
        tracer.uninstall()
    assert (bee.orchestrator.run_workflow, bee.orchestrator.validate,
            VolumeStore.write) == before
    metrics = tracer.metrics(1)
    assert metrics["orchestrator.slots"][0] == 1
    assert metrics["workload.append_output.blocks"][0] == 100
    assert 1 <= metrics["orchestrator.monitor.polls"][0] <= metrics["backends.progress.calls"][0]


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
