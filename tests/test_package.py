"""`import bee` is lazy: the package's names load their submodule on first use,
and a relay agent loads nothing but the standard library and its own modules.
Only bee.storage names, writes or removes a file of the run store."""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bee
from bee.model import NetworkSolution
from bee.netvirt.agent import AgentClient
from bee.netvirt.fleet import AgentFleet, agent_command
from bee.netvirt.topology import build_topology, route


# no bytecode is written into src/, where a later run would start from it
AGENT_ENV = {"PYTHONPATH": str(Path(bee.__file__).resolve().parent.parent),
             "PYTHONDONTWRITEBYTECODE": "1"}
# modules an agent never loads: not to report its ports, nor to serve any command
LATER_MODULES = ("argparse", "_hashlib", "base64", "runpy")


def _modules_after_agent_import() -> list[str]:
    """sys.modules of a fresh `python -S` that has imported the relay agent."""
    probe = ("import sys, bee.netvirt.agent, json; "
             "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=AGENT_ENV,
                         capture_output=True, text=True, check=True, timeout=30).stdout
    return json.loads(out)


def test_agent_import_leaves_engine_modules_unloaded():
    loaded = _modules_after_agent_import()
    assert "bee.netvirt.agent" in loaded
    for heavy in ("bee.orchestrator", "bee.cluster", "bee.storage", "bee.backends"):
        assert heavy not in loaded


def test_agent_loads_only_the_standard_library_and_its_own_modules():
    loaded = _modules_after_agent_import()
    assert [m for m in loaded if m == "bee" or m.startswith("bee.")] == \
        ["bee", "bee.netvirt", "bee.netvirt.agent", "bee.workload"]
    if sys.version_info[:2] == (3, 11):
        for heavy in ("dataclasses", "typing", "inspect", *LATER_MODULES):
            assert heavy not in loaded


def test_an_agent_started_as_the_fleet_starts_it_reports_its_ports_without_later_modules(
        tmp_path):
    portfile = tmp_path / "ports.json"
    cmd = agent_command(["--node", "0", "--portfile", str(portfile)])
    cmd[1:1] = ["-X", "importtime"]
    proc = subprocess.Popen(cmd, env=AGENT_ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                ports = json.loads(portfile.read_text())
                break
            except (OSError, ValueError):  # not written yet, or half written
                assert proc.poll() is None and time.monotonic() < deadline, "no portfile"
                time.sleep(0.01)
        client = AgentClient(("127.0.0.1", ports["control_port"]))
        try:
            for request in ({"cmd": "app_start", "rate": 100.0, "work_total": 50.0},
                            {"cmd": "status"}, {"cmd": "pause"}, {"cmd": "resume"}):
                assert client.call(**request)["ok"] is True, request
            for cmd in ("put_volume", "fetch_volume"):  # an agent holds no volume
                assert client.call(cmd=cmd, data_b64="") == \
                    {"ok": False, "error": f"unknown command {cmd!r}"}
            assert client.call(cmd="stop") == {"ok": True}
        finally:
            client.close()
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
        _, importtime = proc.communicate(timeout=5)
    imported = {line.rpartition("|")[2].strip() for line in importtime.splitlines()
                if line.startswith("import time:")}
    assert "bee.netvirt.agent" in imported
    assert not imported & set(LATER_MODULES)


@pytest.mark.parametrize("kind", list(NetworkSolution))
def test_fleet_of_each_kind_delivers_with_the_routes_hop_counts(tmp_path, kind):
    n = 5
    topo = build_topology(kind, n)
    with AgentFleet(kind, n, tmp_path) as fleet:
        for src in range(n):
            for dst in range(n):
                want = 0 if src == dst else 1 if kind is NetworkSolution.MULTICAST \
                    else len(route(topo, src, dst)) - 1
                assert fleet.send(src, dst, b"%d" % dst) == want, (src, dst)


def test_every_exported_name_is_its_submodules_object():
    from bee import backends, model, orchestrator

    expected = {"SimConfig": backends.SimConfig, "make_backend": backends.make_backend,
                "Outcome": orchestrator.Outcome, "RunResult": orchestrator.RunResult,
                "SlotRecord": orchestrator.SlotRecord,
                "run_workflow": orchestrator.run_workflow}
    assert bee.__version__ == "0.1.0"
    for name in set(bee.__all__) - {"__version__"}:
        want = expected[name] if name in expected else getattr(model, name)
        assert getattr(bee, name) is want, name


def test_star_import():
    namespace = {}
    exec("from bee import *", namespace)
    assert set(bee.__all__) <= set(namespace)
    assert namespace["run_workflow"] is bee.run_workflow


def test_dir_lists_all():
    assert set(bee.__all__) <= set(dir(bee))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bee.no_such_name
    assert not hasattr(bee, "no_such_name")


STORE_FILE_NAMES = {"log", "data.bin"}
STORE_WRITERS = {"append_record", "extend_file"}


def _package_trees():
    package = Path(bee.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        yield path.relative_to(package.parent).as_posix(), \
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_only_the_storage_module_names_a_store_file():
    named = {(module, node.value) for module, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in STORE_FILE_NAMES}
    assert {module for module, _ in named} == {"bee/storage.py"}
    assert {name for _, name in named} == STORE_FILE_NAMES


def test_orchestrator_imports_no_file_writer():
    tree = dict(_package_trees())["bee/orchestrator.py"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
    assert not imported & ({"os", "shutil"} | STORE_WRITERS)


def test_no_module_imports_ctypes():
    # the store writes through the os module alone; a call into the C library,
    # such as a rename swap, would need ctypes
    importers = set()
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module or ""}
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.add(module)
    assert not importers


def _backend_calls(tree) -> set[str]:
    """X of each call `backend.X(...)` or `self.backend.X(...)` in tree."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id == "backend" or \
                    isinstance(owner, ast.Attribute) and owner.attr == "backend" and \
                    isinstance(owner.value, ast.Name) and owner.value.id == "self":
                called.add(node.func.attr)
    return called


def test_every_abstract_backend_method_is_called_by_the_pipeline():
    from bee.backends.base import Backend

    trees = dict(_package_trees())
    called = _backend_calls(trees["bee/cluster.py"]) | \
        _backend_calls(trees["bee/orchestrator.py"])
    assert sorted(Backend.__abstractmethods__ - called) == []
