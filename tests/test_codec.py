"""The JSON codec: round trips for every persisted type, and malformed input
through the command line, which must end in exit 64 with a one-line message
naming the field path, never in a traceback."""

import copy
import functools
import json
import shutil
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from bee.backends import SimConfig
from bee.backends.scaling import ScalingRow
from bee.cli import EXIT_CONFIG, main
from bee.model import (
    AppSpec,
    ComputeSystem,
    DataVolume,
    HardwareConfig,
    ResourcePool,
    RunState,
    canonical_json,
    from_json,
    to_json,
)
from bee.orchestrator import Checkpoint, RunResult, SlotRecord
from bee.storage import append_record
from conftest import commit_record, make_app, make_hardware, make_pool, make_system, run_state

CODEC_TYPES = [ResourcePool, ComputeSystem, AppSpec, HardwareConfig, DataVolume, RunState,
               SimConfig, SlotRecord, RunResult, Checkpoint, ScalingRow]

MUTANTS = (None, "x", -1, 1e308, [], {}, True)


def _strategy(tp):
    """Values of any codec type, read off its type hints."""
    if get_origin(tp) in (Union, UnionType):
        (inner,) = [t for t in get_args(tp) if t is not type(None)]
        return st.none() | _strategy(inner)
    if get_origin(tp) is tuple:
        return st.lists(_strategy(get_args(tp)[0]), max_size=3).map(tuple)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return st.builds(tp, **{f.name: _strategy(hints[f.name]) for f in fields(tp)})
    if issubclass(tp, Enum):
        return st.sampled_from(tp)
    return {bool: st.booleans(), int: st.integers(), str: st.text(max_size=8),
            float: st.floats(allow_nan=False, allow_infinity=False)}[tp]


@pytest.mark.parametrize("cls", CODEC_TYPES, ids=lambda cls: cls.__name__)
def test_round_trip_is_identity_with_identical_bytes(cls):
    @settings(max_examples=40, deadline=None)
    @given(_strategy(cls))
    def check(value):
        text = canonical_json(to_json(value))
        parsed = from_json(cls, json.loads(text), "doc")
        assert parsed == value
        assert canonical_json(to_json(parsed)) == text

    check()


# ---------------------------------------------------------------------------
# malformed documents through the command line


def _docs(work_total=30.0):
    return {"pool": to_json(make_pool(make_system("alpha"), make_system("beta"))),
            "app": to_json(make_app(work_total=work_total)),
            "uconf": to_json(make_hardware())}


def _dotted(root, path):
    return root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _nodes(doc, path=()):
    """The path of every value below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the node at path set to value."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutations(root, doc):
    """(field path, document) for each node of doc replaced by each mutant."""
    for path in _nodes(doc):
        for value in MUTANTS:
            yield _dotted(root, path), _replaced(doc, path, value)


def _write(directory, docs):
    directory.mkdir(parents=True, exist_ok=True)
    argv = []
    for name, doc in docs.items():
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{name}", str(directory / f"{name}.json")]
    return argv


def _bee(capsys, argv):
    """(exit code, stdout, stderr) of one command; an escaped exception is a
    traceback, reported as the code."""
    try:
        code = main(argv)
    except Exception as exc:  # the fuzz reports every case that escapes main()
        code = f"traceback: {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    return code, out, err


def _one_line_error(err, field):
    return err.count("\n") == 1 and err.startswith("config error: ") and field in err


@pytest.mark.parametrize("root,key,value", [
    ("app", "checkpointable", "no"),
    ("app", "entry_command", "mpirun demo"),
    ("app", "process_count", 2.9),
    ("app", "work_total", True),
    ("app", "process_count", None),
    ("app", "work_total", "x"),
    ("uconf", "vcpus", 1e308),
])
def test_coercions_of_the_old_parsers_are_parse_errors(tmp_path, capsys, root, key, value):
    docs = _docs()
    docs[root] = _replaced(docs[root], (key,), value)
    code, _, err = _bee(capsys, ["validate", *_write(tmp_path, docs)])
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {root}.{key}: expected ") and err.count("\n") == 1


@pytest.mark.parametrize("root,path", [("app", ("work_total",)),
                                       ("pool", ("systems", 0, "cpu_rate_native"))])
def test_overflowing_numbers_are_violations(tmp_path, capsys, root, path):
    docs = _docs()
    docs[root] = _replaced(docs[root], path, 1e308)
    code, out, _ = _bee(capsys, ["run", *_write(tmp_path, docs), "--store",
                                 str(tmp_path / "store"), "--json"])
    assert code == EXIT_CONFIG
    assert [v["field"] for v in json.loads(out)["violations"]] == [_dotted(root, path)]


def test_every_leaf_mutation_validates_to_zero_or_64_naming_its_field(tmp_path, capsys):
    bad, passing = [], []
    base = _docs(work_total=2000.0)
    cases = [(root, field, doc) for root in base for field, doc in _mutations(root, base[root])]
    assert len(cases) == 364
    for i, (root, field, doc) in enumerate(cases):
        argv = _write(tmp_path / f"c{i}", {**base, root: doc})
        code, out, err = _bee(capsys, ["validate", *argv, "--json"])
        if code == 0:
            passing.append(argv)
        elif code != EXIT_CONFIG:
            bad.append((field, code))
        elif err:
            if not _one_line_error(err, field):
                bad.append((field, err))
        elif not any(field.startswith(v["field"]) for v in json.loads(out)["violations"]):
            bad.append((field, out))
    assert bad == []

    # every case validate accepts runs, resumes when it stalls, and reports status
    resumed = 0
    for i, argv in enumerate(passing):
        store = str(tmp_path / f"s{i}")
        code, out, err = _bee(capsys, ["run", *argv, "--store", store, "--json"])
        codes = [code]
        if code == 2:
            resumed += 1
            doc = json.loads(out)
            codes.append(_bee(capsys, ["resume", *argv, "--store", store, "--json",
                                       "--checkpoint", doc["checkpoint_path"]])[0])
            codes.append(_bee(capsys, ["status", doc["run_id"], "--store", store])[0])
        if set(codes) - {0, 1, 2, EXIT_CONFIG}:
            bad.append((argv, codes))
    assert bad == []
    assert len(passing) >= 20 and resumed >= 10


def test_unknown_keys_are_rejected_everywhere(tmp_path, capsys):
    base = _docs()
    for root, doc in base.items():
        for path in [(), *_nodes(doc)]:
            if not isinstance(functools.reduce(lambda node, key: node[key], path, doc), dict):
                continue
            argv = _write(tmp_path / "c", {**base, root: _replaced(doc, (*path, "extra"), 1)})
            code, _, err = _bee(capsys, ["validate", *argv])
            assert code == EXIT_CONFIG
            assert err == f"config error: {_dotted(root, path)}: unknown fields ['extra']\n"


def _stalled_run(tmp_path, capsys):
    argv = _write(tmp_path / "cfg", _docs(work_total=2000.0))
    store = str(tmp_path / "store")
    code, out, _ = _bee(capsys, ["run", *argv, "--store", store, "--json"])
    assert code == 2
    return argv, store, json.loads(out)


def test_malformed_state_and_manifest_fields_exit_64(tmp_path, capsys):
    argv, store, run = _stalled_run(tmp_path, capsys)
    run_dir = tmp_path / "store" / run["run_id"]
    # a copy of the run directory, so the segment that the latest checkpoint
    # names stays beside it
    checkpoint = Path(run["checkpoint_path"])
    ckpt_dir = tmp_path / "ckpt" / checkpoint.name
    shutil.copytree(checkpoint.parent, ckpt_dir.parent)
    run_log, ckpt_log = (run_dir / "log").read_bytes(), (ckpt_dir.parent / "log").read_bytes()
    state = run_state(tmp_path / "store", run["run_id"])
    manifest = commit_record(ckpt_dir.parent, int(ckpt_dir.name))
    assert manifest["segment"] < manifest["seq"]  # the latest extends an earlier one
    bad = []
    for field, doc in _mutations("state", to_json(state)):
        (run_dir / "log").write_bytes(run_log)
        append_record(run_dir / "log", {"state": doc})  # the malformed record is the last
        code, _, err = _bee(capsys, ["status", run["run_id"], "--store", store])
        if code != 0 and not (code == EXIT_CONFIG and _one_line_error(err, field)):
            bad.append((field, code, err))
    for i, (field, doc) in enumerate(_mutations("commit", manifest)):
        (ckpt_dir.parent / "log").write_bytes(ckpt_log)
        append_record(ckpt_dir.parent / "log", {"commit": doc})
        code, _, err = _bee(capsys, ["resume", *argv, "--store", str(tmp_path / f"r{i}"),
                                     "--checkpoint", str(ckpt_dir)])
        if code not in (0, 1, 2) and not (code == EXIT_CONFIG and _one_line_error(err, field)):
            bad.append((field, code, err))
    assert bad == []


def test_malformed_sim_config_fields_exit_64(tmp_path, capsys):
    argv = _write(tmp_path / "cfg", _docs())
    bad = []
    for i, (field, doc) in enumerate(_mutations("sim_config", to_json(SimConfig()))):
        calib = tmp_path / f"calib{i}.json"
        calib.write_text(json.dumps(doc))
        code, _, err = _bee(capsys, ["run", *argv, "--store", str(tmp_path / f"s{i}"),
                                     "--sim-config", str(calib)])
        if code not in (0, 1, 2) and not (code == EXIT_CONFIG and _one_line_error(err, field)):
            bad.append((field, code, err))
    assert bad == []
