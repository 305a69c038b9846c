"""`import bee` is lazy: the package's names load their submodule on first use."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bee


def test_agent_import_leaves_engine_modules_unloaded():
    probe = ("import json, sys, bee.netvirt.agent; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bee'))))")
    src = str(Path(bee.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=30).stdout
    loaded = json.loads(out)
    assert "bee.netvirt.agent" in loaded
    for heavy in ("bee.orchestrator", "bee.cluster", "bee.storage", "bee.backends"):
        assert heavy not in loaded


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
