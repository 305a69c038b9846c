"""Each demo runs to completion as a script: exit 0, with the package on the
path and nothing else set up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bee.netvirt.fleet import _package_pythonpath

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_five_demos_are_found():
    assert [d.name for d in DEMOS] == ["live_agents.py", "scaling_study.py",
                                       "storage_models.py", "topology_study.py",
                                       "workflow_migration.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=_package_pythonpath(), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
