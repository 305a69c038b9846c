"""Cross-version byte-identity gate: a characterization ("golden master") test.

tests/golden/determinism.json holds, for every seeded case, one SHA-256 digest
per component: the canonical JSON artifact, every file the case leaves in its
stores (path relative to the store, SHA-256 of the bytes), every backend
event as canonical JSON with floats written as float.hex(), and the run id
derived from the app document.  Criterion 10
compares two runs of the same code; this file compares the code with the
behaviour it had when the file was generated.  Only sim backends are covered,
because local events carry wall time.

A regeneration is a change of behaviour and needs a stated reason:
    PYTHONPATH=src python tests/golden/regenerate.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bee.model import StorageSolution, canonical_json  # noqa: E402
from bee.netvirt.topology import build_topology, predict_link_frames  # noqa: E402
from bee.orchestrator import derive_run_id  # noqa: E402
from bee.storage import iobench_table  # noqa: E402
from test_acceptance import (  # noqa: E402
    DEPLOY_SEEDS,
    TREE,
    WORKFLOW_SEEDS,
    _deploy_case,
    _run_workflow_case,
    _scaling_artifact,
    _trace_for_wire,
)

GOLDEN = Path(__file__).parent / "golden" / "determinism.json"
CLOUD_DEPLOY_SEEDS = DEPLOY_SEEDS[:20]


def _hex_floats(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex_floats(v) for v in obj]
    return obj


def _store_files(*roots: Path) -> list[str]:
    out = []
    for root in roots:
        if root.exists():
            out += [f"{root.name}/{p.relative_to(root).as_posix()}:"
                    f"{hashlib.sha256(p.read_bytes()).hexdigest()}"
                    for p in sorted(root.rglob("*")) if p.is_file()]
    return out


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dump(tmp: Path) -> dict:
    """Every case's component digests, plus the file and event totals."""
    cases: dict[str, dict[str, str]] = {}
    files = events = 0
    for seed in WORKFLOW_SEEDS:
        store = tmp / f"w{seed}"
        _, app, _, artifact, backends, _, _ = _run_workflow_case(seed, store)
        stored = _store_files(store, Path(f"{store}-straight"))
        logged = [canonical_json(_hex_floats({"t": ev.t, "kind": ev.kind, "node": ev.node,
                                              "detail": ev.detail}))
                  for backend in backends for ev in backend.log.events]
        files += len(stored)
        events += len(logged)
        cases[f"workflow-{seed}"] = {"artifact": _digest([canonical_json(artifact)]),
                                     "store": _digest(stored), "events": _digest(logged),
                                     "run_id": _digest([derive_run_id(app, seed)])}
    for seed in DEPLOY_SEEDS:
        artifact, *_ = _deploy_case(seed)
        cases[f"deploy-{seed}"] = {"artifact": _digest([canonical_json(artifact)])}
    # the cloud kinds differ from sim-hpc only in their capability and in the
    # name their jitter is seeded with; these cases pin both
    for kind in ("sim-cloud-aws", "sim-cloud-baremetal"):
        for seed in CLOUD_DEPLOY_SEEDS:
            artifact, *_ = _deploy_case(seed, kind)
            cases[f"deploy-{kind}-{seed}"] = {"artifact": _digest([canonical_json(artifact)])}
    wire = {f"{k}-{v}": c for (k, v), c in predict_link_frames(
        build_topology(TREE, 8), _trace_for_wire(8)).items()}
    for name, artifact in (("scaling", _scaling_artifact()), ("wire", wire),
                           ("iobench", iobench_table(StorageSolution.DATA_IMAGE_NFS, 32))):
        cases[name] = {"artifact": _digest([canonical_json(artifact)])}
    return {"store_files": files, "events": events, "cases": cases}


def test_artifacts_store_files_and_events_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = dump(tmp_path)
    for name, components in golden["cases"].items():
        for component, digest in components.items():
            got = now["cases"].get(name, {}).get(component)
            assert got == digest, f"first difference: case {name}, component {component}"
    assert now["cases"].keys() == golden["cases"].keys()
    assert (now["store_files"], now["events"]) == (golden["store_files"], golden["events"])
