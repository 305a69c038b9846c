"""Rewrite tests/golden/determinism.json from the current code.

Usage: PYTHONPATH=src python tests/golden/regenerate.py

Before it overwrites the file, it prints how many cases changed in each
component (artifact, store, events, run_id) against the file on disk, so a
regeneration shows which behaviour moved.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN, dump  # noqa: E402


def changed_components(old: dict, new: dict) -> dict[str, int]:
    """Per component, the number of cases whose digest differs or is on one side only."""
    counts: dict[str, int] = {}
    for name in old["cases"].keys() | new["cases"].keys():
        before, after = old["cases"].get(name, {}), new["cases"].get(name, {})
        for component in before.keys() | after.keys():
            counts.setdefault(component, 0)
            if before.get(component) != after.get(component):
                counts[component] += 1
    return dict(sorted(counts.items()))


with tempfile.TemporaryDirectory() as tmp:
    doc = dump(Path(tmp))
if GOLDEN.exists():
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for component, n in changed_components(old, doc).items():
        print(f"{component}: {n} cases changed")
    print(f"store files: {old['store_files']} -> {doc['store_files']}, "
          f"events: {old['events']} -> {doc['events']}")
GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"{GOLDEN}: {len(doc['cases'])} cases, {doc['store_files']} store files, "
      f"{doc['events']} events")
