"""Rewrite tests/golden/determinism.json from the current code.

Usage: PYTHONPATH=src python tests/golden/regenerate.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN, dump  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    doc = dump(Path(tmp))
GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"{GOLDEN}: {len(doc['cases'])} cases, {doc['store_files']} store files, "
      f"{doc['events']} events")
