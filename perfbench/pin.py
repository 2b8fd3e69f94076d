"""Pin the digests of every workload's outputs at the default seed.

    python3 perfbench/pin.py

Rewrites digests.json from one repetition of each workload. Run it only when
a change is meant to alter the output bytes, and say in the change which
bytes moved and why.
"""

import json
import shutil
from pathlib import Path

from run import HERE, WORK, _repetition, _setup
from gate import DEFAULT_SEED, DIGESTS_PATH, file_digests
from workloads import WORKLOADS

pinned = {}
work = WORK / "pin"
try:
    for name, workload in WORKLOADS.items():
        manifest = _setup(workload, DEFAULT_SEED, work / "data")
        _repetition(workload, manifest, DEFAULT_SEED, work / name)
        pinned[name] = file_digests(work / name)
        print(name, pinned[name])
finally:
    shutil.rmtree(work, ignore_errors=True)
DIGESTS_PATH.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
print(f"wrote {DIGESTS_PATH.relative_to(HERE.parent)}")
