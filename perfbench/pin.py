"""Re-pin the correctness gate: write ``pins.json`` from this tree.

    python3 perfbench/pin.py

Runs every workload once at the default seed and records its
artifacts: the SHA-256 of each campaign cell file, and the
exact measured rows of ``slot_fig5``.  Run it only for a deliberate
model change, in a change that touches nothing but the benchmark, and
record the old and new pins in the change log.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DEFAULT_SEED, HERE, OUT, ROOT, repetition
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments  # noqa: F401 - loaded once, before any fork

    pins = {}
    for workload in WORKLOADS:
        work = OUT / f"pin-{workload}"
        try:
            result = repetition(workload, DEFAULT_SEED, False, False, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result is None or result["error"] or result["invariant_violations"]:
            print(f"error: {workload} did not run cleanly; nothing pinned", file=sys.stderr)
            return 1
        missing = sorted(set(result["cells"]) - set(result["artifacts"]))
        if missing:
            print(f"error: {workload} left no artifact for {missing}", file=sys.stderr)
            return 1
        pins[workload] = result["artifacts"]
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
