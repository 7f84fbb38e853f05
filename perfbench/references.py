"""Float64 reference fingerprints for stress_layer and infer_eval.

The values were recorded once, from the commit that defined the benchmark,
for seeds 0-31, and are stored in reference.json beside this file.  A run
whose seed is stored checks its float64 reference against them, so a later
change to the operator's arithmetic shows even when its float32 and float64
paths agree with each other.  To record them again (only when the operator's
mathematics is meant to change):

    python3 perfbench/references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

STORE = Path(__file__).with_name("reference.json")
STORED_SEEDS = range(32)


def load(workload: str, seed: int) -> dict | None:
    """The stored fingerprint of one workload at one seed, or None."""
    table = json.loads(STORE.read_text()).get(workload, {})
    return table.get(str(seed))


def main() -> int:
    import workloads

    table = {"stress_layer": {}, "infer_eval": {}}
    for seed in STORED_SEEDS:
        table["stress_layer"][str(seed)] = workloads.fingerprint(
            workloads.stress_reference(seed))
        table["infer_eval"][str(seed)] = workloads.fingerprint(
            workloads.infer_reference(seed))
    STORE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {STORE} for seeds {STORED_SEEDS.start}-{STORED_SEEDS.stop - 1}")
    return 0


if __name__ == "__main__":
    import worker  # noqa: F401  (pins BLAS to one thread before numpy loads)
    sys.exit(main())
