#!/usr/bin/env python3
"""Record the default seed's outcome digests into ``digests.json``.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter simulated outcomes; a
change that only makes the simulator faster must keep every digest.
"""

from __future__ import annotations

import json

from run import DIGESTS, import_simulator


def main() -> None:
    workloads, _ = import_simulator()
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        result = workload.run_pass(workload.setup(workload.inputs(workloads.DEFAULT_SEED)))
        if result.errors:
            raise SystemExit(f"{name}: {result.errors[0]}")
        recorded[name] = {
            "seed": workloads.DEFAULT_SEED,
            "summary": workloads.digest(result.summary),
            "units": result.unit_digests(),
        }
        print(f"{name}: {len(result.records)} units, pass {result.pass_digest()}")
    with open(DIGESTS, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
