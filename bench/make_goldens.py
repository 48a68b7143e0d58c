"""Write goldens.json: the sha256 of every pool job's canonical output.

Run from the root of a source checkout, at the commit whose outputs are to
be the reference:

    python3 bench/make_goldens.py

A job whose invariants fail gets no golden, and the script exits 1.
"""

from __future__ import annotations

import json
import sys

import jobs as jobmod
from run import BENCH_DIR, ROOT, load_package


def main() -> int:
    pkg = load_package(ROOT / "src")
    goldens = {}
    status = 0
    for workload in jobmod.WORKLOADS:
        for job in jobmod.pool(pkg, workload):
            result = jobmod.execute(pkg, job)
            try:
                goldens[job.key] = jobmod.digest(pkg, job, result)
            except jobmod.CheckFailed as err:
                print(f"{job.key}: {err}", file=sys.stderr)
                status = 1
    with open(BENCH_DIR / "goldens.json", "w") as handle:
        json.dump(goldens, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(goldens)} goldens written")
    return status


if __name__ == "__main__":
    sys.exit(main())
