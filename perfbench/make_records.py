"""Write records.json: the reference outputs every benchmark run is checked against.

    python3 perfbench/make_records.py

Runs each workload untraced on every input set and keeps what worker.py
checks: the sha256 of metrics.csv, final global accuracy and mean
personalized accuracy, with the round count. The sha256 pins floating-point
results to the BLAS build and thread count they were taken with (written to
the file as `blas`), so a change that alters those bits, BLAS threading
included, shows in the benchmark until this is rerun and the new file is
reviewed with it. Takes about 20 minutes on a 2-core box.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from worker import RECORDS


def main() -> int:
    records = {"blas": None, "runs": {name: {} for name in workloads.WORKLOADS}}
    for seed in range(workloads.REFERENCE_SEEDS):
        for name in workloads.WORKLOADS:
            res = run.run_workload(name, seed, 0)
            if res is None or res["outputs"] is None:
                print(f"{name} input set {seed}: the run failed", file=sys.stderr)
                return 1
            blas = res["env"]["blas"]
            records["blas"] = f"{blas.get('config')}, {blas['threads']} threads"
            records["runs"][name][str(seed)] = res["outputs"]
            print(name, seed, res["outputs"], flush=True)
    RECORDS.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
