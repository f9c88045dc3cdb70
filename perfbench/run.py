"""Protocol-shape benchmark for fedsim.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the repository root. Each workload
runs `experiment.run_experiment` end to end in a fresh worker process,
closed loop, with BLAS threads left as the environment sets them, for a
fixed number of rounds per workload. `--seed n` picks input set
n mod 10, for which records.json holds the reference outputs. The data for
an input set is generated once, outside the timed region, and reused.
`--seconds` is accepted and ignored: the round counts are fixed, so both
sides of a comparison run the same work (about 32 s a run on a 2-core box).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Every metric is printed by name with its unit, then the environment, then,
as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when any
output check fails. Results, run outputs and spans are written under
`.perfbench/` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BUDGET_S = 175  # one invocation per workload must end within 180 s


def run_workload(name: str, seed: int, trace: int) -> dict | None:
    started = time.monotonic()
    train, test = workloads.ensure_data(seed)
    results = workloads.CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
        "--trace", str(trace), "--train", train, "--test", test,
        "--result", str(path),
    ]
    try:
        # the worker's stdout goes to stderr: the result line must stay last on stdout
        subprocess.run(cmd, cwd=workloads.ROOT, stdout=sys.stderr,
                       timeout=BUDGET_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"{name}: worker killed after the {BUDGET_S} s budget", file=sys.stderr)
        return None
    if not path.exists():
        print(f"{name}: worker wrote no result", file=sys.stderr)
        return None
    return json.loads(path.read_text())


def report(res: dict) -> None:
    w = res["workload"]
    print(f"# {w} input set={res['seed']} rounds={res['rounds']} trace={res['trace']}")
    for name, m in res["metrics"].items():
        print(f"{w}  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, v in res["basis"].items():
        print(f"{w}  {name:<44} {v}")
    frac = res["failed"] / res["attempted"]
    print(f"{w}  {'ops_failed_frac':<44} {frac:>14.6g} fraction ({res['failed']} of {res['attempted']})")
    for failure in res["failures"]:
        print(f"{w}  FAILED {failure}")
    print(f"{w}  env {json.dumps(res['env'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="ignored; the round counts are fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (workloads.ROOT / "src" / "fedsim").is_dir():
        print(f"no fedsim sources under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.ROOT / "src"))
    seed = args.seed % workloads.REFERENCE_SEEDS
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    for name in names:
        res = run_workload(name, seed, args.trace)
        if res is None:
            return 1
        report(res)
        results.append(res)
    single = len(results) == 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (k if single else f"{r['workload']}.{k}"): m
            for r in results for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
