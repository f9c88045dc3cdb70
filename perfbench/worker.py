"""One benchmark run of one workload, in a fresh process.

Started by run.py, never by hand. It sets the run up several times (for
setup_s), runs `experiment.run_experiment` once end to end with the phase
layers wrapped, checks the outputs against the reference values in
records.json, and writes the metrics to --result. With --trace 1 it runs the
same spec twice, once with the phase layers and once with every layer
wrapped, and reports per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import numpy as np  # noqa: E402
from fedsim import checkpoint, experiment  # noqa: E402

import metrics  # noqa: E402
from tracing import NAME, Tracer, duration  # noqa: E402

RECORDS = Path(__file__).resolve().parent / "records.json"
SETUP_REPEATS = 3  # standalone build_run calls, on top of the one inside the run
ACC_TOL = 0.005  # absolute; a recorded accuracy must repeat within this
MIN_COVERAGE = 0.7  # listed self times must cover this share of traced run_round time


class Ops:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, what: str, attempted: int, succeeded: int) -> None:
        self.attempted += attempted
        if succeeded < attempted:
            self.failed += attempted - succeeded
            self.failures.append(f"{what}: {attempted - succeeded} of {attempted} failed")

    def check(self, what: str, ok: bool) -> bool:
        self.add(what, 1, int(bool(ok)))
        return ok


@contextlib.contextmanager
def _returned(owner, attr: str, sink: list):
    """Append every result of owner.attr to sink while entered."""
    original = getattr(owner, attr)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, keep)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def same_bits(a, b) -> bool:
    """Equal structure, and every array equal bit for bit."""
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


@dataclasses.dataclass
class Rep:
    """One complete run_experiment and what it left behind."""

    tracer: Tracer
    run: object  # the RunState that run_experiment built and advanced
    summary: dict | None
    metrics_csv: bytes

    @property
    def run_s(self) -> float:
        (span,) = [s for s in self.tracer.spans if s[NAME] == "experiment.run_experiment"]
        return duration(span)


def run_once(spec, layers, ops: Ops) -> Rep:
    built = []
    summary, ckpt_ok = None, False
    with Tracer(layers) as tracer, _returned(experiment, "build_run", built):
        try:
            summary = experiment.run_experiment(spec)
            path = os.path.join(spec.out, f"checkpoint_round{spec.config.rounds:05d}.bin")
            ckpt_ok = same_bits(checkpoint.load_checkpoint(path).strategy_state, built[-1].strategy_state)
        except Exception:
            traceback.print_exc()
    run = built[-1] if built else None
    every, rounds = spec.evaluation.eval_every, spec.config.rounds
    planned_evals = sum(1 for r in range(1, rounds + 1) if r % every == 0 or r == rounds)
    done_evals = sum(1 for s in tracer.spans if s[NAME] == "runtime.evaluate_global")
    ops.add("rounds", rounds, len(run.records) if run else 0)
    ops.add("global evals", planned_evals, min(done_evals, planned_evals))
    pers = (summary or {}).get("personalization") or {}
    ops.check("personalization pass", math.isfinite(pers.get("mean_acc", math.nan)))
    ops.check("checkpoint restores every strategy-state array bit for bit", ckpt_ok)
    try:
        with open(os.path.join(spec.out, "metrics.csv"), "rb") as f:
            metrics_csv = f.read()
    except OSError:
        metrics_csv = b""
    return Rep(tracer, run, summary, metrics_csv)


def outputs(rep: Rep, rounds: int) -> dict:
    """What a run is checked on; records.json holds these per workload and seed."""
    return {
        "rounds": rounds,
        "metrics_sha256": hashlib.sha256(rep.metrics_csv).hexdigest(),
        "final_global_acc": rep.summary["final_global_acc"],
        "personalized_mean_acc": rep.summary["personalization"]["mean_acc"],
    }


def check_record(workload: str, seed: int, seen: dict, ops: Ops) -> None:
    """Compare a run's outputs with the reference values recorded for its workload and seed."""
    with open(RECORDS) as f:
        records = json.load(f)
    rec = records["runs"].get(workload, {}).get(str(seed))
    if not ops.check(
        f"reference values recorded for {workload} seed {seed} at {seen['rounds']} rounds",
        rec is not None and rec["rounds"] == seen["rounds"],
    ):
        return
    ops.check(
        f"metrics.csv byte-identical to the reference (recorded with {records['blas']})",
        seen["metrics_sha256"] == rec["metrics_sha256"],
    )
    for key in ("final_global_acc", "personalized_mean_acc"):
        ops.check(f"{key} within {ACC_TOL} of the reference", abs(seen[key] - rec[key]) <= ACC_TOL)


def blas_info() -> dict:
    """The OpenBLAS library numpy loaded and the thread count it reports; read, never set."""
    info = {"library": None, "threads": None}
    try:
        with open("/proc/self/maps") as f:
            paths = [line.split()[-1] for line in f if "openblas" in line.lower()]
    except OSError:
        return info
    if not paths:
        return info
    lib = ctypes.CDLL(paths[0])
    info["library"] = os.path.basename(paths[0])
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            info["threads"] = int(fn())
            break
    for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            info["config"] = fn().decode()
            break
    return info


def environment() -> dict:
    return {
        "blas": blas_info(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, or of its largest child if that is higher.

    VmHWM starts afresh at exec; ru_maxrss would also count whatever peak the
    parent process had reached before it started this one.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as f:
            own_kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    out = str(workloads.CACHE / "out" / f"{w.name}-seed{args.seed}")
    spec = experiment.parse_spec_dict(workloads.spec_object(w, args.seed, args.train, args.test, out))
    ops = Ops()
    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "rounds": w.rounds,
        "env": environment(), "metrics": {}, "basis": {}, "outputs": None,
    }

    with Tracer(metrics.phase_layers()) as setup:
        for _ in range(SETUP_REPEATS):
            experiment.build_run(spec)
    setup_s = [duration(s) for s in setup.spans]

    first = run_once(spec, metrics.phase_layers(), ops)
    ok = first.summary is not None
    if ok:
        result["outputs"] = outputs(first, w.rounds)
        check_record(w.name, args.seed, result["outputs"], ops)
    values = {}
    if ok and not args.trace:
        setup_s += [duration(s) for s in first.tracer.spans if s[NAME] == "experiment.build_run"]
        values, result["basis"] = metrics.end_to_end(first.tracer.spans, setup_s, first.run, peak_rss_mb())
    elif ok:
        first.run = None  # one dataset in memory at a time
        traced = run_once(spec, metrics.traced_layers(), ops)
        ops.check("trace wrappers restored after the traced run", traced.tracer.restored())
        if traced.summary is not None:
            ops.check("traced metrics.csv byte-identical to the untraced one", traced.metrics_csv == first.metrics_csv)
            values = metrics.per_layer(traced.tracer.spans, traced.run, first.run_s, traced.run_s)
            ops.check(
                f"listed self times cover at least {MIN_COVERAGE} of traced run_round time",
                values["trace.run_round_coverage"] >= MIN_COVERAGE,
            )
            traced.tracer.write(os.path.join(out, "spans.tsv"))
            result["basis"] = {"spans": len(traced.tracer.spans), "spans_file": os.path.join(out, "spans.tsv")}
    if values:
        with open(workloads.ROOT / "BENCHMARK.json") as f:
            listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures)
    result["correct"] = ok and not ops.failures
    with open(args.result, "w") as f:
        json.dump(result, f, indent=1)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
