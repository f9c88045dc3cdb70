"""The benchmark's workloads and the data they run on.

Each workload is a shipped `specs/mnist_*.json` at the reference protocol
shape (MLP 784-256-10, 100 clients, 10% participation, batch 50, 1 local
epoch) with its dataset swapped for a generated 784-d, 10-class container,
because MNIST cannot be downloaded where the benchmark runs.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench"

# Blob geometry. Only class_scale / noise_sd matters after the [0, 1] squash;
# at 0.5 FedAvg climbs through the run (about 0.9 after 80 rounds) instead
# of reaching 1.0 by round 30, so the accuracy checks can see a change.
CLASS_SCALE = 0.5
NOISE_SD = 1.0
TRAIN_PER_CLASS = 6000  # 60k train rows
TEST_PER_CLASS = 1000  # 10k test rows

# One epoch, not the specs' 5: 100 clients x 5 epochs of mixture
# personalization alone would take longer than a whole run may.
PERSONALIZATION_EPOCHS = 1
KEEP_SEEDS = 3  # generated datasets kept on disk (440 MB each)
# Input sets with reference values in records.json; `--seed n` runs set
# n mod REFERENCE_SEEDS, so any seed has a reference to check against.
REFERENCE_SEEDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # shipped spec, relative to the repository root
    partition: dict | None  # replaces the spec's partition when given
    # Fixed, so two commits run the same work; each takes about 32 s a run
    # on a 2-core box. 21 is the fewest rounds whose tail (the value with
    # ten rounds above it) is not below the median.
    rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fedavg_shard", "specs/mnist_fedavg.json", None, 80),
        Workload("niw_shard", "specs/mnist_niw.json", None, 41),
        Workload("mixture_dirichlet", "specs/mnist_mixture.json", {"kind": "dirichlet", "alpha": 0.5}, 21),
    )
}


def spec_object(workload: Workload, seed: int, train: str, test: str, out: str) -> dict:
    """The workload's shipped spec with the benchmark's data, seed, rounds and output."""
    with open(ROOT / workload.spec) as f:
        obj = json.load(f)
    obj["seed"] = seed
    obj["out"] = out
    obj["dataset"] = {"kind": "container", "train": train, "test": test}
    if workload.partition is not None:
        obj["partition"] = dict(workload.partition)
    obj["federated"]["rounds"] = workload.rounds
    obj["evaluation"]["personalization_epochs"] = PERSONALIZATION_EPOCHS
    return obj


def ensure_data(seed: int) -> tuple[str, str]:
    """Train/test container paths for `seed`, generated on first use and then reused."""
    cache = CACHE / "data"
    here = cache / f"seed{seed}"
    train, test, done = here / "train.bin", here / "test.bin", here / "complete"
    if not done.exists():
        from fedsim import data
        from fedsim.rng import stream

        shutil.rmtree(here, ignore_errors=True)
        here.mkdir(parents=True)
        tr, _, te, _ = data.synth_train_test(
            1, 10, 784, TRAIN_PER_CLASS, TEST_PER_CLASS, 0.0,
            stream(seed, "perfbench", "data"),
            class_scale=CLASS_SCALE, noise_sd=NOISE_SD,
        )
        data.save_dataset(str(train), tr)
        data.save_dataset(str(test), te)
        del tr, te
        done.touch()
    os.utime(done)
    stale = sorted(cache.iterdir(), key=lambda d: (d / "complete").stat().st_mtime
                   if (d / "complete").exists() else 0.0)[:-KEEP_SEEDS]
    for d in stale:
        shutil.rmtree(d, ignore_errors=True)
    return str(train), str(test)
