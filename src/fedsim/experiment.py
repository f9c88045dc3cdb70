"""Experiment front-end: spec parsing, execution, and artifact writing.

An experiment spec is a JSON object:

    {
      "name": "mnist_niw",
      "seed": 0,
      "out": "runs/mnist_niw",
      "dataset":   {"kind": "idx" | "synthetic" | "container", ...},
      "partition": {"kind": "shard", "shards_per_client": 5}
                 | {"kind": "dirichlet", "alpha": 0.5},
      "model":     {"hidden": [256]},
      "federated": {... federated config fields ...},
      "evaluation": {... EvalSpec fields ...}
    }

Each block is a frozen dataclass that `codec.decode` checks the JSON
against: `SpecFile` (top level), the dataset "kind" (`IdxDataset`,
`SyntheticDataset`, `ContainerDataset`), the partition "kind"
(`ShardPartition`, `DirichletPartition`), `ModelSpec`, `EvalSpec`, and
`runtime.FederatedConfig` but its seed and sample_count. Unknown keys are
rejected with their field path, and `__post_init__` checks the ranges.
`resolved_spec` echoes the same dataclasses through `codec.encode`.

Artifacts written into the output directory:

    metrics.csv    versioned header; one row per round with the round
                   index, global accuracy, mean client loss, and server
                   objective. Byte-identical across same-seed runs and
                   across checkpoint resume.
    summary.json   final/personalized accuracy, convergence fit, the fully
                   resolved spec, and a build id. The "timing" block is
                   wall-clock and is excluded from determinism comparisons.
    checkpoint_round*.bin   resumable run state (see checkpoint module).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import __version__, checkpoint, codec, data, nn, runtime
from .rng import stream
from .runtime import ConfigError, FederatedConfig

SPEC_FORMAT = "fedsim-spec/v1"
SUMMARY_FORMAT = "fedsim-summary/v1"
METRICS_HEADER = "# fedsim metrics v1\nround,global_acc,mean_client_loss,server_objective\n"

# conventional IDX file names filled in when dataset.dir is given
IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class SpecError(ValueError):
    """Spec validation failure; message carries the offending field path."""


def _require_obj(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


@dataclass(frozen=True)
class IdxDataset:
    """MNIST-format big-endian files: each path, or a `dir` holding IDX_NAMES."""

    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    dir: InitVar[str | None] = None

    def __post_init__(self, dir):
        given = [k for k in IDX_NAMES if getattr(self, k) is not None]
        if dir is not None and given:
            raise SpecError(
                f"dataset.dir: give either dir or explicit paths, not both "
                f"(also saw: {', '.join(given)})"
            )
        for k, name in IDX_NAMES.items():
            if dir is not None:
                object.__setattr__(self, k, os.path.join(dir, name))
            elif k not in given:
                raise SpecError(f"dataset.{k}: required key missing")


@dataclass(frozen=True)
class SyntheticDataset:
    """Gaussian class blobs with a per-cluster shift (data.synth_train_test)."""

    clusters: int
    classes: int
    dims: int
    train_per_class: int
    test_per_class: int
    shift: float
    noise_sd: float = 0.4
    class_scale: float = 1.0

    def __post_init__(self):
        for k in ("clusters", "classes", "dims", "train_per_class",
                  "test_per_class"):
            if getattr(self, k) < 1:
                raise SpecError(f"dataset.{k}: must be >= 1, got {getattr(self, k)}")
        if not 0 < self.noise_sd < math.inf:
            raise SpecError(
                f"dataset.noise_sd: must be > 0 and finite, got {self.noise_sd}"
            )
        for k in ("shift", "class_scale"):
            if not math.isfinite(getattr(self, k)):
                raise SpecError(f"dataset.{k}: must be finite, got {getattr(self, k)}")


@dataclass(frozen=True)
class ContainerDataset:
    """This package's binary dataset files (data.save_dataset)."""

    train: str
    test: str


@dataclass(frozen=True)
class ShardPartition:
    shards_per_client: int

    def __post_init__(self):
        if self.shards_per_client < 1:
            raise SpecError(
                f"partition.shards_per_client: must be >= 1, "
                f"got {self.shards_per_client}"
            )


@dataclass(frozen=True)
class DirichletPartition:
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise SpecError(
                f"partition.alpha: must be > 0 and finite, got {self.alpha}"
            )


DATASETS = {
    "idx": IdxDataset, "synthetic": SyntheticDataset, "container": ContainerDataset,
}
PARTITIONS = {"shard": ShardPartition, "dirichlet": DirichletPartition}


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...] = (256,)

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise SpecError(
                f"model.hidden: layer sizes must be >= 1, got {list(self.hidden)}"
            )


@dataclass(frozen=True)
class EvalSpec:
    eval_every: int = 1
    personalize: bool = True
    personalization_epochs: int = 5  # fine-tuned at the training lr
    checkpoint_every: int = 0
    # passed on to FederatedConfig, which checks it
    sample_count: int = FederatedConfig.sample_count

    def __post_init__(self):
        if self.eval_every < 1:
            raise SpecError(f"evaluation.eval_every must be >= 1, got {self.eval_every}")
        if self.personalization_epochs < 0:
            raise SpecError("evaluation.personalization_epochs must be >= 0")
        if self.checkpoint_every < 0:
            raise SpecError("evaluation.checkpoint_every must be >= 0")


@dataclass(frozen=True)
class SpecFile:
    """A spec's top level as written; each block stays a JSON object until
    it is decoded under its own name, so errors name it as "model.hidden"."""

    dataset: dict
    partition: dict
    format: str = SPEC_FORMAT
    name: str = "experiment"
    seed: int = 0
    out: str | None = None  # default: runs/<name>
    model: dict = field(default_factory=dict)
    federated: dict = field(default_factory=dict)
    evaluation: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.format != SPEC_FORMAT:
            raise SpecError(f"spec.format: expected {SPEC_FORMAT!r}, got {self.format!r}")
        if self.seed < 0:
            raise SpecError(f"spec.seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    seed: int
    out: str
    dataset: dict
    partition: dict
    hidden: tuple[int, ...]
    config: FederatedConfig
    evaluation: EvalSpec


# FederatedConfig fields that the federated block leaves to SpecFile.seed
# and EvalSpec.sample_count
_NOT_FEDERATED = ("seed", "sample_count")


def _decode_kind(kinds: dict, obj: dict, path: str) -> dict:
    """The resolved dict of a block whose "kind" names its dataclass."""
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise SpecError(
            f"{path}.kind: expected one of {', '.join(kinds)}, got {kind!r}"
        )
    rest = {k: v for k, v in obj.items() if k != "kind"}
    return {"kind": kind, **codec.encode(codec.decode(kinds[kind], rest, path))}


def parse_spec_dict(obj) -> ExperimentSpec:
    """Validate a spec object and fill every default."""
    try:
        top = codec.decode(SpecFile, obj, "spec")
        dataset = _decode_kind(DATASETS, top.dataset, "dataset")
        partition = _decode_kind(PARTITIONS, top.partition, "partition")
        model = codec.decode(ModelSpec, top.model, "model")
        evaluation = codec.decode(EvalSpec, top.evaluation, "evaluation")
        for key in _NOT_FEDERATED:
            if key in top.federated:
                raise SpecError(f"federated.{key}: unknown key")
        config = codec.decode(FederatedConfig, {
            **top.federated, "seed": top.seed,
            "sample_count": evaluation.sample_count,
        }, "federated")
    except codec.DecodeError as e:
        raise SpecError(str(e)) from e
    except ConfigError as e:
        raise SpecError(f"federated: {e}") from e
    return ExperimentSpec(
        name=top.name, seed=top.seed,
        out=os.path.join("runs", top.name) if top.out is None else top.out,
        dataset=dataset, partition=partition, hidden=model.hidden,
        config=config, evaluation=evaluation,
    )


def parse_spec(
    path: str, *, seed: int | None = None, out: str | None = None,
    rounds: int | None = None, strategy: str | None = None,
) -> ExperimentSpec:
    """Load a spec file; keyword overrides are applied to the raw object."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}: not valid JSON: {e}") from e
    except ValueError as e:  # bad UTF-8, or an int past the digit limit
        raise SpecError(f"{path}: {e}") from e
    obj = _require_obj(obj, "spec")
    for key, value in (("seed", seed), ("out", out)):
        if value is not None:
            obj[key] = value
    for key, value in (("rounds", rounds), ("strategy", strategy)):
        if value is not None:
            _require_obj(obj.setdefault("federated", {}), "federated")[key] = value
    return parse_spec_dict(obj)


def resolved_spec(spec: ExperimentSpec) -> dict:
    """Echo the spec with every field explicit; parse_spec_dict round-trips it."""
    fed = codec.encode(spec.config)
    fed = {k: v for k, v in fed.items() if k not in _NOT_FEDERATED}
    return codec.encode(SpecFile(
        dataset=dict(spec.dataset), partition=dict(spec.partition),
        name=spec.name, seed=spec.seed, out=spec.out,
        model=codec.encode(ModelSpec(spec.hidden)), federated=fed,
        evaluation=codec.encode(spec.evaluation),
    ))


def build_id(resolved: dict) -> str:
    """Short content hash of the resolved spec plus the package version.

    The output directory is excluded: it is not part of the experiment's
    identity, and resume into a different directory must agree.
    """
    hashed = {k: v for k, v in resolved.items() if k != "out"}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256()
    h.update(blob.encode())
    h.update(b"\0")
    h.update(__version__.encode())
    return h.hexdigest()[:12]


def _file_datasets(train, test, test_path: str):
    """The loaded train and test sets, sharing one class count."""
    # global accuracy divides by the test-set size
    if len(test) == 0:
        raise SpecError(f"{test_path}: the test set has no rows")
    nc = max(train.num_classes, test.num_classes)
    if train.num_classes != nc:
        train = data.LabeledDataset(train.inputs, train.labels, nc)
    if test.num_classes != nc:
        test = data.LabeledDataset(test.inputs, test.labels, nc)
    return train, test


def build_datasets(spec: ExperimentSpec):
    ds = spec.dataset
    if ds["kind"] == "idx":
        train = data.load_idx(ds["train_images"], ds["train_labels"])
        test = data.load_idx(ds["test_images"], ds["test_labels"])
        return _file_datasets(train, test, ds["test_images"])
    if ds["kind"] == "container":
        return _file_datasets(
            data.load_dataset(ds["train"]), data.load_dataset(ds["test"]), ds["test"]
        )
    rng = stream(spec.seed, "data")
    train, _, test, _ = data.synth_train_test(
        ds["clusters"], ds["classes"], ds["dims"], ds["train_per_class"],
        ds["test_per_class"], ds["shift"], rng,
        class_scale=ds["class_scale"], noise_sd=ds["noise_sd"],
    )
    return train, test


def build_partition(spec: ExperimentSpec, labels: np.ndarray) -> data.Partition:
    p = spec.partition
    rng = stream(spec.seed, "partition")
    if p["kind"] == "shard":
        return data.shard_partition(
            labels, spec.config.n_clients, p["shards_per_client"], rng
        )
    return data.dirichlet_partition(labels, spec.config.n_clients, p["alpha"], rng)


def build_run(spec: ExperimentSpec) -> runtime.RunState:
    train, test = build_datasets(spec)
    part = build_partition(spec, train.labels)
    arch = nn.MlpArch((train.input_dim, *spec.hidden, train.num_classes))
    return runtime.init_run(spec.config, arch, train, test, part)


def _fmt(x: float) -> str:
    return repr(float(x))


def _metrics_row(rec: runtime.RoundRecord) -> str:
    return (
        f"{rec.round_index},{_fmt(rec.global_acc)},"
        f"{_fmt(rec.mean_client_loss)},{_fmt(rec.server_objective)}\n"
    )


def _ckpt_path(out: str, completed_round: int) -> str:
    return os.path.join(out, f"checkpoint_round{completed_round:05d}.bin")


def _summary_convergence(records) -> dict | None:
    objs = [r.server_objective for r in records]
    if len(objs) < 10:
        return None
    burn_in = 10 if len(objs) >= 20 else 0
    fit = runtime.convergence_diagnostic(runtime.running_average(objs), burn_in)
    return {
        "c": fit.c,
        "offset": fit.offset,
        "residual": fit.residual,
        "monotone_running_average": fit.monotone,
        "burn_in": burn_in,
    }


def run_experiment(
    spec: ExperimentSpec, resume: checkpoint.Checkpoint | None = None
) -> dict:
    """Execute a spec to completion; returns the summary dict it wrote."""
    t0 = time.perf_counter()
    resolved = resolved_spec(spec)
    run = build_run(spec)
    if resume is not None:
        if build_id(resume.spec) != build_id(resolved):
            raise SpecError(
                "checkpoint spec does not match the experiment being resumed"
            )
        # the spec does not pin the checkpoint's state arrays to the model
        have, want = {}, {}
        codec.encode(resume.strategy_state, "arr:state", have)
        codec.encode(run.strategy_state, "arr:state", want)
        for name in sorted(have.keys() | want.keys()):
            got, need = (a[name].shape if name in a else None for a in (have, want))
            if got != need:
                raise checkpoint.CheckpointError(
                    f"checkpoint section {name!r} has shape {got}, "
                    f"the run expects {need}"
                )
        run.strategy_state = resume.strategy_state
        run.round_index = resume.round_index
        run.records = list(resume.records)
    # only a spec that built (and matches its checkpoint) gets an output dir
    os.makedirs(spec.out, exist_ok=True)

    ev = spec.evaluation
    rounds = spec.config.rounds
    metrics_path = os.path.join(spec.out, "metrics.csv")
    with open(metrics_path, "w", newline="") as mf:
        mf.write(METRICS_HEADER)
        for rec in run.records:
            mf.write(_metrics_row(rec))
        mf.flush()
        while run.round_index <= rounds:
            r = run.round_index
            do_eval = (r % ev.eval_every == 0) or (r == rounds)
            rec = runtime.run_round(run, evaluate=do_eval)
            mf.write(_metrics_row(rec))
            mf.flush()
            if ev.checkpoint_every and r % ev.checkpoint_every == 0 and r != rounds:
                checkpoint.save_checkpoint(_ckpt_path(spec.out, r), run, resolved)
    checkpoint.save_checkpoint(
        _ckpt_path(spec.out, run.round_index - 1), run, resolved
    )

    if run.records:
        final_acc = run.records[-1].global_acc
    else:
        final_acc = runtime.evaluate_global(run)

    personalization = None
    if ev.personalize:
        if any(c.test_indices.size > 0 for c in run.clients):
            report = runtime.evaluate_personalized(
                run, epochs=ev.personalization_epochs
            )
            personalization = {
                **codec.encode(report), "epochs": ev.personalization_epochs,
            }
        else:
            personalization = {"skipped": "no client has a personal test split"}

    total_s = time.perf_counter() - t0
    summary = {
        "format": SUMMARY_FORMAT,
        "build_id": build_id(resolved),
        "name": spec.name,
        "rounds_completed": run.round_index - 1,
        "final_global_acc": final_acc,
        "personalization": personalization,
        "convergence": _summary_convergence(run.records),
        "spec": resolved,
        "timing": {  # wall clock; excluded from determinism comparisons
            "total_s": total_s,
            "mean_round_ms": (
                float(np.mean([r.wall_ms for r in run.records]))
                if run.records else 0.0
            ),
        },
    }
    with open(os.path.join(spec.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def resume_experiment(checkpoint_path: str, out: str | None = None) -> dict:
    """Continue a checkpointed run to its configured round budget."""
    ck = checkpoint.load_checkpoint(checkpoint_path)
    obj = dict(ck.spec)
    if out is None:
        out = os.path.dirname(checkpoint_path) or "."
    obj["out"] = out
    spec = parse_spec_dict(obj)
    return run_experiment(spec, resume=ck)


def partition_report(spec: ExperimentSpec) -> str:
    """Per-client label histograms of the train split, plus totals."""
    train, _ = build_datasets(spec)
    part = build_partition(spec, train.labels)
    lines = [
        "# fedsim partition report v1",
        f"dataset: {spec.dataset['kind']} "
        f"(n={len(train)}, classes={train.num_classes}, "
        f"input_dim={train.input_dim})",
        f"partition: {spec.partition['kind']} "
        + json.dumps({k: v for k, v in spec.partition.items() if k != 'kind'}),
        f"clients: {part.num_clients}",
    ]
    grand_train = 0
    grand_test = 0
    for cid in range(part.num_clients):
        tr = part.train_indices[cid]
        te = part.test_indices[cid]
        grand_train += tr.size
        grand_test += te.size
        labels, counts = np.unique(train.labels[tr], return_counts=True)
        hist = " ".join(f"{int(l)}:{int(c)}" for l, c in zip(labels, counts))
        lines.append(f"client {cid}: train={tr.size} test={te.size} | {hist}")
    lines.append(f"totals: train={grand_train} test={grand_test}")
    return "\n".join(lines)
