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
      "evaluation": {... EvalSpec fields, plus sample_count ...}
    }

Unknown keys are rejected with their field path. The "federated" keys are
the fields of `runtime.FederatedConfig` (all but seed and sample_count), the
"evaluation" keys those of `EvalSpec` plus sample_count; each field's
annotation sets its JSON type and its default is the dataclass default.

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
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, checkpoint, data, nn, runtime
from .rng import stream
from .runtime import ConfigError, FederatedConfig

SPEC_FORMAT = "fedsim-spec/v1"
SUMMARY_FORMAT = "fedsim-summary/v1"
METRICS_HEADER = "# fedsim metrics v1\nround,global_acc,mean_client_loss,server_objective\n"

DATASET_KINDS = ("idx", "synthetic", "container")
PARTITION_KINDS = ("shard", "dirichlet")

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


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise SpecError(
                f"{path}.{k}: unknown key (allowed: {', '.join(sorted(allowed))})"
            )
    for k in required:
        if k not in obj:
            raise SpecError(f"{path}.{k}: required key missing")


def _typed(obj: dict, path: str, key: str, kind, default):
    """Fetch obj[key] with a type check; bool never passes as a number."""
    if key not in obj:
        return default
    v = obj[key]
    if kind is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    if isinstance(v, bool) and kind is not bool:
        raise SpecError(f"{path}.{key}: expected {kind.__name__}, got bool")
    if not isinstance(v, kind):
        raise SpecError(
            f"{path}.{key}: expected {kind.__name__}, got {type(v).__name__}"
        )
    return v


def _int_list(obj: dict, path: str, key: str, default):
    if key not in obj or obj[key] is None:
        return default
    v = obj[key]
    if not isinstance(v, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in v
    ):
        raise SpecError(f"{path}.{key}: expected a list of integers")
    return tuple(v)


@dataclass(frozen=True)
class EvalSpec:
    eval_every: int = 1
    personalize: bool = True
    personalization_epochs: int = 5
    personalization_lr: float | None = None
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.eval_every < 1:
            raise SpecError(f"evaluation.eval_every must be >= 1, got {self.eval_every}")
        if self.personalization_epochs < 0:
            raise SpecError("evaluation.personalization_epochs must be >= 0")
        if self.checkpoint_every < 0:
            raise SpecError("evaluation.checkpoint_every must be >= 0")


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


def _parse_dataset(obj, path="dataset") -> dict:
    obj = _require_obj(obj, path)
    kind = _typed(obj, path, "kind", str, None)
    if kind not in DATASET_KINDS:
        raise SpecError(
            f"{path}.kind: expected one of {', '.join(DATASET_KINDS)}, got {kind!r}"
        )
    if kind == "idx":
        _check_keys(obj, path, ("kind",), ("dir", *IDX_NAMES))
        if "dir" in obj:
            extra = sorted(set(obj) & set(IDX_NAMES))
            if extra:
                raise SpecError(
                    f"{path}.dir: give either dir or explicit paths, not both "
                    f"(also saw: {', '.join(extra)})"
                )
            d = _typed(obj, path, "dir", str, None)
            return {
                "kind": "idx",
                **{k: os.path.join(d, v) for k, v in IDX_NAMES.items()},
            }
        out = {"kind": "idx"}
        for k in IDX_NAMES:
            v = _typed(obj, path, k, str, None)
            if v is None:
                raise SpecError(f"{path}.{k}: required key missing")
            out[k] = v
        return out
    if kind == "synthetic":
        _check_keys(
            obj, path,
            ("kind", "clusters", "classes", "dims", "train_per_class",
             "test_per_class", "shift"),
            ("noise_sd", "class_scale"),
        )
        out = {
            "kind": "synthetic",
            "clusters": _typed(obj, path, "clusters", int, None),
            "classes": _typed(obj, path, "classes", int, None),
            "dims": _typed(obj, path, "dims", int, None),
            "train_per_class": _typed(obj, path, "train_per_class", int, None),
            "test_per_class": _typed(obj, path, "test_per_class", int, None),
            "shift": _typed(obj, path, "shift", float, None),
            "noise_sd": _typed(obj, path, "noise_sd", float, 0.4),
            "class_scale": _typed(obj, path, "class_scale", float, 1.0),
        }
        for k in ("clusters", "classes", "dims", "train_per_class",
                  "test_per_class"):
            if out[k] < 1:
                raise SpecError(f"{path}.{k}: must be >= 1, got {out[k]}")
        if not out["noise_sd"] > 0:
            raise SpecError(f"{path}.noise_sd: must be > 0, got {out['noise_sd']}")
        return out
    _check_keys(obj, path, ("kind", "train", "test"), ())
    return {
        "kind": "container",
        "train": _typed(obj, path, "train", str, None),
        "test": _typed(obj, path, "test", str, None),
    }


def _parse_partition(obj, path="partition") -> dict:
    obj = _require_obj(obj, path)
    kind = _typed(obj, path, "kind", str, None)
    if kind == "shard":
        _check_keys(obj, path, ("kind", "shards_per_client"), ())
        s = _typed(obj, path, "shards_per_client", int, None)
        if s < 1:
            raise SpecError(f"{path}.shards_per_client: must be >= 1, got {s}")
        return {"kind": "shard", "shards_per_client": s}
    if kind == "dirichlet":
        _check_keys(obj, path, ("kind", "alpha"), ())
        alpha = _typed(obj, path, "alpha", float, None)
        if not alpha > 0:
            raise SpecError(f"{path}.alpha: must be > 0, got {alpha}")
        return {"kind": "dirichlet", "alpha": alpha}
    raise SpecError(
        f"{path}.kind: expected one of {', '.join(PARTITION_KINDS)}, got {kind!r}"
    )


_FIELDS = {f.name: f for cls in (FederatedConfig, EvalSpec) for f in fields(cls)}
# the federated block holds every FederatedConfig field except seed, which
# the spec keeps at its top level, and sample_count, which sits in "evaluation"
_FED_KEYS = tuple(
    f.name for f in fields(FederatedConfig) if f.name not in ("seed", "sample_count")
)
_EVAL_KEYS = (*(f.name for f in fields(EvalSpec)), "sample_count")
_SCALAR_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _parse_fields(obj, path: str, keys: tuple) -> dict:
    """Type-check the keys present in a block against their field annotations.

    `X | None` also accepts null; `tuple[int, ...]` takes a list of integers.
    """
    obj = _require_obj(obj, path)
    _check_keys(obj, path, (), keys)
    out = {}
    for key, value in obj.items():
        kind = _FIELDS[key].type
        if value is None and kind.endswith(" | None"):
            out[key] = None
        elif kind.startswith("tuple[int"):
            out[key] = _int_list(obj, path, key, None)
        else:
            scalar = _SCALAR_TYPES[kind.removesuffix(" | None")]
            out[key] = _typed(obj, path, key, scalar, None)
    return out


def parse_spec_dict(obj) -> ExperimentSpec:
    """Validate a spec object and fill every default."""
    obj = _require_obj(obj, "spec")
    _check_keys(
        obj, "spec", ("dataset", "partition"),
        ("format", "name", "seed", "out", "model", "federated", "evaluation"),
    )
    fmt = _typed(obj, "spec", "format", str, SPEC_FORMAT)
    if fmt != SPEC_FORMAT:
        raise SpecError(f"spec.format: expected {SPEC_FORMAT!r}, got {fmt!r}")
    name = _typed(obj, "spec", "name", str, "experiment")
    seed = _typed(obj, "spec", "seed", int, 0)
    out = _typed(obj, "spec", "out", str, os.path.join("runs", name))

    dataset = _parse_dataset(obj["dataset"])
    partition = _parse_partition(obj["partition"])

    model = _require_obj(obj.get("model", {}), "model")
    _check_keys(model, "model", (), ("hidden",))
    hidden = _int_list(model, "model", "hidden", (256,))
    if any(h < 1 for h in hidden):
        raise SpecError(f"model.hidden: layer sizes must be >= 1, got {list(hidden)}")

    ev = _parse_fields(obj.get("evaluation", {}), "evaluation", _EVAL_KEYS)
    fed = _parse_fields(obj.get("federated", {}), "federated", _FED_KEYS)
    if "sample_count" in ev:
        fed["sample_count"] = ev.pop("sample_count")
    evaluation = EvalSpec(**ev)
    try:
        config = FederatedConfig(seed=seed, **fed)
    except ConfigError as e:
        raise SpecError(f"federated: {e}") from e
    return ExperimentSpec(
        name=name, seed=seed, out=out, dataset=dataset, partition=partition,
        hidden=hidden, config=config, evaluation=evaluation,
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
    obj = _require_obj(obj, "spec")
    if seed is not None:
        obj["seed"] = seed
    if out is not None:
        obj["out"] = out
    if rounds is not None or strategy is not None:
        fed = _require_obj(obj.setdefault("federated", {}), "federated")
        if rounds is not None:
            fed["rounds"] = rounds
        if strategy is not None:
            fed["strategy"] = strategy
    return parse_spec_dict(obj)


def resolved_spec(spec: ExperimentSpec) -> dict:
    """Echo the spec with every field explicit; parse_spec_dict round-trips it."""
    c = spec.config
    fed = {k: getattr(c, k) for k in _FED_KEYS}
    return {
        "format": SPEC_FORMAT,
        "name": spec.name,
        "seed": spec.seed,
        "out": spec.out,
        "dataset": dict(spec.dataset),
        "partition": dict(spec.partition),
        "model": {"hidden": list(spec.hidden)},
        # a tuple echoes as a list, so the echo equals its own JSON round trip
        "federated": {
            k: list(v) if isinstance(v, tuple) else v for k, v in fed.items()
        },
        "evaluation": {**asdict(spec.evaluation), "sample_count": c.sample_count},
    }


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


def _align_num_classes(train, test):
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
        return _align_num_classes(train, test)
    if ds["kind"] == "container":
        return _align_num_classes(
            data.load_dataset(ds["train"]), data.load_dataset(ds["test"])
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
    os.makedirs(spec.out, exist_ok=True)
    run = build_run(spec)
    if resume is not None:
        a = {k: v for k, v in resume.spec.items() if k != "out"}
        b = {k: v for k, v in resolved.items() if k != "out"}
        if a != b:
            raise SpecError(
                "checkpoint spec does not match the experiment being resumed"
            )
        run.strategy_state = resume.strategy_state
        run.round_index = resume.round_index
        run.records = list(resume.records)
        for cid, m in resume.retained.items():
            run.clients[cid].retained = m

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
                run, epochs=ev.personalization_epochs, lr=ev.personalization_lr
            )
            personalization = {
                "mean_acc": report.mean_acc,
                "std_acc": report.std_acc,
                "per_client": list(report.per_client),
                "epochs": ev.personalization_epochs,
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
