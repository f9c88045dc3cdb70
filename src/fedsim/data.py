"""Dataset ingestion, synthetic generation, and non-iid partitioning.

Provides the IDX image-file reader, a clustered Gaussian-blob generator for
desk-scale heterogeneous experiments, the two client partitioners (label
shards and Dirichlet proportions) with per-client train/test sub-splits, and
a small binary container for reproducible dataset snapshots.

Setup reads and checks each dataset once: both loaders check a block's
declared size against the file before allocating it, the container loader
reads every block straight into its array, `LabeledDataset` validates the
inputs with one min and one max pass, and `Partition` checks client overlap
with one sort of all the clients' indices.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CONTAINER_MAGIC = b"FSDS"
CONTAINER_VERSION = 1


class IdxFormatError(ValueError):
    """Malformed IDX file: bad magic, truncation, or count mismatch."""


class PartitionError(ValueError):
    """Partitioning configuration that cannot be satisfied."""


@dataclass(frozen=True)
class LabeledDataset:
    inputs: np.ndarray  # (n, dim) float64, values in [0, 1]
    labels: np.ndarray  # (n,) integer class indices
    num_classes: int

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d, got shape {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} incompatible with {inputs.shape}"
            )
        # NaN propagates through min and max and +-inf lies outside [0, 1],
        # so the range test rejects both without a temporary; isfinite only
        # picks the message
        if inputs.size and not (inputs.min() >= 0.0 and inputs.max() <= 1.0):
            if not np.isfinite(inputs).all():
                raise ValueError("inputs contain non-finite values")
            raise ValueError("inputs must lie in [0, 1]")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels out of range [0, {self.num_classes}): "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class Partition:
    """Per-client index lists into one dataset, with 90/10 sub-splits."""

    client_indices: tuple[np.ndarray, ...]
    train_indices: tuple[np.ndarray, ...]
    test_indices: tuple[np.ndarray, ...]

    def __post_init__(self):
        k = len(self.client_indices)
        if not (len(self.train_indices) == len(self.test_indices) == k):
            raise ValueError("sub-split lists must match client count")
        clients = [np.asarray(idx, dtype=np.int64) for idx in self.client_indices]
        overlapping = _first_repeat_owner(clients)
        for cid, idx in enumerate(clients):
            if idx.size == 0:
                raise PartitionError(f"client {cid} received no data")
            if idx.min() < 0:
                raise ValueError(f"client {cid} has a negative index")
            if cid == overlapping:
                raise ValueError(f"client {cid} overlaps another client's indices")
            sub = np.concatenate(
                [self.train_indices[cid], self.test_indices[cid]]
            )
            if not np.array_equal(np.sort(sub), np.sort(idx)):
                raise ValueError(f"client {cid} sub-splits do not tile its indices")

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)


def _first_repeat_owner(clients: list[np.ndarray]) -> int | None:
    """The lowest client holding an index that it or a lower client already holds.

    A stable sort of the concatenated lists keeps equal indices in client
    order, so every occurrence after a value's first is a repeat, owned by
    a client at or above the first owner.
    """
    if not clients:
        return None
    flat = np.concatenate(clients)
    owner = np.repeat(np.arange(len(clients)), [idx.size for idx in clients])
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    repeats = owner[order[1:][ordered[1:] == ordered[:-1]]]
    return int(repeats.min()) if repeats.size else None


def _stratified_split(
    indices: np.ndarray, labels: np.ndarray, rng: np.random.Generator,
    test_frac: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-label 90/10 split; labels with a single sample go entirely to train."""
    train_parts, test_parts = [], []
    local = labels[indices]
    for lab in np.unique(local):
        group = indices[local == lab]
        if group.size < 2:
            train_parts.append(group)
            continue
        shuffled = rng.permutation(group)
        n_test = max(1, int(round(test_frac * group.size)))
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    train = np.sort(np.concatenate(train_parts)) if train_parts else np.array([], dtype=np.int64)
    test = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    return train, test


def _finish_partition(
    per_client: list[np.ndarray], labels: np.ndarray, rng: np.random.Generator
) -> Partition:
    trains, tests = [], []
    for idx in per_client:
        tr, te = _stratified_split(idx, labels, rng)
        trains.append(tr)
        tests.append(te)
    return Partition(
        client_indices=tuple(per_client),
        train_indices=tuple(trains),
        test_indices=tuple(tests),
    )


def shard_partition(
    labels: np.ndarray, n_clients: int, shards_per_client: int,
    rng: np.random.Generator,
) -> Partition:
    """Label-sorted contiguous shards, s random shards per client.

    Shard size is floor(n / (N*s)); the leftover tail after equal division is
    dropped so every shard has exactly the same size.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n_clients < 1 or shards_per_client < 1:
        raise PartitionError(
            f"need n_clients >= 1 and shards_per_client >= 1, got "
            f"({n_clients}, {shards_per_client})"
        )
    needed = n_clients * shards_per_client
    shard_size = n // needed
    if shard_size < 1:
        raise PartitionError(
            f"{n} samples cannot fill {n_clients} clients x {shards_per_client} "
            f"shards: shard size floor({n}/{needed}) = 0"
        )
    order = np.argsort(labels, kind="stable")
    num_shards = n // shard_size
    chosen = rng.permutation(num_shards)[:needed]
    per_client = []
    for c in range(n_clients):
        mine = chosen[c * shards_per_client : (c + 1) * shards_per_client]
        idx = np.concatenate(
            [order[s * shard_size : (s + 1) * shard_size] for s in mine]
        )
        per_client.append(np.sort(idx))
    return _finish_partition(per_client, labels, rng)


def dirichlet_partition(
    labels: np.ndarray, n_clients: int, alpha: float,
    rng: np.random.Generator, max_retries: int = 1000,
) -> Partition:
    """Per-class Dirichlet(alpha) proportions; redraws until no client is empty."""
    labels = np.asarray(labels)
    if n_clients < 1:
        raise PartitionError(f"need n_clients >= 1, got {n_clients}")
    if alpha <= 0:
        raise PartitionError(f"alpha must be positive, got {alpha}")
    if labels.shape[0] < n_clients:
        raise PartitionError(
            f"{labels.shape[0]} samples cannot cover {n_clients} clients"
        )
    classes = np.unique(labels)
    for _ in range(max_retries):
        per_client: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for lab in classes:
            idx = rng.permutation(np.flatnonzero(labels == lab))
            props = rng.dirichlet(np.full(n_clients, alpha))
            cuts = (np.cumsum(props)[:-1] * idx.size).astype(np.int64)
            for cid, part in enumerate(np.split(idx, cuts)):
                per_client[cid].append(part)
        merged = [
            np.sort(np.concatenate(parts)) if parts else np.array([], dtype=np.int64)
            for parts in per_client
        ]
        if all(m.size > 0 for m in merged):
            return _finish_partition(merged, labels, rng)
    raise PartitionError(
        f"could not produce a non-empty split for all {n_clients} clients "
        f"within {max_retries} redraws (alpha={alpha})"
    )


def _check_remaining(f, count: int, path: str, what: str) -> None:
    """Fail before anything is allocated if a regular file is too short.

    Header sizes are untrusted: a short file that declares a huge block
    would otherwise ask for that much memory first.
    """
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode) and count > st.st_size - f.tell():
        raise IdxFormatError(f"{path}: truncated {what}")


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    _check_remaining(f, count, path, what)
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(f"{path}: truncated {what}")
    return data


def _read_array(
    f, shape: tuple[int, ...], dtype: str, path: str, what: str
) -> np.ndarray:
    """Read the next block straight into a fresh read-only array.

    There is no intermediate bytes object. numpy asks for huge pages for a
    large allocation, so filling it takes far fewer page faults too.
    """
    _check_remaining(f, math.prod(shape) * np.dtype(dtype).itemsize, path, what)
    out = np.empty(shape, dtype=dtype)
    if f.readinto(out) != out.nbytes:
        raise IdxFormatError(f"{path}: truncated {what}")
    out.flags.writeable = False
    return out


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Read big-endian IDX image/label files, scaling pixels by 1/255."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, images_path, "header")
        )
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, "
                f"expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        raw = _read_exact(f, count * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(
            ">II", _read_exact(f, 8, labels_path, "header")
        )
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, "
                f"expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        label_raw = _read_exact(f, label_count, labels_path, "label data")
    if count != label_count:
        raise IdxFormatError(
            f"image count {count} != label count {label_count} "
            f"({images_path} vs {labels_path})"
        )
    inputs = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return LabeledDataset(
        inputs=inputs.astype(np.float64) / 255.0,
        labels=labels,
        num_classes=int(labels.max()) + 1 if labels.size else 1,
    )


@dataclass(frozen=True)
class SynthMeta:
    """Generation record: cluster tags plus the exact blob geometry.

    Normalization is x -> (x + offset) / scale, so the class-conditional
    means of the normalized data are (raw_means + offset) / scale and the
    per-coordinate noise is noise_sd / scale.
    """

    cluster_tags: np.ndarray  # (n,) cluster id per sample
    raw_means: np.ndarray  # (clusters, classes, dims)
    offset: float
    scale: float
    noise_sd: float

    @property
    def normalized_means(self) -> np.ndarray:
        return (self.raw_means + self.offset) / self.scale

    @property
    def normalized_noise_sd(self) -> float:
        return self.noise_sd / self.scale


def _synth_means(
    num_clusters: int, num_classes: int, dims: int, shift_scale: float,
    rng: np.random.Generator, class_scale: float,
) -> np.ndarray:
    class_means = rng.normal(size=(num_classes, dims)) * class_scale
    offsets = rng.normal(size=(num_clusters, dims)) * shift_scale
    return offsets[:, None, :] + class_means[None, :, :]


def _synth_draw(
    raw_means: np.ndarray, per_class: int, noise_sd: float,
    rng: np.random.Generator, offset: float, scale: float, num_classes: int,
) -> tuple[LabeledDataset, np.ndarray]:
    num_clusters = raw_means.shape[0]
    xs, ys, tags = [], [], []
    for k in range(num_clusters):
        for c in range(num_classes):
            raw = raw_means[k, c] + noise_sd * rng.normal(
                size=(per_class, raw_means.shape[2])
            )
            xs.append(raw)
            ys.append(np.full(per_class, c, dtype=np.int64))
            tags.append(np.full(per_class, k, dtype=np.int64))
    inputs = np.clip((np.vstack(xs) + offset) / scale, 0.0, 1.0)
    ds = LabeledDataset(
        inputs=inputs, labels=np.concatenate(ys), num_classes=num_classes
    )
    return ds, np.concatenate(tags)


def synth_train_test(
    num_clusters: int, num_classes: int, dims: int, per_class_train: int,
    per_class_test: int, shift_scale: float, rng: np.random.Generator,
    class_scale: float = 1.0, noise_sd: float = 0.4,
) -> tuple[LabeledDataset, SynthMeta, LabeledDataset, SynthMeta]:
    """Gaussian class blobs with a per-cluster covariate shift, squashed to [0,1].

    Every cluster contains per_class_train train and per_class_test test
    samples of each class, whose mean is the class mean plus the cluster's
    offset; both splits share one set of means. The affine squash is chosen
    from the realized means so clipping is a >6 sigma event.
    """
    if min(num_clusters, num_classes, dims, per_class_train, per_class_test) < 1:
        raise ValueError("all synth_train_test counts must be >= 1")
    if noise_sd <= 0:
        raise ValueError(f"noise_sd must be positive, got {noise_sd}")
    raw_means = _synth_means(
        num_clusters, num_classes, dims, shift_scale, rng, class_scale
    )
    offset = float(np.abs(raw_means).max() + 6.0 * noise_sd)
    scale = 2.0 * offset
    train, train_tags = _synth_draw(
        raw_means, per_class_train, noise_sd, rng, offset, scale, num_classes
    )
    test, test_tags = _synth_draw(
        raw_means, per_class_test, noise_sd, rng, offset, scale, num_classes
    )
    make = lambda tags: SynthMeta(
        cluster_tags=tags, raw_means=raw_means, offset=offset, scale=scale,
        noise_sd=noise_sd,
    )
    return train, make(train_tags), test, make(test_tags)


def save_dataset(path: str, ds: LabeledDataset) -> None:
    """Binary container: magic, version, dims, little-endian labels + floats."""
    with open(path, "wb") as f:
        f.write(CONTAINER_MAGIC)
        f.write(
            struct.pack(
                "<IIII", CONTAINER_VERSION, len(ds), ds.input_dim, ds.num_classes
            )
        )
        f.write(ds.labels.astype("<i8").tobytes())
        f.write(ds.inputs.astype("<f8").tobytes())


def load_dataset(path: str) -> LabeledDataset:
    """Read a save_dataset container; its labels and inputs are read-only."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path, "magic")
        if magic != CONTAINER_MAGIC:
            raise IdxFormatError(f"{path}: bad magic {magic!r}")
        version, n, dim, num_classes = struct.unpack(
            "<IIII", _read_exact(f, 16, path, "header")
        )
        if version != CONTAINER_VERSION:
            raise IdxFormatError(f"{path}: unsupported version {version}")
        labels = _read_array(f, (n,), "<i8", path, "labels")
        inputs = _read_array(f, (n, dim), "<f8", path, "inputs")
    return LabeledDataset(inputs=inputs, labels=labels, num_classes=num_classes)
