"""Tests for dataset loading, synthetic generation, and partitioning."""

import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import data, nn
from fedsim.rng import stream


def write_idx_fixture(tmp_path, pixels, labels):
    """pixels: (n, rows, cols) uint8 array; labels: (n,) uint8."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">IIII", data.IDX_IMAGES_MAGIC, n, rows, cols)
        + pixels.tobytes()
    )
    lab_path.write_bytes(
        struct.pack(">II", data.IDX_LABELS_MAGIC, n) + labels.tobytes()
    )
    return str(img_path), str(lab_path)


class TestLabeledDataset:
    def test_accepts_valid(self):
        ds = data.LabeledDataset(
            inputs=np.array([[0.0, 1.0], [0.5, 0.25]]),
            labels=np.array([0, 2]),
            num_classes=3,
        )
        assert len(ds) == 2 and ds.input_dim == 2

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            data.LabeledDataset(np.array([[1.5]]), np.array([0]), 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            data.LabeledDataset(np.array([[np.nan]]), np.array([0]), 1)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="out of range"):
            data.LabeledDataset(np.array([[0.5]]), np.array([3]), 3)


class TestPartitionType:
    def test_rejects_overlap(self):
        a = np.array([0, 1])
        b = np.array([1, 2])
        with pytest.raises(ValueError, match="overlaps"):
            data.Partition((a, b), (a, b), (np.array([], dtype=np.int64),) * 2)

    def test_rejects_empty_client(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(data.PartitionError, match="no data"):
            data.Partition((empty,), (empty,), (empty,))

    def test_rejects_subsplit_mismatch(self):
        idx = np.array([0, 1, 2])
        with pytest.raises(ValueError, match="tile"):
            data.Partition(
                (idx,), (np.array([0, 1]),), (np.array([], dtype=np.int64),)
            )


class TestShardPartition:
    def test_single_client_owns_almost_everything(self):
        labels = np.repeat(np.arange(2), 51)  # 102 samples
        part = data.shard_partition(labels, 1, 10, stream(1, "shard"))
        # shard size floor(102/10) = 10; one client takes all 10 shards
        assert part.num_clients == 1
        assert part.client_indices[0].size == 100

    def test_shard_counts_and_label_bound(self):
        # 10 balanced classes whose sizes are a multiple of the shard size,
        # so every shard is label-pure and each client sees <= s labels
        labels = np.repeat(np.arange(10), 600)
        rng = stream(2, "shard")
        part = data.shard_partition(labels, 100, 5, rng)
        shard_size = 6000 // (100 * 5)  # = 12, divides the class size 600
        assert all(idx.size == 5 * shard_size for idx in part.client_indices)
        for idx in part.client_indices:
            assert np.unique(labels[idx]).size <= 5

    def test_disjoint_and_coverage(self):
        labels = np.repeat(np.arange(4), 53)  # 212 samples, size 212//12=17
        part = data.shard_partition(labels, 4, 3, stream(3, "shard"))
        union = np.concatenate(part.client_indices)
        assert union.size == np.unique(union).size == 4 * 3 * (212 // 12)
        assert union.min() >= 0 and union.max() < 212

    def test_infeasible_raises_with_arithmetic(self):
        with pytest.raises(data.PartitionError, match="floor"):
            data.shard_partition(np.zeros(10, dtype=int), 5, 3, stream(0))

    def test_subsplits_are_ninety_ten(self):
        labels = np.repeat(np.arange(5), 100)
        part = data.shard_partition(labels, 5, 5, stream(4, "shard"))
        for cid in range(5):
            n = part.client_indices[cid].size
            frac = part.test_indices[cid].size / n
            assert 0.05 <= frac <= 0.15

    def test_deterministic_given_seed(self):
        labels = np.repeat(np.arange(4), 50)
        p1 = data.shard_partition(labels, 4, 2, stream(5, "s"))
        p2 = data.shard_partition(labels, 4, 2, stream(5, "s"))
        for a, b in zip(p1.client_indices, p2.client_indices):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(p1.test_indices, p2.test_indices):
            np.testing.assert_array_equal(a, b)


class TestDirichletPartition:
    def test_huge_alpha_is_near_uniform(self):
        labels = np.repeat(np.arange(10), 1000)
        part = data.dirichlet_partition(labels, 10, 1e6, stream(6, "dir"))
        for idx in part.client_indices:
            hist = np.bincount(labels[idx], minlength=10) / idx.size
            tv = 0.5 * np.abs(hist - 0.1).sum()
            assert tv < 0.05, f"total variation {tv}"

    def test_small_alpha_concentrates(self):
        labels = np.repeat(np.arange(10), 500)
        part = data.dirichlet_partition(labels, 10, 0.1, stream(7, "dir"))
        top = max(
            np.bincount(labels[idx], minlength=10).max() / idx.size
            for idx in part.client_indices
        )
        assert top > 0.6, f"max single-class share {top}"

    def test_disjoint_and_complete_coverage(self):
        labels = np.repeat(np.arange(3), 40)
        part = data.dirichlet_partition(labels, 4, 0.5, stream(8, "dir"))
        union = np.sort(np.concatenate(part.client_indices))
        np.testing.assert_array_equal(union, np.arange(120))

    def test_every_client_non_empty(self):
        labels = np.repeat(np.arange(2), 10)
        part = data.dirichlet_partition(labels, 5, 0.05, stream(9, "dir"))
        assert all(idx.size > 0 for idx in part.client_indices)

    def test_rejects_bad_alpha(self):
        with pytest.raises(data.PartitionError, match="alpha"):
            data.dirichlet_partition(np.zeros(10, dtype=int), 2, 0.0, stream(0))


class TestLoadIdx:
    def test_fixture_round_trip(self, tmp_path):
        pixels = np.array(
            [[[0, 51], [102, 153]], [[204, 255], [10, 20]]], dtype=np.uint8
        )
        img, lab = write_idx_fixture(tmp_path, pixels, [3, 1])
        ds = data.load_idx(img, lab)
        np.testing.assert_array_equal(
            ds.inputs,
            np.array([[0, 51, 102, 153], [204, 255, 10, 20]]) / 255.0,
        )
        np.testing.assert_array_equal(ds.labels, [3, 1])
        assert ds.num_classes == 4
        # raw bytes reconstruct exactly after undoing the 1/255 scaling
        recon = np.rint(ds.inputs * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(recon.reshape(2, 2, 2), pixels)

    def test_scaling_has_the_bits_of_the_float_copy_divided(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8)[::-1].reshape(4, 8, 8)
        img, lab = write_idx_fixture(tmp_path, pixels, [0, 1, 2, 3])
        old = pixels.reshape(4, 64).astype(np.float64) / 255.0
        assert data.load_idx(img, lab).inputs.tobytes() == old.tobytes()

    def test_bad_labels_magic(self, tmp_path):
        img, lab = write_idx_fixture(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">II", 0xDEADBEEF, 1) + b"\x00")
        with pytest.raises(data.IdxFormatError, match="bad magic"):
            data.load_idx(img, str(bad))

    def test_truncated_images(self, tmp_path):
        img, lab = write_idx_fixture(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        blob = open(img, "rb").read()
        short = tmp_path / "short.idx"
        short.write_bytes(blob[:-3])
        with pytest.raises(data.IdxFormatError, match="truncated"):
            data.load_idx(str(short), lab)

    def test_huge_declared_sizes_are_truncation_not_allocation(self, tmp_path):
        img, lab = write_idx_fixture(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        big_img = tmp_path / "big-images.idx"
        big_img.write_bytes(
            struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 2**31, 2**15, 2**15)
            + b"\x00" * 64
        )
        big_lab = tmp_path / "big-labels.idx"
        big_lab.write_bytes(
            struct.pack(">II", data.IDX_LABELS_MAGIC, 2**31) + b"\x00" * 8
        )
        for images, labels, cut, what in (
            (str(big_img), lab, big_img, "pixel data"),
            (img, str(big_lab), big_lab, "label data"),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(data.IdxFormatError) as info:
                    data.load_idx(images, labels)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert str(info.value) == f"{cut}: truncated {what}"
            assert peak < 2**20

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_fixture(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        lab3 = tmp_path / "three.idx"
        lab3.write_bytes(
            struct.pack(">II", data.IDX_LABELS_MAGIC, 3) + b"\x00\x01\x00"
        )
        with pytest.raises(data.IdxFormatError, match="!= label count"):
            data.load_idx(img, str(lab3))


def synth(num_clusters, num_classes, dims, per_class, shift, rng, **kw):
    """The train split of synth_train_test (one test row per class)."""
    train, meta, _, _ = data.synth_train_test(
        num_clusters, num_classes, dims, per_class, 1, shift, rng, **kw
    )
    return train, meta


class TestSynthGenerate:
    def test_zero_shift_collapses_clusters(self):
        ds, meta = synth(3, 2, 4, 10, 0.0, stream(10, "z"))
        for k in range(1, 3):
            np.testing.assert_array_equal(meta.raw_means[k], meta.raw_means[0])

    def test_shapes_and_range(self):
        ds, meta = synth(2, 3, 5, 7, 1.0, stream(11, "s"))
        assert len(ds) == 2 * 3 * 7 and ds.input_dim == 5
        assert ds.inputs.min() >= 0 and ds.inputs.max() <= 1
        assert meta.cluster_tags.shape == (len(ds),)
        assert np.bincount(meta.cluster_tags).tolist() == [21, 21]

    def test_class_means_match_configuration(self):
        ds, meta = synth(2, 3, 4, 200, 1.5, stream(12, "m"))
        bound = 4.0 * meta.normalized_noise_sd / np.sqrt(200)
        for k in range(2):
            for c in range(3):
                sel = (meta.cluster_tags == k) & (ds.labels == c)
                got = ds.inputs[sel].mean(axis=0)
                err = np.abs(got - meta.normalized_means[k, c]).max()
                assert err < bound, f"cluster {k} class {c}: {err} >= {bound}"

    def test_cross_cluster_probe_near_chance(self):
        ds, meta = synth(
            2, 4, 6, 60, 6.0, stream(13, "probe"), noise_sd=0.3
        )
        a = meta.cluster_tags == 0
        arch = nn.MlpArch((6, 4))
        params = np.zeros(nn.param_count(arch))
        batch_a = nn.Batch(inputs=ds.inputs[a], labels=ds.labels[a])
        for _ in range(400):
            _, g = nn.loss_and_grad(params, arch, batch_a)
            params = nn.sgd_step(params, g, 0.5)

        def acc(sel):
            b = nn.Batch(inputs=ds.inputs[sel], labels=ds.labels[sel])
            return float(
                (nn.forward(params, arch, b.inputs).argmax(axis=1) == ds.labels[sel]).mean()
            )

        assert acc(a) > 0.9, f"probe underfits its own cluster: {acc(a)}"
        assert acc(~a) < 0.45, f"probe transfers too well: {acc(~a)}"

    def test_deterministic(self):
        d1, m1 = synth(2, 2, 3, 5, 1.0, stream(14, "det"))
        d2, m2 = synth(2, 2, 3, 5, 1.0, stream(14, "det"))
        np.testing.assert_array_equal(d1.inputs, d2.inputs)
        np.testing.assert_array_equal(m1.cluster_tags, m2.cluster_tags)

    @pytest.mark.parametrize("counts,noise_sd,match", [
        ((0, 3, 4, 20, 8), 0.4, "counts"),
        ((2, 3, 4, 20, 0), 0.4, "counts"),
        ((2, 3, 4, 20, 8), 0.0, "noise_sd"),
    ])
    def test_rejects_empty_counts_and_flat_noise(self, counts, noise_sd, match):
        with pytest.raises(ValueError, match=match):
            data.synth_train_test(*counts, 1.0, stream(15, "bad"), noise_sd=noise_sd)

    def test_train_test_share_means(self):
        tr, mtr, te, mte = data.synth_train_test(
            2, 3, 4, 20, 8, 1.0, stream(15, "tt")
        )
        np.testing.assert_array_equal(mtr.raw_means, mte.raw_means)
        assert mtr.offset == mte.offset and mtr.scale == mte.scale
        assert len(tr) == 2 * 3 * 20 and len(te) == 2 * 3 * 8


class TestContainer:
    def test_round_trip(self, tmp_path):
        ds, _ = synth(2, 3, 4, 6, 1.0, stream(16, "rt"))
        path = str(tmp_path / "ds.bin")
        data.save_dataset(path, ds)
        back = data.load_dataset(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(data.IdxFormatError, match="bad magic"):
            data.load_dataset(str(path))

    def test_truncated(self, tmp_path):
        ds, _ = synth(1, 2, 3, 4, 0.5, stream(17, "tr"))
        path = str(tmp_path / "ds.bin")
        data.save_dataset(path, ds)
        blob = open(path, "rb").read()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[:-5])
        with pytest.raises(data.IdxFormatError, match="truncated"):
            data.load_dataset(str(cut))

    def test_short_blocks_name_the_file_and_block(self, tmp_path):
        ds, _ = synth(1, 2, 3, 4, 0.5, stream(17, "tr"))
        path = tmp_path / "ds.bin"
        data.save_dataset(str(path), ds)
        blob = path.read_bytes()
        labels_end = 4 + 16 + 8 * len(ds)
        for keep, what in ((labels_end - 1, "labels"), (len(blob) - 1, "inputs")):
            cut = tmp_path / f"cut-{what}.bin"
            cut.write_bytes(blob[:keep])
            with pytest.raises(data.IdxFormatError) as info:
                data.load_dataset(str(cut))
            assert str(info.value) == f"{cut}: truncated {what}"

    def test_huge_declared_sizes_are_truncation_not_allocation(self, tmp_path):
        # 84 bytes that declare n = 2^31 rows of dim 2^30, then 2 rows of 2^30
        for n, dim, what in ((2**31, 2**30, "labels"), (2, 2**30, "inputs")):
            path = tmp_path / f"lying-{what}.bin"
            path.write_bytes(
                data.CONTAINER_MAGIC
                + struct.pack("<IIII", data.CONTAINER_VERSION, n, dim, 2)
                + b"\x00" * 64
            )
            tracemalloc.start()
            try:
                with pytest.raises(data.IdxFormatError) as info:
                    data.load_dataset(str(path))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert str(info.value) == f"{path}: truncated {what}"
            assert peak < 2**20

    def test_fsyncs_file_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        ds, _ = synth(1, 2, 3, 4, 0.5, stream(17, "tr"))
        path = str(tmp_path / "ds.bin")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                events.append(("fsync-dir", None))
            else:
                events.append(("fsync-file", info.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        data.save_dataset(path, ds)
        size = os.path.getsize(path)
        # the file is synced complete, before the rename; the directory after
        assert events == [("fsync-file", size), ("replace", None), ("fsync-dir", None)]
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["ds.bin"]
        back = data.load_dataset(path)
        assert back.inputs.tobytes() == ds.inputs.tobytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        ds, _ = synth(1, 2, 3, 4, 0.5, stream(17, "tr"))
        path = tmp_path / "ds.bin"
        data.save_dataset(str(path), ds)
        before = path.read_bytes()
        broken = data.LabeledDataset(ds.inputs, ds.labels, ds.num_classes)
        object.__setattr__(broken, "inputs", None)  # fails after the header
        with pytest.raises(AttributeError):
            data.save_dataset(str(path), broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ds.bin"]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds, _ = synth(2, 3, 5, 7, 1.0, stream(18, "rt"))
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        data.save_dataset(str(first), ds)
        back = data.load_dataset(str(first))
        data.save_dataset(str(second), back)
        assert first.read_bytes() == second.read_bytes()
        assert back.inputs.tobytes() == ds.inputs.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()

    def test_loaded_arrays_are_read_only(self, tmp_path):
        ds, _ = synth(1, 2, 3, 4, 0.5, stream(19, "ro"))
        path = str(tmp_path / "ds.bin")
        data.save_dataset(path, ds)
        back = data.load_dataset(path)
        for arr in (back.inputs, back.labels):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_empty_container_round_trips(self, tmp_path):
        ds = data.LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2)
        path = str(tmp_path / "empty.bin")
        data.save_dataset(path, ds)
        back = data.load_dataset(path)
        assert back.inputs.shape == (0, 3) and back.num_classes == 2


# Reference versions of the Partition and LabeledDataset checks: Python sets
# of indices, and np.isfinite over the inputs before the range test. The
# shipped checks must raise the same exception with the same message on
# every input.


def oracle_partition_check(client_indices, train_indices, test_indices):
    k = len(client_indices)
    if not (len(train_indices) == len(test_indices) == k):
        raise ValueError("sub-split lists must match client count")
    seen: set[int] = set()
    for cid in range(k):
        idx = np.asarray(client_indices[cid], dtype=np.int64)
        if idx.size == 0:
            raise data.PartitionError(f"client {cid} received no data")
        if idx.min() < 0:
            raise ValueError(f"client {cid} has a negative index")
        here = set(int(i) for i in idx)
        if len(here) != idx.size or here & seen:
            raise ValueError(f"client {cid} overlaps another client's indices")
        seen |= here
        sub = np.concatenate([train_indices[cid], test_indices[cid]])
        if not np.array_equal(np.sort(sub), np.sort(idx)):
            raise ValueError(f"client {cid} sub-splits do not tile its indices")


def oracle_input_check(inputs):
    if not np.isfinite(inputs).all():
        raise ValueError("inputs contain non-finite values")
    if inputs.size and (inputs.min() < 0.0 or inputs.max() > 1.0):
        raise ValueError("inputs must lie in [0, 1]")


def outcome(check, *args):
    """(exception type, message) raised by check(*args), or None."""
    try:
        check(*args)
    except Exception as e:
        return type(e), str(e)
    return None


CLIENT_FAULTS = ("empty", "negative", "duplicate", "overlap")
SPLIT_FAULTS = ("drop", "extra", "move_value")


@st.composite
def faulty_partitions(draw):
    """A valid partition of range(n) with up to four planted faults."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 30))
    order = draw(st.permutations(range(n)))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    clients = [[i for i, o in zip(order, owner) if o == c] for c in range(k)]
    pick = lambda: draw(st.integers(0, k - 1))
    for fault in draw(st.lists(st.sampled_from(CLIENT_FAULTS), max_size=4)):
        c = pick()
        if fault == "empty":
            clients[c] = []
        elif fault == "negative":
            clients[c].insert(draw(st.integers(0, len(clients[c]))), -draw(st.integers(1, 3)))
        elif fault == "duplicate" and clients[c]:
            clients[c].append(draw(st.sampled_from(clients[c])))
        elif fault == "overlap":
            other = pick()
            if clients[other]:
                clients[c].insert(0, draw(st.sampled_from(clients[other])))
    trains, tests = [], []
    for idx in clients:
        to_test = draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx)))
        trains.append([i for i, t in zip(idx, to_test) if not t])
        tests.append([i for i, t in zip(idx, to_test) if t])
    for fault in draw(st.lists(st.sampled_from(SPLIT_FAULTS), max_size=2)):
        part = draw(st.sampled_from([trains, tests]))[pick()]
        if fault == "drop" and part:
            part.pop(draw(st.integers(0, len(part) - 1)))
        elif fault == "extra":
            part.append(draw(st.integers(-1, n)))
        elif fault == "move_value" and part:
            part[draw(st.integers(0, len(part) - 1))] += 1
    arrays = lambda lists: tuple(np.array(x, dtype=np.int64) for x in lists)
    return arrays(clients), arrays(trains), arrays(tests)


SUBNORMAL = 5e-324  # the least positive float
PIXEL_FAULTS = (np.nan, np.inf, -np.inf, -1e-300, -0.5, 1.0 + 2**-52, 7.0, -0.0, 0.0, 1.0,
                SUBNORMAL, -SUBNORMAL)


@st.composite
def faulty_inputs(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    inputs = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.float64,
    ).reshape(rows, cols)
    if inputs.size:
        for value in draw(st.lists(st.sampled_from(PIXEL_FAULTS), max_size=3)):
            inputs.flat[draw(st.integers(0, inputs.size - 1))] = value
    return inputs


# derandomized so that every run of the suite tries the same cases
ORACLE = settings(derandomize=True, database=None, max_examples=400, deadline=None)


class TestChecksMatchOracles:
    @ORACLE
    @given(faulty_partitions())
    def test_partition_check(self, lists):
        expected = outcome(oracle_partition_check, *lists)
        assert outcome(data.Partition, *lists) == expected

    @ORACLE
    @given(faulty_inputs())
    def test_input_check(self, inputs):
        labels = np.zeros(inputs.shape[0], dtype=np.int64)
        expected = outcome(oracle_input_check, inputs)
        assert outcome(data.LabeledDataset, inputs, labels, 1) == expected

    @pytest.mark.parametrize("value", [
        -0.0, SUBNORMAL, -SUBNORMAL, np.nextafter(1.0, 2.0), 1.0, np.nan, -np.nan,
        np.inf, -np.inf,
    ])
    def test_input_check_at_the_edges_of_the_range(self, value):
        for inputs in (np.array([[value]]), np.array([[0.25, value], [1.0, 0.0]])):
            labels = np.zeros(inputs.shape[0], dtype=np.int64)
            expected = outcome(oracle_input_check, inputs)
            assert outcome(data.LabeledDataset, inputs, labels, 1) == expected

    @pytest.mark.parametrize("clients,named", [
        # the lowest client holding a repeat is named, wherever the first copy is
        (([3, 4], [5, 6], [4, 7], [5]), 2),
        (([3, 4], [5, 5], [3]), 1),
        (([9, 8, 9], [8]), 0),
        (([1], [2, 3], [3, 1]), 2),
    ])
    def test_overlap_names_lowest_repeating_client(self, clients, named):
        lists = tuple(np.array(c, dtype=np.int64) for c in clients)
        empty = tuple(np.array([], dtype=np.int64) for _ in clients)
        message = f"client {named} overlaps another client's indices"
        assert outcome(oracle_partition_check, lists, lists, empty) == (ValueError, message)
        assert outcome(data.Partition, lists, lists, empty) == (ValueError, message)


def test_validating_inputs_allocates_no_temporary():
    # the isfinite check this replaced made a bool array of 1/8 the bytes
    rng = np.random.default_rng(0)
    inputs = rng.random((6000, 784))
    labels = rng.integers(0, 10, size=6000)
    tracemalloc.start()
    try:
        ds = data.LabeledDataset(inputs, labels, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.inputs is inputs
    assert peak <= 0.05 * inputs.nbytes, f"peak {peak} of {inputs.nbytes} input bytes"
