"""Tests for dataset loading, synthetic generation, and partitioning."""

import struct

import numpy as np
import pytest

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
                (nn.forward(params, arch, b).argmax(axis=1) == ds.labels[sel]).mean()
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
