"""Spec parsing, experiment execution, and artifact contracts."""

import json
import os

import numpy as np
import pytest

from fedsim import data, experiment
from fedsim.runtime import ConfigError
from fedsim.experiment import (
    SpecError,
    build_id,
    parse_spec,
    parse_spec_dict,
    partition_report,
    resolved_spec,
    run_experiment,
)


def tiny_spec_obj(**over):
    obj = {
        "name": "tiny",
        "seed": 5,
        "dataset": {
            "kind": "synthetic", "clusters": 2, "classes": 3, "dims": 6,
            "train_per_class": 40, "test_per_class": 10, "shift": 1.0,
        },
        "partition": {"kind": "shard", "shards_per_client": 2},
        "model": {"hidden": [8]},
        "federated": {"n_clients": 4, "rounds": 4, "batch_size": 20},
        "evaluation": {},
    }
    for k, v in over.items():
        if k in ("federated", "evaluation", "model") and isinstance(v, dict):
            obj[k] = {**obj[k], **v}
        else:
            obj[k] = v
    return obj


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestParseSpec:
    def test_minimal_spec_gets_protocol_defaults(self):
        spec = parse_spec_dict({
            "dataset": {
                "kind": "synthetic", "clusters": 1, "classes": 2, "dims": 2,
                "train_per_class": 5, "test_per_class": 2, "shift": 0.5,
            },
            "partition": {"kind": "shard", "shards_per_client": 1},
        })
        c = spec.config
        assert c.p_keep == 1.0 - 0.001
        assert c.epsilon == 1e-4
        assert c.sigma_sq == 0.1
        assert c.k_prototypes == 2
        assert c.mu_prox == 0.01
        assert c.lr == 0.1
        assert c.batch_size == 50
        assert c.n_clients == 100
        assert c.rounds == 320
        assert c.sample_count == 10
        assert spec.hidden == (256,)
        assert spec.seed == 0
        assert spec.out == os.path.join("runs", "experiment")
        assert spec.evaluation.personalization_epochs == 5

    def test_zero_participation_rejected(self):
        with pytest.raises(SpecError, match="N_f must be >= 1"):
            parse_spec_dict(tiny_spec_obj(federated={"participation": 0.1}))

    def test_unknown_strategy_lists_valid_names(self):
        with pytest.raises(SpecError) as e:
            parse_spec_dict(tiny_spec_obj(federated={"strategy": "sgd"}))
        msg = str(e.value)
        for name in ("fedavg", "fedprox", "fedbabu", "niw", "mixture"):
            assert name in msg

    @pytest.mark.parametrize("mutate,path_fragment", [
        ({"bogus": 1}, "spec.bogus"),
        ({"dataset": {"kind": "synthetic", "foo": 2}}, "dataset.foo"),
        ({"partition": {"kind": "shard", "shards_per_client": 1, "alpha": 1.0}},
         "partition.alpha"),
        ({"federated": {"learning_rate": 0.1}}, "federated.learning_rate"),
        ({"evaluation": {"epochs": 3}}, "evaluation.epochs"),
    ])
    def test_unknown_keys_rejected_with_field_path(self, mutate, path_fragment):
        with pytest.raises(SpecError, match=path_fragment.replace(".", r"\.")):
            parse_spec_dict(tiny_spec_obj(**mutate))

    def test_missing_required_dataset_field(self):
        obj = tiny_spec_obj()
        del obj["dataset"]["shift"]
        with pytest.raises(SpecError, match="dataset.shift"):
            parse_spec_dict(obj)

    def test_bad_dataset_kind(self):
        with pytest.raises(SpecError, match="dataset.kind"):
            parse_spec_dict(tiny_spec_obj(dataset={"kind": "csv"}))

    def test_idx_dir_and_explicit_paths_conflict(self):
        obj = tiny_spec_obj(dataset={
            "kind": "idx", "dir": "/d", "train_images": "/x",
        })
        with pytest.raises(SpecError, match="either dir or explicit"):
            parse_spec_dict(obj)

    def test_idx_dir_fills_conventional_names(self):
        spec = parse_spec_dict(tiny_spec_obj(dataset={"kind": "idx", "dir": "/d"}))
        assert spec.dataset["train_images"] == "/d/train-images-idx3-ubyte"
        assert spec.dataset["test_labels"] == "/d/t10k-labels-idx1-ubyte"

    def test_type_errors_carry_paths(self):
        with pytest.raises(SpecError, match="federated.rounds"):
            parse_spec_dict(tiny_spec_obj(federated={"rounds": "ten"}))
        with pytest.raises(SpecError, match="expected float, got bool"):
            parse_spec_dict(tiny_spec_obj(federated={"lr": True}))

    def test_dirichlet_partition_parses(self):
        spec = parse_spec_dict(
            tiny_spec_obj(partition={"kind": "dirichlet", "alpha": 0.5})
        )
        assert spec.partition == {"kind": "dirichlet", "alpha": 0.5}

    def test_flat_synthetic_noise_rejected(self):
        obj = tiny_spec_obj()
        obj["dataset"]["noise_sd"] = 0.0
        with pytest.raises(SpecError, match=r"dataset\.noise_sd: must be > 0"):
            parse_spec_dict(obj)

    def test_bad_alpha_rejected(self):
        with pytest.raises(SpecError, match="partition.alpha"):
            parse_spec_dict(
                tiny_spec_obj(partition={"kind": "dirichlet", "alpha": 0.0})
            )

    @pytest.mark.parametrize("key,value", [
        ("mu_prox", -5.0),
        ("p_keep", 0.0),
        ("p_keep", -0.1),
        ("p_keep", 1.5),
        ("epsilon", 0.0),
        ("epsilon", -1e-4),
        ("sigma_sq", 0.0),
        ("sigma_sq", -0.1),
        ("lr", 0.0),
        ("lr", -0.1),
        ("lr_decay", 0.0),
        ("lr_decay", -1.0),
        ("theory_lbar", -0.5),
    ])
    def test_out_of_range_federated_values_rejected(self, key, value):
        with pytest.raises(SpecError, match=f"^federated: {key} ") as info:
            parse_spec_dict(tiny_spec_obj(federated={key: value}))
        assert isinstance(info.value.__cause__, ConfigError)

    @pytest.mark.parametrize("key", [
        "strategy", "lr_schedule", "mixture_client_init", "warm_start",
        "penalty_mode",
    ])
    def test_unknown_choice_rejected_at_parse_time(self, key):
        with pytest.raises(SpecError, match=f"^federated: unknown {key} 'bogus'"):
            parse_spec_dict(tiny_spec_obj(federated={key: "bogus"}))

    def test_fedbabu_forces_body_update(self):
        spec = parse_spec_dict(tiny_spec_obj(federated={"strategy": "fedbabu"}))
        assert spec.config.body_update is True

    def test_resolved_spec_round_trips(self):
        spec = parse_spec_dict(tiny_spec_obj())
        res = resolved_spec(spec)
        again = resolved_spec(parse_spec_dict(res))
        assert res == again
        # and through a JSON round trip too
        assert res == resolved_spec(parse_spec_dict(json.loads(json.dumps(res))))

    def test_resolved_spec_has_no_unset_fields(self):
        res = resolved_spec(parse_spec_dict(tiny_spec_obj()))
        assert res["federated"]["rounds"] == 4
        assert res["federated"]["lr_milestones"] == [2]
        assert res["evaluation"]["sample_count"] == 10
        assert res["model"]["hidden"] == [8]

    def test_file_overrides(self, tmp_path):
        path = write_spec(tmp_path, tiny_spec_obj())
        spec = parse_spec(path, seed=9, out="elsewhere", rounds=7,
                          strategy="fedprox")
        assert spec.seed == 9 and spec.config.seed == 9
        assert spec.out == "elsewhere"
        assert spec.config.rounds == 7
        assert spec.config.strategy == "fedprox"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            parse_spec(str(path))

    def test_build_id_ignores_out_dir(self):
        a = resolved_spec(parse_spec_dict(tiny_spec_obj(out="a")))
        b = resolved_spec(parse_spec_dict(tiny_spec_obj(out="b")))
        c = resolved_spec(parse_spec_dict(tiny_spec_obj(seed=77)))
        assert build_id(a) == build_id(b)
        assert build_id(a) != build_id(c)

    def test_shipped_spec_build_ids_are_stable(self):
        # checkpoints record the build id; resume compatibility of runs of
        # the shipped specs depends on it never changing
        spec_dir = os.path.join(os.path.dirname(__file__), os.pardir, "specs")
        ids = {
            name: build_id(resolved_spec(parse_spec(os.path.join(spec_dir, name))))
            for name in sorted(os.listdir(spec_dir))
        }
        assert ids == {
            "mnist_fedavg.json": "6d0eba81b733",
            "mnist_fedbabu.json": "ecaaa79ea343",
            "mnist_fedprox.json": "9c877fabc592",
            "mnist_mixture.json": "a7baa61d7423",
            "mnist_niw.json": "1fafbf51c10d",
            "quickstart.json": "98936d4ea615",
            "synth_convergence.json": "49a286cd56c3",
            "synth_niw.json": "546f2648a4be",
        }


class TestRunExperiment:
    def run_tiny(self, tmp_path, sub, **over):
        obj = tiny_spec_obj(out=str(tmp_path / sub), **over)
        spec = parse_spec_dict(obj)
        summary = run_experiment(spec)
        return spec, summary

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        s1, _ = self.run_tiny(tmp_path, "a")
        s2, _ = self.run_tiny(tmp_path, "b")
        m1 = open(os.path.join(s1.out, "metrics.csv"), "rb").read()
        m2 = open(os.path.join(s2.out, "metrics.csv"), "rb").read()
        assert m1 == m2
        assert len(m1.splitlines()) == 2 + 4  # header lines + one per round

    def test_different_seed_changes_metrics(self, tmp_path):
        s1, _ = self.run_tiny(tmp_path, "a")
        s2, _ = self.run_tiny(tmp_path, "b", seed=6)
        m1 = open(os.path.join(s1.out, "metrics.csv"), "rb").read()
        m2 = open(os.path.join(s2.out, "metrics.csv"), "rb").read()
        assert m1 != m2

    def test_metrics_rows_round_trip_to_float64(self, tmp_path):
        spec, _ = self.run_tiny(tmp_path, "a")
        run = experiment.build_run(spec)
        # replay the run in memory to get the exact record values
        from fedsim import runtime
        while run.round_index <= spec.config.rounds:
            runtime.run_round(run, evaluate=True)
        lines = open(os.path.join(spec.out, "metrics.csv")).read().splitlines()
        assert lines[0] == "# fedsim metrics v1"
        assert lines[1] == "round,global_acc,mean_client_loss,server_objective"
        for line, rec in zip(lines[2:], run.records):
            r, acc, loss, obj = line.split(",")
            assert int(r) == rec.round_index
            assert float(acc) == rec.global_acc
            assert float(loss) == rec.mean_client_loss
            assert float(obj) == rec.server_objective

    def test_zero_rounds_degenerate(self, tmp_path):
        spec, summary = self.run_tiny(tmp_path, "a", federated={"rounds": 0})
        lines = open(os.path.join(spec.out, "metrics.csv")).read().splitlines()
        assert len(lines) == 2  # header only
        assert summary["rounds_completed"] == 0
        assert 0.0 <= summary["final_global_acc"] <= 1.0
        assert summary["convergence"] is None
        assert os.path.exists(os.path.join(spec.out, "checkpoint_round00000.bin"))

    def test_summary_contents(self, tmp_path):
        spec, summary = self.run_tiny(tmp_path, "a")
        assert summary["format"] == "fedsim-summary/v1"
        assert summary["rounds_completed"] == 4
        assert summary["spec"] == resolved_spec(spec)
        assert summary["build_id"] == build_id(resolved_spec(spec))
        p = summary["personalization"]
        assert 0.0 <= p["mean_acc"] <= 1.0 and p["std_acc"] >= 0.0
        assert len(p["per_client"]) == 4
        assert "total_s" in summary["timing"]
        on_disk = json.load(open(os.path.join(spec.out, "summary.json")))
        assert on_disk == summary

    def test_eval_every_carries_accuracy(self, tmp_path):
        spec, _ = self.run_tiny(tmp_path, "a", evaluation={"eval_every": 3},
                                federated={"rounds": 4})
        lines = open(os.path.join(spec.out, "metrics.csv")).read().splitlines()
        accs = [float(l.split(",")[1]) for l in lines[2:]]
        assert accs[1] == accs[0]  # round 2 carries round 1? no: round 1 carries 0
        # rounds evaluated: 3 (multiple of 3) and 4 (final); 1 and 2 carry 0.0
        assert accs[0] == 0.0 and accs[1] == 0.0
        assert accs[2] != 0.0 or accs[3] != 0.0

    def test_personalize_disabled(self, tmp_path):
        _, summary = self.run_tiny(tmp_path, "a", evaluation={"personalize": False})
        assert summary["personalization"] is None

    def test_container_dataset_kind(self, tmp_path):
        rng = np.random.default_rng(0)
        train, _, test, _ = data.synth_train_test(1, 3, 4, 30, 8, 0.5, rng)
        tr_path = str(tmp_path / "train.bin")
        te_path = str(tmp_path / "test.bin")
        data.save_dataset(tr_path, train)
        data.save_dataset(te_path, test)
        obj = tiny_spec_obj(
            out=str(tmp_path / "out"),
            dataset={"kind": "container", "train": tr_path, "test": te_path},
            partition={"kind": "shard", "shards_per_client": 1},
            federated={"n_clients": 3, "rounds": 2, "batch_size": 10},
        )
        summary = run_experiment(parse_spec_dict(obj))
        assert summary["rounds_completed"] == 2

    def test_idx_dataset_kind(self, tmp_path):
        rng = np.random.default_rng(1)

        def write_idx(n, tag):
            import struct
            imgs = rng.integers(0, 256, size=(n, 4, 3), dtype=np.uint8)
            labels = rng.integers(0, 3, size=n, dtype=np.uint8)
            ip = tmp_path / f"{tag}-images"
            lp = tmp_path / f"{tag}-labels"
            ip.write_bytes(struct.pack(">IIII", 0x803, n, 4, 3) + imgs.tobytes())
            lp.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
            return str(ip), str(lp)

        tri, trl = write_idx(60, "train")
        tei, tel = write_idx(20, "test")
        obj = tiny_spec_obj(
            out=str(tmp_path / "out"),
            dataset={"kind": "idx", "train_images": tri, "train_labels": trl,
                     "test_images": tei, "test_labels": tel},
            partition={"kind": "dirichlet", "alpha": 100.0},
            federated={"n_clients": 2, "rounds": 2, "batch_size": 10},
        )
        summary = run_experiment(parse_spec_dict(obj))
        assert summary["rounds_completed"] == 2

    def test_convergence_block_after_enough_rounds(self, tmp_path):
        _, summary = self.run_tiny(
            tmp_path, "a", federated={"rounds": 12},
            evaluation={"eval_every": 12},
        )
        conv = summary["convergence"]
        assert conv is not None and conv["burn_in"] == 0
        assert set(conv) >= {"c", "offset", "residual", "monotone_running_average"}


class TestPartitionReport:
    def test_report_structure(self):
        spec = parse_spec_dict(tiny_spec_obj())
        text = partition_report(spec)
        lines = text.splitlines()
        assert lines[0] == "# fedsim partition report v1"
        client_lines = [l for l in lines if l.startswith("client ")]
        assert len(client_lines) == 4
        # label histogram counts add up to the train size on each line
        for line in client_lines:
            head, hist = line.split(" | ")
            train_n = int(head.split("train=")[1].split()[0])
            counts = sum(int(tok.split(":")[1]) for tok in hist.split())
            assert counts == train_n
        assert lines[-1].startswith("totals: train=")

    def test_report_deterministic(self):
        spec = parse_spec_dict(tiny_spec_obj())
        assert partition_report(spec) == partition_report(spec)
