"""Checkpoint format round trips and resume bit-equality."""

import json
import os
import struct

import numpy as np
import pytest

from fedsim import checkpoint, experiment, mixture, niw, nn, runtime
from fedsim.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tests.test_experiment import tiny_spec_obj


def build_tiny_run(tmp_path, sub="out", **over):
    obj = tiny_spec_obj(out=str(tmp_path / sub), **over)
    spec = experiment.parse_spec_dict(obj)
    return spec, experiment.build_run(spec)


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "fedbabu",
                                          "niw", "mixture"])
    def test_state_round_trip(self, tmp_path, strategy):
        spec, run = build_tiny_run(tmp_path, federated={"strategy": strategy})
        runtime.run_round(run, evaluate=False)
        path = str(tmp_path / "ck.bin")
        resolved = experiment.resolved_spec(spec)
        save_checkpoint(path, run, resolved)
        ck = load_checkpoint(path)
        assert ck.spec == resolved
        assert ck.round_index == 2
        assert len(ck.records) == 1
        rec = ck.records[0]
        assert rec.round_index == run.records[0].round_index
        assert rec.global_acc == run.records[0].global_acc
        assert rec.mean_client_loss == run.records[0].mean_client_loss
        assert rec.server_objective == run.records[0].server_objective
        a, b = ck.strategy_state, run.strategy_state
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
        elif isinstance(b, niw.NiwGlobalPosterior):
            assert np.array_equal(a.m0, b.m0)
            assert np.array_equal(a.v0_diag, b.v0_diag)
            assert (a.l0, a.n0, a.d) == (b.l0, b.n0, b.d)
        else:
            assert isinstance(b, mixture.MixtureGlobalPosterior)
            assert len(a.prototypes) == len(b.prototypes)
            for x, y in zip(a.prototypes, b.prototypes):
                assert np.array_equal(x, y)
            assert np.array_equal(a.gating, b.gating)
            assert a.gating_arch.layer_sizes == b.gating_arch.layer_sizes
            assert (a.sigma_sq, a.epsilon) == (b.sigma_sq, b.epsilon)

    def test_retained_client_states_round_trip(self, tmp_path):
        spec, run = build_tiny_run(
            tmp_path,
            federated={"strategy": "mixture", "mixture_client_init": "retained"},
        )
        runtime.run_round(run, evaluate=False)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        ck = load_checkpoint(path)
        stored = {c.client_id: c.retained for c in run.clients
                  if c.retained is not None}
        assert set(ck.retained) == set(stored)
        for cid, arr in stored.items():
            assert np.array_equal(ck.retained[cid], arr)

    def test_empty_run_round_trip(self, tmp_path):
        spec, run = build_tiny_run(tmp_path)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        ck = load_checkpoint(path)
        assert ck.round_index == 1 and ck.records == []


class TestMalformed:
    def make_valid(self, tmp_path):
        spec, run = build_tiny_run(tmp_path)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_valid(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(bad))

    def test_bad_version(self, tmp_path):
        path = self.make_valid(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(str(bad))

    def test_truncated(self, tmp_path):
        path = self.make_valid(tmp_path)
        blob = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(bad))

    def test_missing_section(self, tmp_path):
        path = self.make_valid(tmp_path)
        blob = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        # keep only the file header; every named section is then missing
        bad.write_bytes(blob[:8])
        with pytest.raises(CheckpointError, match="missing section"):
            load_checkpoint(str(bad))


    def rewrite(self, tmp_path, edit, strategy="fedavg"):
        """A valid checkpoint with edit(sections) applied, written back out."""
        spec, run = build_tiny_run(tmp_path, federated={"strategy": strategy})
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        with open(path, "rb") as f:
            sections = checkpoint._read_sections(f, path)
        edit(sections)
        bad = tmp_path / "bad.bin"
        with open(bad, "wb") as f:
            f.write(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION))
            for name, payload in sections.items():
                nb = name if isinstance(name, bytes) else name.encode("ascii")
                f.write(struct.pack("<I", len(nb)) + nb)
                f.write(struct.pack("<Q", len(payload)) + payload)
        return str(bad)

    @staticmethod
    def drop_field(section, key, index=None):
        def edit(sections):
            obj = json.loads(sections[section])
            target = obj if index is None else obj[index]
            del target[key]
            sections[section] = json.dumps(obj).encode()
        return edit

    @pytest.mark.parametrize("section,key,index,strategy", [
        ("meta", "round_index", None, "fedavg"),
        ("records", "global_acc", 0, "fedavg"),
        ("state", "l0", None, "niw"),
        ("state", "gating_layers", None, "mixture"),
        ("retained", "client_ids", None, "fedavg"),
    ])
    def test_missing_field_names_file(self, tmp_path, section, key, index, strategy):
        def add_record(sections):
            rec = {"round_index": 1, "participants": [0], "global_acc": 0.5,
                   "mean_client_loss": 1.0, "server_objective": 1.0,
                   "wall_ms": 1.0}
            sections["records"] = json.dumps([rec]).encode()
            self.drop_field(section, key, index)(sections)

        bad = self.rewrite(tmp_path, add_record, strategy)
        with pytest.raises(CheckpointError, match=key) as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("section,payload", [
        ("meta", b"[]"),
        ("records", b"[1]"),
        ("state", b'{"kind": "niw", "l0": "x", "n0": 1, "d": 1}'),
    ])
    def test_wrong_json_shape_names_file(self, tmp_path, section, payload):
        def edit(sections):
            sections[section] = payload

        bad = self.rewrite(tmp_path, edit, "niw")
        with pytest.raises(CheckpointError, match="malformed content") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    def test_non_ascii_section_name_names_file(self, tmp_path):
        def edit(sections):
            sections["caf\u00e9".encode("utf-8")] = b"{}"

        bad = self.rewrite(tmp_path, edit)
        with pytest.raises(CheckpointError, match="not ASCII") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    def test_resume_of_malformed_file_exits_with_message(self, tmp_path, capsys):
        from fedsim.cli import main

        bad = self.rewrite(tmp_path, self.drop_field("meta", "round_index"))
        assert main(["resume", bad]) == 1
        err = capsys.readouterr().err
        assert bad in err and "round_index" in err


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        obj = tiny_spec_obj(
            out=str(tmp_path / "full"),
            federated={"rounds": 6, "strategy": "niw",
                       "penalty_mode": "normalized"},
            evaluation={"checkpoint_every": 3},
        )
        full = experiment.run_experiment(experiment.parse_spec_dict(obj))
        mid = os.path.join(str(tmp_path / "full"), "checkpoint_round00003.bin")
        resumed = experiment.resume_experiment(mid, out=str(tmp_path / "resumed"))
        m_full = open(tmp_path / "full" / "metrics.csv", "rb").read()
        m_res = open(tmp_path / "resumed" / "metrics.csv", "rb").read()
        assert m_full == m_res
        assert resumed["final_global_acc"] == full["final_global_acc"]
        assert resumed["personalization"] == full["personalization"]
        assert resumed["build_id"] == full["build_id"]
        # final strategy states agree exactly
        a = load_checkpoint(os.path.join(tmp_path, "full",
                                         "checkpoint_round00006.bin"))
        b = load_checkpoint(os.path.join(tmp_path, "resumed",
                                         "checkpoint_round00006.bin"))
        assert np.array_equal(a.strategy_state.m0, b.strategy_state.m0)
        assert np.array_equal(a.strategy_state.v0_diag, b.strategy_state.v0_diag)

    def test_resume_retained_mixture(self, tmp_path):
        obj = tiny_spec_obj(
            out=str(tmp_path / "full"),
            federated={"rounds": 4, "strategy": "mixture",
                       "mixture_client_init": "retained"},
            evaluation={"checkpoint_every": 2},
        )
        experiment.run_experiment(experiment.parse_spec_dict(obj))
        mid = os.path.join(str(tmp_path / "full"), "checkpoint_round00002.bin")
        experiment.resume_experiment(mid, out=str(tmp_path / "resumed"))
        m_full = open(tmp_path / "full" / "metrics.csv", "rb").read()
        m_res = open(tmp_path / "resumed" / "metrics.csv", "rb").read()
        assert m_full == m_res

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        spec, run = build_tiny_run(tmp_path, sub="a")
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        ck = load_checkpoint(path)
        other = experiment.parse_spec_dict(
            tiny_spec_obj(out=str(tmp_path / "b"), seed=99)
        )
        with pytest.raises(experiment.SpecError, match="does not match"):
            experiment.run_experiment(other, resume=ck)

    def test_resume_of_finished_run_is_idempotent(self, tmp_path):
        obj = tiny_spec_obj(out=str(tmp_path / "full"), federated={"rounds": 3})
        experiment.run_experiment(experiment.parse_spec_dict(obj))
        final = os.path.join(str(tmp_path / "full"), "checkpoint_round00003.bin")
        before = open(tmp_path / "full" / "metrics.csv", "rb").read()
        experiment.resume_experiment(final)  # default out: same directory
        after = open(tmp_path / "full" / "metrics.csv", "rb").read()
        assert before == after
