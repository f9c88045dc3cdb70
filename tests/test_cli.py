"""Command-line interface behavior."""

import json
import os
import subprocess
import sys

import pytest

from fedsim.cli import main
from tests.test_experiment import tiny_spec_obj, write_spec


class TestRun:
    def test_run_writes_artifacts_and_reports(self, tmp_path, capsys):
        path = write_spec(tmp_path, tiny_spec_obj(out=str(tmp_path / "out")))
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "run complete: 4 rounds" in out
        assert os.path.exists(tmp_path / "out" / "metrics.csv")
        assert os.path.exists(tmp_path / "out" / "summary.json")

    def test_flag_overrides_reach_summary(self, tmp_path):
        path = write_spec(tmp_path, tiny_spec_obj(out=str(tmp_path / "out")))
        assert main(["run", path, "--seed", "9", "--rounds", "2",
                     "--strategy", "fedprox",
                     "--out", str(tmp_path / "other")]) == 0
        summary = json.load(open(tmp_path / "other" / "summary.json"))
        assert summary["spec"]["seed"] == 9
        assert summary["spec"]["federated"]["rounds"] == 2
        assert summary["spec"]["federated"]["strategy"] == "fedprox"

    def test_env_out_override(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, tiny_spec_obj(out=str(tmp_path / "spec_out")))
        monkeypatch.setenv("FEDSIM_OUT", str(tmp_path / "env_out"))
        assert main(["run", path]) == 0
        assert os.path.exists(tmp_path / "env_out" / "metrics.csv")
        assert not os.path.exists(tmp_path / "spec_out")

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, tiny_spec_obj(out=str(tmp_path / "spec_out")))
        monkeypatch.setenv("FEDSIM_OUT", str(tmp_path / "env_out"))
        assert main(["run", path, "--out", str(tmp_path / "flag_out")]) == 0
        assert os.path.exists(tmp_path / "flag_out" / "metrics.csv")
        assert not os.path.exists(tmp_path / "env_out")

    def test_bad_spec_exits_nonzero_with_message(self, tmp_path, capsys):
        path = write_spec(tmp_path, tiny_spec_obj(federated={"strategy": "sgd"}))
        assert main(["run", path]) == 1
        assert "unknown strategy" in capsys.readouterr().err

    def test_spec_value_errors_exit_with_field_path(self, tmp_path, capsys):
        path = write_spec(tmp_path, tiny_spec_obj(out=str(tmp_path / "out")))
        assert main(["run", path, "--seed", "-1"]) == 1
        assert "error: spec.seed: must be >= 0" in capsys.readouterr().err
        text = json.dumps(tiny_spec_obj(federated={"lr": 12345}))
        big = tmp_path / "big.json"
        big.write_text(text.replace("12345", "1" + "0" * 400))
        assert main(["run", str(big)]) == 1
        assert "error: federated.lr: integer too large" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["run", "/nonexistent/spec.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestResume:
    def test_resume_command(self, tmp_path, capsys):
        obj = tiny_spec_obj(out=str(tmp_path / "out"),
                            evaluation={"checkpoint_every": 2})
        path = write_spec(tmp_path, obj)
        assert main(["run", path]) == 0
        original = open(tmp_path / "out" / "metrics.csv", "rb").read()
        ck = str(tmp_path / "out" / "checkpoint_round00002.bin")
        assert main(["resume", ck, "--out", str(tmp_path / "re")]) == 0
        assert "resume complete" in capsys.readouterr().out
        assert open(tmp_path / "re" / "metrics.csv", "rb").read() == original

    def test_resume_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "ck.bin"
        bad.write_bytes(b"garbage")
        assert main(["resume", str(bad)]) == 1
        assert "not a checkpoint file" in capsys.readouterr().err


class TestVerify:
    def test_verify_suite_passes(self, capsys):
        assert main(["verify", "reductions"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "reductions" and report["passed"]

    def test_verify_mutation_fails(self, capsys):
        assert main(["verify", "oracles", "--mutate", "niw-v0"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"]

    def test_verify_all_rejects_mutation(self, capsys):
        assert main(["verify", "all", "--mutate", "niw-v0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mutations only apply to the oracles suite" in captured.err

    def test_verify_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])


class TestPartitionReport:
    def test_prints_histograms(self, tmp_path, capsys):
        path = write_spec(tmp_path, tiny_spec_obj())
        assert main(["partition-report", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# fedsim partition report v1")
        assert sum(1 for l in out.splitlines() if l.startswith("client ")) == 4

    def test_seed_changes_assignment(self, tmp_path, capsys):
        path = write_spec(tmp_path, tiny_spec_obj())
        main(["partition-report", path, "--seed", "1"])
        a = capsys.readouterr().out
        main(["partition-report", path, "--seed", "2"])
        b = capsys.readouterr().out
        assert a != b


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_spec(tmp_path, tiny_spec_obj(out=str(tmp_path / "out"),
                                                  federated={"rounds": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "run complete" in proc.stdout
