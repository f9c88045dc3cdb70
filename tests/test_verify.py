"""The self-check suites and their negative controls."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fedsim import fanout, mixture, niw, strategies, verify

NIW_CHECK = "niw-server-closed-form-stationary"
CLIENT_CHECKS = (
    "niw-normalized-client-update-vs-fedprox",
    "niw-literal-client-update-vs-fedprox",
    "mixture-k1-client-update-vs-fedprox",
)
AGGREGATE_CHECK = "niw-full-participation-aggregate-vs-fedavg"


def _only_failure(report, name):
    """The named check failed with an err of at least 1e-3; all others passed."""
    assert not report["passed"]
    bad = next(c for c in report["checks"] if c["name"] == name)
    assert not bad["passed"]
    case = bad["failing_case"]
    assert case is not None and "d" in case and case["err"] >= 1e-3
    assert all(c["passed"] for c in report["checks"] if c is not bad)


def _only_failures(report, names):
    """Exactly the named checks failed, each at its first (client, round)."""
    assert not report["passed"]
    assert {c["name"] for c in report["checks"] if not c["passed"]} == set(names)
    for c in report["checks"]:
        if c["name"] in names:
            assert c["failing_case"]["trial"] == 0 and c["max_err"] > 0.0


class TestSuites:
    def test_reductions_pass(self):
        for seed in (0, 1, 2):
            report = verify.run_suite("reductions", seed=seed)
            assert report["passed"]
            checks = {c["name"]: c for c in report["checks"]}
            assert list(checks) == [*CLIENT_CHECKS, AGGREGATE_CHECK,
                                    "mixture-k1-mstep-vs-shrunk-mean"]
            for name in CLIENT_CHECKS:  # bit for bit
                assert checks[name]["trials"] == len(verify.RED_PAIRS)
                assert checks[name]["max_err"] == 0.0
            assert checks[AGGREGATE_CHECK]["max_err"] <= 1e-9
            assert checks["mixture-k1-mstep-vs-shrunk-mean"]["trials"] == 100
            assert checks["mixture-k1-mstep-vs-shrunk-mean"]["max_err"] < 1e-9

    def test_reductions_hold_at_one_and_two_blas_threads(self):
        # training bits differ between the two counts, the special cases not
        src = os.path.dirname(os.path.dirname(verify.__file__))
        found = fanout.blas_threads() is not None
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "fedsim.cli", "verify", "reductions"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            report = json.loads(proc.stdout)
            assert report["passed"]
            assert report["blas_threads"] == (threads if found else None)

    def test_oracles_pass(self):
        report = verify.run_suite("oracles", seed=0)
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert NIW_CHECK in names
        assert "mixture-em-step-monotone" in names

    def test_samplers_pass(self):
        report = verify.run_suite("samplers", seed=0)
        assert report["passed"]

    def test_reports_are_json_serializable(self):
        report = verify.run_suite("reductions", seed=1)
        assert json.loads(json.dumps(report)) == report

    def test_every_report_names_the_blas_thread_count(self):
        expected = fanout.blas_threads()
        report = verify.run_all(seed=0)
        assert report["blas_threads"] == expected
        assert all(r["blas_threads"] == expected for r in report["suites"])


class TestNegativeControls:
    def test_tampered_v0_fails_oracles(self):
        report = verify.run_suite("oracles", seed=0, mutation="niw-v0")
        _only_failure(report, NIW_CHECK)

    def test_tampered_m0_fails_oracles(self):
        report = verify.run_suite("oracles", seed=0, mutation="niw-m0")
        _only_failure(report, NIW_CHECK)

    def test_niw_check_reads_the_logged_objective(self, monkeypatch):
        objective = niw.niw_server_objective

        def shifted(m0, v0, means, post, n_clients, p_keep, eps):
            return objective(m0, v0, means, post, n_clients, 1.1 * p_keep, eps)

        monkeypatch.setattr(niw, "niw_server_objective", shifted)
        _only_failure(verify.run_suite("oracles", seed=0), NIW_CHECK)

    def test_scaled_penalty_weight_fails_only_the_niw_checks(self, monkeypatch):
        weight = niw.penalty_weight
        monkeypatch.setattr(niw, "penalty_weight", lambda *a: 1.01 * weight(*a))
        _only_failures(verify.run_suite("reductions", seed=0), CLIENT_CHECKS[:2])

    def test_scaled_mixture_weight_fails_only_the_mixture_check(self, monkeypatch):
        # the K=1 client trains at 1.01 times FedProx's mu = 1/(sigma^2 |D|)
        objective = mixture.mix_objective

        def scaled(post, *args, **kwargs):
            return objective(replace(post, sigma_sq=post.sigma_sq / 1.01), *args, **kwargs)

        monkeypatch.setattr(mixture, "mix_objective", scaled)
        _only_failures(verify.run_suite("reductions", seed=0), CLIENT_CHECKS[2:])

    def test_perturbed_niw_aggregate_fails_only_its_check(self, monkeypatch):
        aggregate = strategies.NiwStrategy.aggregate

        def perturbed(self, state, results, config):
            new, obj = aggregate(self, state, results, config)
            return replace(new, m0=new.m0 + 1e-6), obj

        monkeypatch.setattr(strategies.NiwStrategy, "aggregate", perturbed)
        _only_failures(verify.run_suite("reductions", seed=0), [AGGREGATE_CHECK])

    def test_nan_err_fails_at_first_trial(self):
        res = verify._check("x", 3, 1e-4, lambda t: (float("nan"), {}))
        assert not res["passed"]
        assert res["failing_case"] == {"trial": 0}
        assert np.isnan(res["max_err"])

    def test_nan_objective_fails_em_monotone(self, monkeypatch):
        monkeypatch.setattr(mixture, "mix_server_objective",
                            lambda *a: float("nan"))
        report = verify.run_suite("oracles", seed=0)
        em = next(c for c in report["checks"]
                  if c["name"] == "mixture-em-step-monotone")
        assert not em["passed"] and em["failing_case"]["trial"] == 0
        assert np.isnan(em["max_err"])
        assert all(c["passed"] for c in report["checks"] if c is not em)

    def test_nan_objective_fails_convergence_at_its_step(self, monkeypatch):
        objs = [1.0 / t for t in range(1, 41)]
        objs[24] = float("nan")
        records = [SimpleNamespace(server_objective=v, global_acc=0.25)
                   for v in objs]
        monkeypatch.setattr(verify, "convergence_run",
                            lambda seed: SimpleNamespace(records=records))
        (check,) = verify.run_suite("convergence")["checks"]
        assert not check["passed"]
        # the first running-average step to go NaN, not step 11
        assert check["failing_case"] == {"first_increase_at": 24}

    def test_mutation_restricted_to_oracles(self):
        with pytest.raises(ValueError, match="only apply"):
            verify.run_suite("reductions", mutation="niw-v0")

    def test_unknown_mutation(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            verify.run_suite("oracles", mutation="flip-sign")

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suite("everything")
