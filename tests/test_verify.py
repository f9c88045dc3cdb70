"""The self-check suites and their negative controls."""

from types import SimpleNamespace

import numpy as np
import pytest

from fedsim import mixture, niw, verify

NIW_CHECK = "niw-server-closed-form-stationary"


def _only_failure(report, name):
    """The named check failed with an err of at least 1e-3; all others passed."""
    assert not report["passed"]
    bad = next(c for c in report["checks"] if c["name"] == name)
    assert not bad["passed"]
    case = bad["failing_case"]
    assert case is not None and "d" in case and case["err"] >= 1e-3
    assert all(c["passed"] for c in report["checks"] if c is not bad)


class TestSuites:
    def test_reductions_pass(self):
        report = verify.run_suite("reductions", seed=0)
        assert report["passed"]
        assert len(report["checks"]) == 4
        for c in report["checks"]:
            assert c["trials"] == 100
            assert c["max_err"] < 1e-9

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
        import json
        report = verify.run_suite("reductions", seed=1)
        assert json.loads(json.dumps(report)) == report


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
