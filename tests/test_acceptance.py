"""Acceptance checklist: one test per criterion, in order.

Criteria 1 and 2 need the real MNIST IDX files; they skip with an explicit
message when the files are missing (fetch with scripts/fetch_mnist.py, or
point FEDSIM_DATA_DIR at a directory that has them). The supplement tests
after them run the same federated protocol shape on synthetic and digits
data at desk scale, so the end-to-end path is always exercised.

Every test prints one `ACCEPTANCE <tag>: PASS/FAIL/SKIP` line; `pytest -v`
gives the per-criterion verdict.
"""

import concurrent.futures
import multiprocessing
import os
import time

import numpy as np
import pytest

from fedsim import data, experiment, fanout, verify


def _line(tag, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {verdict} - {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _skip(tag, reason):
    print(f"ACCEPTANCE {tag}: SKIP - {reason}", flush=True)
    pytest.skip(reason)


def _check_named(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"check {name!r} missing from {report['suite']} report")


# ------------------------------------------------------------------- MNIST

MNIST_DIR = os.environ.get("FEDSIM_DATA_DIR", os.path.join("data", "mnist"))


def _mnist_present():
    return all(
        os.path.exists(os.path.join(MNIST_DIR, n)) for n in experiment.IDX_NAMES
    )


def _mnist_spec(strategy, out):
    fed = {
        "n_clients": 100, "participation": 0.1, "local_epochs": 1,
        "rounds": 100, "strategy": strategy, "batch_size": 50, "lr": 0.1,
        "body_update": True,
    }
    if strategy == "niw":
        fed["penalty_mode"] = "normalized"
    return experiment.parse_spec_dict({
        "name": f"mnist_{strategy}",
        "seed": 0,
        "out": out,
        "dataset": {"kind": "idx", "dir": MNIST_DIR},
        "partition": {"kind": "shard", "shards_per_client": 5},
        "model": {"hidden": [256]},
        "federated": fed,
        "evaluation": {"eval_every": 100, "personalization_epochs": 5},
    })


@pytest.fixture(scope="module")
def mnist_summaries(tmp_path_factory):
    if not _mnist_present():
        reason = (
            f"MNIST IDX files not found in {MNIST_DIR!r}; run "
            "scripts/fetch_mnist.py or set FEDSIM_DATA_DIR"
        )
        print(f"ACCEPTANCE 1+2: SKIP - {reason}", flush=True)
        pytest.skip(reason)
    base = tmp_path_factory.mktemp("mnist")
    started = time.monotonic()
    out = {}
    for strategy in ("fedavg", "niw", "mixture"):
        spec = _mnist_spec(strategy, str(base / strategy))
        out[strategy] = experiment.run_experiment(spec)
    out["elapsed_s"] = time.monotonic() - started
    return out


def test_01_mnist_global_accuracy(mnist_summaries):
    s = mnist_summaries
    niw = s["niw"]["final_global_acc"]
    fedavg = s["fedavg"]["final_global_acc"]
    mixture = s["mixture"]["final_global_acc"]
    elapsed = s["elapsed_s"]
    detail = (
        f"niw {niw:.4f} fedavg {fedavg:.4f} mixture {mixture:.4f} "
        f"({elapsed:.0f}s for all three runs)"
    )
    ok = niw >= 0.95 and niw >= fedavg - 0.005 and mixture >= niw - 0.010
    if (os.cpu_count() or 1) >= 4:
        ok = ok and elapsed < 1800.0  # stated budget assumes a 4-core desktop
    _line(1, ok, detail)


def test_02_mnist_personalization(mnist_summaries):
    s = mnist_summaries
    niw_g = s["niw"]["final_global_acc"]
    niw_p = s["niw"]["personalization"]["mean_acc"]
    fedavg_p = s["fedavg"]["personalization"]["mean_acc"]
    detail = f"niw pers {niw_p:.4f} vs global {niw_g:.4f}, fedavg pers {fedavg_p:.4f}"
    _line(2, niw_p >= niw_g + 0.005 and niw_p >= fedavg_p - 0.005, detail)


# --------------------------------------------------------- algebraic checks


@pytest.fixture(scope="module")
def oracles_report():
    return verify.run_suite("oracles", seed=0)


def test_03_reduction_identities():
    report = verify.run_suite("reductions", seed=0)
    worst = max(c["max_err"] for c in report["checks"])
    detail = (
        f"{len(report['checks'])} identities, 3 of them bit for bit on the "
        f"strategies' client updates at 784-256-10, max err {worst:.3e} "
        f"(tol 1e-9), {report['elapsed_s']:.2f}s (budget 10s)"
    )
    ok = report["passed"] and worst <= 1e-9 and report["elapsed_s"] < 10.0
    _line(3, ok, detail)


def test_04_server_update_oracle(oracles_report):
    stat = _check_named(oracles_report, "niw-server-closed-form-stationary")
    mstep = _check_named(oracles_report, "mixture-k1-mstep-closed-form")
    detail = (
        f"closed form, stationarity of the logged objective: {stat['trials']} "
        f"trials, max scaled grad {stat['max_err']:.3e} (tol 1e-4); k=1 M-step: "
        f"{mstep['trials']} trials, max err {mstep['max_err']:.3e}; "
        f"suite {oracles_report['elapsed_s']:.2f}s (budget 60s)"
    )
    ok = (
        stat["passed"] and stat["max_err"] <= 1e-4 and stat["trials"] == 50
        and mstep["passed"] and mstep["trials"] == 50
        and oracles_report["elapsed_s"] < 60.0
    )
    _line(4, ok, detail)


def test_05_em_monotonicity(oracles_report):
    em = _check_named(oracles_report, "mixture-em-step-monotone")
    detail = (
        f"{em['trials']} random instances, worst increase {em['max_err']:.3e} "
        "(slack 1e-10)"
    )
    _line(5, em["passed"] and em["trials"] == 100, detail)


def test_06_gradient_fidelity(oracles_report):
    names = ("grad-fd-ce", "grad-fd-niw", "grad-fd-mixture", "grad-fd-fedprox")
    checks = [_check_named(oracles_report, n) for n in names]
    worst = max(c["max_err"] for c in checks)
    detail = f"4 losses x 20 instances, max rel err {worst:.3e} (tol 1e-5)"
    ok = all(c["passed"] and c["trials"] == 20 for c in checks) and worst < 1e-5
    _line(6, ok, detail)


def test_07_sampler_statistics():
    report = verify.run_suite("samplers", seed=0)
    names = [c["name"] for c in report["checks"]]
    detail = f"{len(names)} checks: {', '.join(names)}"
    _line(7, report["passed"], detail)


def test_08_convergence_running_average():
    report = verify.run_suite("convergence", seed=0)
    check = _check_named(report, "running-average-objective-non-increasing")
    fit = check["fit"]
    detail = (
        f"200-round run, running average non-increasing after burn-in; "
        f"c/sqrt(T) fit c={fit['c']:.1f} residual={fit['residual']:.3g} "
        "(informational)"
    )
    _line(8, report["passed"], detail)


# -------------------------------------------------------------- determinism


def _tiny_spec(out, seed=3, rounds=6, checkpoint_every=0):
    return experiment.parse_spec_dict({
        "name": "tiny",
        "seed": seed,
        "out": out,
        "dataset": {"kind": "synthetic", "clusters": 2, "classes": 3,
                    "dims": 6, "train_per_class": 40, "test_per_class": 10,
                    "shift": 0.5},
        "partition": {"kind": "shard", "shards_per_client": 2},
        "model": {"hidden": [8]},
        "federated": {"n_clients": 4, "participation": 0.5,
                      "local_epochs": 1, "rounds": rounds, "strategy": "niw",
                      "batch_size": 20, "penalty_mode": "normalized"},
        "evaluation": {"checkpoint_every": checkpoint_every,
                       "personalization_epochs": 2},
    })


def test_09_determinism_and_resume(tmp_path):
    experiment.run_experiment(_tiny_spec(str(tmp_path / "a"), checkpoint_every=3))
    experiment.run_experiment(_tiny_spec(str(tmp_path / "b"), checkpoint_every=3))
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    rerun_identical = bytes_a == bytes_b

    resumed = experiment.resume_experiment(
        str(tmp_path / "a" / "checkpoint_round00003.bin"), out=str(tmp_path / "c")
    )
    bytes_c = (tmp_path / "c" / "metrics.csv").read_bytes()
    resume_identical = bytes_c == bytes_a
    full = experiment.run_experiment(_tiny_spec(str(tmp_path / "d")))
    same_acc = resumed["final_global_acc"] == full["final_global_acc"]

    detail = (
        f"rerun metrics byte-identical: {rerun_identical}; resume from round 3 "
        f"byte-identical: {resume_identical}; final acc equal: {same_acc}"
    )
    _line(9, rerun_identical and resume_identical and same_acc, detail)


# ------------------------------------------- desk-scale protocol supplements


def _proxy_spec(strategy, out):
    """Reference protocol shape on synthetic blobs (seed-0 bands below)."""
    fed = {
        "n_clients": 100, "participation": 0.1, "local_epochs": 1,
        "rounds": 200, "strategy": strategy, "batch_size": 50, "lr": 0.1,
        "body_update": True,
    }
    if strategy == "niw":
        fed["penalty_mode"] = "normalized"
    return experiment.parse_spec_dict({
        "name": f"proxy_{strategy}",
        "seed": 0,
        "out": out,
        "dataset": {"kind": "synthetic", "clusters": 4, "classes": 10,
                    "dims": 20, "train_per_class": 1350, "test_per_class": 250,
                    "shift": 0.5, "class_scale": 2.0, "noise_sd": 0.4},
        "partition": {"kind": "shard", "shards_per_client": 5},
        "model": {"hidden": [256]},
        "federated": fed,
        "evaluation": {"eval_every": 50, "personalization_epochs": 5},
    })


@pytest.fixture(scope="module")
def proxy_summaries(tmp_path_factory):
    # The five runs are independent, so two spawned worker processes share
    # them, longest first, at one BLAS thread each: two-thread pools in both
    # would contend for the two cores. At these shapes no product is long
    # enough for the thread count to change its bits, so every summary but
    # its timing is the serial loop's.
    base = tmp_path_factory.mktemp("proxy")
    strategies = ("mixture", "niw", "fedprox", "fedavg", "fedbabu")
    specs = [_proxy_spec(s, str(base / s)) for s in strategies]
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
        2, mp_context=spawn, initializer=fanout.blas_threads, initargs=(1,)
    ) as pool:
        return dict(zip(strategies, pool.map(experiment.run_experiment, specs)))


def test_proxy_baselines_reach_high_accuracy(proxy_summaries):
    accs = {
        s: proxy_summaries[s]["final_global_acc"]
        for s in ("fedavg", "fedprox", "fedbabu")
    }
    detail = "100 clients, 10% participation, 200 rounds: " + ", ".join(
        f"{s} {a:.4f}" for s, a in accs.items()
    )
    _line("proxy-baselines", all(a >= 0.97 for a in accs.values()), detail)


def test_proxy_mixture_matches_fedavg(proxy_summaries):
    mixture = proxy_summaries["mixture"]["final_global_acc"]
    fedavg = proxy_summaries["fedavg"]["final_global_acc"]
    detail = f"mixture {mixture:.4f} vs fedavg {fedavg:.4f} (within 1 point)"
    _line("proxy-mixture", mixture >= fedavg - 0.010, detail)


def test_proxy_niw_learns(proxy_summaries):
    # the posterior-mean shrink each round caps the attainable weight norm
    # at this scale, so the band sits below the baselines; see README
    niw = proxy_summaries["niw"]["final_global_acc"]
    detail = f"niw sampled-global accuracy {niw:.4f} (band 0.80)"
    _line("proxy-niw", niw >= 0.80, detail)


def test_proxy_personalization(proxy_summaries):
    rows = {
        s: (
            proxy_summaries[s]["final_global_acc"],
            proxy_summaries[s]["personalization"]["mean_acc"],
        )
        for s in ("fedavg", "fedprox", "fedbabu", "mixture", "niw")
    }
    detail = ", ".join(f"{s} {g:.3f}->{p:.3f}" for s, (g, p) in rows.items())
    ok = all(p >= g - 0.005 for s, (g, p) in rows.items() if s not in ("niw", "mixture"))
    ok = ok and rows["mixture"][1] >= 0.95
    # five local epochs cannot re-grow the shrunken posterior mean here;
    # the full-scale personalization gain is what criterion 2 checks
    ok = ok and rows["niw"][1] >= 0.60
    _line("proxy-personalization", ok, detail)


def _digits_datasets(tmp_path):
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    x, y = sklearn_datasets.load_digits(return_X_y=True)
    x = x / 16.0
    order = np.random.default_rng(7).permutation(len(x))
    x, y = x[order], y[order].astype(np.int64)
    n_test = len(x) // 10
    train = data.LabeledDataset(inputs=x[n_test:], labels=y[n_test:], num_classes=10)
    test = data.LabeledDataset(inputs=x[:n_test], labels=y[:n_test], num_classes=10)
    train_path = str(tmp_path / "digits_train.bin")
    test_path = str(tmp_path / "digits_test.bin")
    data.save_dataset(train_path, train)
    data.save_dataset(test_path, test)
    return train_path, test_path


def test_real_data_digits_end_to_end(tmp_path):
    """Small real-image corpus through the full pipeline, three strategies."""
    train_path, test_path = _digits_datasets(tmp_path)

    def run(strategy, **fed):
        spec = experiment.parse_spec_dict({
            "name": f"digits_{strategy}",
            "seed": 0,
            "out": str(tmp_path / strategy),
            "dataset": {"kind": "container", "train": train_path,
                        "test": test_path},
            "partition": {"kind": "shard", "shards_per_client": 5},
            "model": {"hidden": [64]},
            "federated": {"n_clients": 100, "participation": 0.1,
                          "local_epochs": 3, "rounds": 300,
                          "strategy": strategy, "batch_size": 50, "lr": 0.1,
                          "body_update": True, **fed},
            "evaluation": {"eval_every": 300, "personalization_epochs": 5},
        })
        return experiment.run_experiment(spec)

    fedavg = run("fedavg")
    niw = run("niw", penalty_mode="normalized")
    mixture = run("mixture")
    fa_g = fedavg["final_global_acc"]
    fa_p = fedavg["personalization"]["mean_acc"]
    detail = (
        f"fedavg {fa_g:.4f} (pers {fa_p:.4f}), "
        f"niw {niw['final_global_acc']:.4f}, "
        f"mixture {mixture['final_global_acc']:.4f}"
    )
    ok = (
        fa_g >= 0.80 and fa_p >= fa_g  # personalization gains on real data
        and niw["final_global_acc"] >= 0.70
        and mixture["final_global_acc"] >= 0.68
        and mixture["personalization"]["mean_acc"] >= 0.78
    )
    _line("digits", ok, detail)
