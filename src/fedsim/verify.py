"""Self-check suites exposed by the `fedsim verify` command.

Four suites:

    reductions   FedProx and FedAvg as special cases of the strategies' own
                 client updates and aggregates at 784-256-10; the K=1 M-step
    oracles      closed-form server updates vs stationarity of the logged
                 objective; EM monotonicity; finite-difference gradients of
                 the local objectives `optim.local_train` trains with
    samplers     Student-t and dropout-mask moment checks
    convergence  a seeded 200-round run of `CONVERGENCE_SPEC`, built by
                 `experiment.build_run` as `fedsim run` builds it, whose
                 running-average server objective must be non-increasing
                 after burn-in

Each suite returns a machine-readable report dict. A failed check carries
the first failing case (trial index and sampled sizes) so it can be
replayed. `mutation` deliberately tampers with a formula under test and is
meant for negative-control testing of the harness itself.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from . import experiment, fanout, mixture, niw, nn, optim, runtime
from .rng import stream
from .strategies import STRATEGIES, ClientResult

MUTATIONS = ("niw-v0", "niw-m0")

REDUCTION_TOL = 1e-9
ORACLE_REL_TOL = 1e-4
MSTEP_REL_TOL = 1e-12
EM_SLACK = 1e-10
FD_TOL = 1e-5


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))


def _result(name: str, trials: int, max_err: float, failing, **extra) -> dict:
    return {
        "name": name,
        "passed": failing is None,
        "trials": trials,
        "max_err": max_err,
        "failing_case": failing,
        **extra,
    }


def _check(name: str, trials: int, tol: float, body) -> dict:
    """Run body(trial) -> (err, case) over all trials; the first case whose
    err exceeds tol, or is NaN, fails the check and max_err carries the NaN."""
    max_err = 0.0
    failing = None
    for t in range(trials):
        err, case = body(t)
        max_err = float(np.maximum(max_err, err))
        if not err <= tol and failing is None:
            failing = {"trial": t, **case}
    return _result(name, trials, max_err, failing)


def _mixture_post(prototypes, sigma_sq: float, input_dim: int):
    gating_arch = nn.MlpArch((input_dim, 2, len(prototypes)))
    return mixture.MixtureGlobalPosterior(
        prototypes=tuple(prototypes),
        sigma_sq=sigma_sq,
        gating=np.zeros(nn.param_count(gating_arch)),
        gating_arch=gating_arch,
    )


def _k1_mstep(seed: int, tag: str, max_d: int, max_n: int):
    """K=1 M-step against its closed form, the shrunk sum of client means."""
    def body(t):
        rng = stream(seed, "verify", tag, t)
        d = int(rng.integers(1, max_d))
        n = int(rng.integers(1, max_n))
        sigma_sq = float(rng.uniform(0.05, 2.0))
        means = [rng.normal(size=d) for _ in range(n)]
        (r_new,) = mixture.mix_m_step(means, np.ones((n, 1)), sigma_sq, n)
        err = _rel_err(r_new, np.sum(means, axis=0) / (n + sigma_sq))
        return err, {"d": d, "n": n, "err": err}

    return body


# ---------------------------------------------------------------- reductions


# the special cases' client data: RED_ROWS uniform rows at the protocol shape,
# trained at each (client, round) of RED_PAIRS; the NIW prior counts
# RED_TOTAL_ROWS rows, as MNIST's train set does
RED_ARCH = nn.MlpArch((784, 256, 10))
RED_ROWS = 540
RED_TOTAL_ROWS = 60_000
RED_PAIRS = ((3, 7), (41, 2))


def _reduction_checks(seed: int) -> list[dict]:
    """The strategies' own client updates and aggregates at RED_ARCH.

    FedProx is the NIW client update at p_keep = 1 and v0 = 1 in either
    penalty mode, and the K=1 mixture client update from its prototype:
    params bit for bit, mean losses within REDUCTION_TOL. FedProx's weight is
    the closed form, not `niw.penalty_weight`. FedAvg's mean times N/(N+1)
    is the NIW server mean at full participation, over the params of the
    client updates before it.
    """
    rng = stream(seed, "verify", "red-data")
    x = rng.uniform(size=(RED_ROWS, RED_ARCH.layer_sizes[0]))
    y = rng.integers(0, RED_ARCH.num_classes, size=RED_ROWS)
    init = nn.init_params(RED_ARCH, stream(seed, "verify", "red-init"))
    base = runtime.FederatedConfig(p_keep=1.0, k_prototypes=1, seed=seed)
    niw_s = STRATEGIES["niw"]
    means = []

    def vs_fedprox(name, strategy, config, start, mu):
        """start(state) is FedProx's starting point and mu(state) its weight."""
        state = strategy.init_state(RED_ARCH, init, config, RED_TOTAL_ROWS)
        prox = replace(config, mu_prox=mu(state))

        def body(t):
            cid, r = RED_PAIRS[t]
            got = strategy.client_update(state, cid, x, y, RED_ARCH, config, config.lr, r)
            ref = STRATEGIES["fedprox"].client_update(
                start(state), cid, x, y, RED_ARCH, prox, config.lr, r
            )
            means.append(got.params)
            param_err = float(np.max(np.abs(got.params - ref.params)))
            loss_gap = abs(got.loss - ref.loss)
            # 0.0 for equal params and losses within REDUCTION_TOL; NaN fails
            err = float(np.maximum(param_err, loss_gap - REDUCTION_TOL))
            return err, {"client": cid, "round": r, "mu": prox.mu_prox,
                         "param_err": param_err, "loss_gap": loss_gap}

        return _check(name, len(RED_PAIRS), 0.0, body)

    def server_mean(t):
        n = len(means)
        config = replace(base, n_clients=n)
        results = [ClientResult(params=m, loss=0.0) for m in means]
        state = niw_s.init_state(RED_ARCH, init, config, RED_TOTAL_ROWS)
        new, _ = niw_s.aggregate(state, results, config)
        avg, _ = STRATEGIES["fedavg"].aggregate(init, results, config)
        err = float(np.max(np.abs(new.m0 - n / (n + 1) * avg)))
        return err, {"n": n, "err": err}

    return [
        vs_fedprox("niw-normalized-client-update-vs-fedprox", niw_s,
                   replace(base, penalty_mode="normalized"), lambda s: s.m0,
                   lambda s: 1.0 / RED_ROWS),
        vs_fedprox("niw-literal-client-update-vs-fedprox", niw_s, base,
                   lambda s: s.m0, lambda s: (s.n0 + s.d + 1) / RED_ROWS),
        vs_fedprox("mixture-k1-client-update-vs-fedprox", STRATEGIES["mixture"], base,
                   lambda s: s.prototypes[0], lambda s: 1.0 / (s.sigma_sq * RED_ROWS)),
        _check("niw-full-participation-aggregate-vs-fedavg", 1, REDUCTION_TOL,
               server_mean),
        _check("mixture-k1-mstep-vs-shrunk-mean", 100, REDUCTION_TOL,
               _k1_mstep(seed, "red-mix-mstep", 101, 11)),
    ]


# ------------------------------------------------------------------- oracles


def _fd_err(f, x: np.ndarray, g: np.ndarray | float, h: float = 1e-6) -> float:
    """max |g - central differences of f at x|, relative to 1 + max|g|."""
    fd = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (f(xp) - f(xm)) / (2 * h)
    return float(np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(g))))


def _oracle_checks(seed: int, mutation: str | None) -> list[dict]:
    def niw_stationary(t):
        rng = stream(seed, "verify", "oracle-niw-gd", t)
        d = int(rng.integers(2, 21))
        n_clients = int(rng.integers(1, 6))
        n_f = int(rng.integers(1, n_clients + 1))
        post = niw.niw_init(d, int(rng.integers(0, 300)))
        p = float(rng.uniform(0.5, 1.0))
        eps = float(rng.uniform(1e-4, 1e-2))
        means = [rng.normal(size=d) for _ in range(n_f)]
        new = niw.niw_server_update(means, post, n_clients, p, eps)
        m0, v0 = new.m0, new.v0_diag
        if mutation == "niw-v0":
            v0 = v0 * 1.01
        elif mutation == "niw-m0":
            m0 = m0 + 0.01
        log_v0 = np.log(v0)

        def f(m, lv):
            return niw.niw_server_objective(
                m, np.exp(lv), means, post, n_clients, p, eps
            )

        # each block's gradient over its curvature scale, roughly a Newton
        # step, so err reads as a relative distance to the minimizer
        b = d + 2 + n_clients
        err = max(
            _fd_err(lambda x: f(x, log_v0) / (b * (1 + n_clients)), m0, 0.0),
            _fd_err(lambda x: f(m0, x) / (b / 2), log_v0, 0.0),
        )
        return err, {"d": d, "n_clients": n_clients, "n_f": n_f, "err": err}

    def em_monotone(t):
        rng = stream(seed, "verify", "oracle-em", t)
        d = int(rng.integers(1, 21))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 11))
        sigma_sq = float(rng.uniform(0.05, 2.0))
        means = [rng.normal(size=d) for _ in range(n)]
        protos = tuple(rng.normal(size=d) for _ in range(k))
        before = mixture.mix_server_objective(protos, means, sigma_sq)
        c = mixture.mix_e_step(means, protos, sigma_sq)
        after_protos = mixture.mix_m_step(means, c, sigma_sq, n)
        after = mixture.mix_server_objective(after_protos, means, sigma_sq)
        # a decrease reads as err < 0; a NaN fails
        return after - before, {
            "d": d, "k": k, "n": n, "before": before, "after": after,
        }

    def grad_fd_case(t, which):
        rng = stream(seed, "verify", "oracle-fd", which, t)
        while True:  # a random arch of at most 60 params
            arch = nn.MlpArch(tuple(rng.integers(2, hi) for hi in (5, 6, 5)))
            d = nn.param_count(arch)
            if d <= 60:
                break
        n = int(rng.integers(3, 7))
        x = rng.uniform(size=(n, arch.layer_sizes[0]))
        batch = x, rng.integers(0, arch.num_classes, size=n)
        m = rng.normal(size=d) * 0.5
        n_i = int(rng.integers(5, 100))
        if which == "ce":
            objectives = [optim.prox_objective(arch)]
        elif which == "niw":
            post = niw.NiwGlobalPosterior(
                m0=rng.normal(size=d) * 0.5,
                v0_diag=rng.uniform(0.5, 2.0, size=d),
                l0=5.0,
                n0=float(d + 2 + rng.uniform(1.0, 50.0)),
                d=d,
            )
            objectives = [niw.niw_objective(post, arch, n_i, p_keep=0.9)]
        elif which == "mixture":
            k = int(rng.integers(1, 4))
            post = _mixture_post(
                [rng.normal(size=d) * 0.5 for _ in range(k)],
                float(rng.uniform(0.05, 1.0)), arch.layer_sizes[0],
            )
            # client training takes majorizer steps, personalization SGD steps
            objectives = [
                mixture.mix_objective(post, arch, n_i, majorize=flag)
                for flag in (True, False)
            ]
        else:  # fedprox
            gp = rng.normal(size=d) * 0.5
            mu = float(rng.uniform(0.001, 1.0))
            objectives = [optim.prox_objective(arch, mu, gp)]
        err = max(
            _fd_err(
                lambda x: obj(x, *batch)[0], m,
                optim.total_loss_and_grad(obj, m, *batch)[1],
            )
            for obj in objectives
        )
        return err, {"which": which, "err": err}

    return [
        _check("niw-server-closed-form-stationary", 50, ORACLE_REL_TOL,
               niw_stationary),
        _check("mixture-k1-mstep-closed-form", 50, MSTEP_REL_TOL,
               _k1_mstep(seed, "oracle-mstep", 21, 6)),
        _check("mixture-em-step-monotone", 100, EM_SLACK, em_monotone),
        *(
            _check(f"grad-fd-{which}", 20, FD_TOL,
                   lambda t, w=which: grad_fd_case(t, w))
            for which in ("ce", "niw", "mixture", "fedprox")
        ),
    ]


# ------------------------------------------------------------------ samplers


def _sampler_checks(seed: int) -> list[dict]:
    def student_t():
        d = 5
        rng0 = stream(seed, "verify", "t-setup")
        m0 = rng0.normal(size=d)
        v0 = rng0.uniform(0.5, 2.0, size=d)
        nu = 50.0
        post = niw.NiwGlobalPosterior(
            m0=m0, v0_diag=v0, l0=4.0, n0=nu + d - 1, d=d
        )
        scale = niw.predictive_scale(post)
        var_true = scale * nu / (nu - 2)
        n_draws = 20_000
        draws = np.empty((n_draws, d))
        for i in range(n_draws):
            draws[i] = niw.niw_sample_global(post, stream(seed, "verify", "t", i))
        se = np.sqrt(var_true / n_draws)
        loc_err = np.abs(draws.mean(axis=0) - m0)
        loc_ok = np.all(loc_err <= 4 * se)
        var_rel = np.abs(draws.var(axis=0) - var_true) / var_true
        var_ok = np.all(var_rel <= 0.05)
        return [
            _result("student-t-location-within-4se", n_draws,
                    float(np.max(loc_err / se)),
                    None if loc_ok else {"z_scores": (loc_err / se).tolist()}),
            _result("student-t-variance-within-5pct", n_draws,
                    float(np.max(var_rel)),
                    None if var_ok else {"rel_err": var_rel.tolist()}),
        ]

    def keep_rate(p_keep):
        arch = nn.MlpArch((20, 10, 5))
        n_draws = 10_000
        kept = 0
        total = 0
        for i in range(n_draws):
            mask = nn.sample_dropout_mask(
                p_keep, arch, stream(seed, "verify", "mask", repr(p_keep), i)
            )
            for layer in mask:
                kept += int(layer.sum())
                total += layer.size
        rate = kept / total
        se = np.sqrt(p_keep * (1 - p_keep) / total)
        err = abs(rate - p_keep)
        return _result(
            f"dropout-keep-rate-p{p_keep}", n_draws,
            float(err / se) if se > 0 else 0.0,
            None if err <= 3 * se else {"rate": rate, "expected": p_keep},
        )

    return [*student_t(), keep_rate(0.999), keep_rate(0.8)]


# --------------------------------------------------------------- convergence


# the convergence run's experiment, at the suite's seed
CONVERGENCE_SPEC = {
    "name": "synth_convergence", "seed": 0,
    "dataset": {"kind": "synthetic", "clusters": 2, "classes": 4, "dims": 10,
                "train_per_class": 225, "test_per_class": 25, "shift": 1.0},
    "partition": {"kind": "shard", "shards_per_client": 2},
    "model": {"hidden": [16]},
    "federated": {"n_clients": 10, "participation": 1.0, "local_epochs": 1,
                  "rounds": 200, "strategy": "niw", "batch_size": 50, "lr": 0.1,
                  "penalty_mode": "literal"},
    "evaluation": {"eval_every": 20, "personalize": False},
}


def convergence_run(seed: int = 0):
    """`CONVERGENCE_SPEC` at this seed, built and trained as `fedsim run` does;
    only the last round is evaluated."""
    run = experiment.build_run(
        experiment.parse_spec_dict({**CONVERGENCE_SPEC, "seed": seed})
    )
    rounds = run.config.rounds
    for r in range(1, rounds + 1):
        runtime.run_round(run, evaluate=(r == rounds))
    return run


def _convergence_checks(seed: int) -> list[dict]:
    run = convergence_run(seed)
    objs = [rec.server_objective for rec in run.records]
    ra = runtime.running_average(objs)
    fit = runtime.convergence_diagnostic(ra, burn_in=10)
    steps = np.diff(ra[10:])
    bad = ~np.isfinite(steps) | (steps > 1e-12)
    return [
        _result(
            "running-average-objective-non-increasing", len(objs),
            float(np.max(np.maximum(steps, 0.0))),
            None if fit.monotone else {
                "first_increase_at": int(np.argmax(bad)) + 11,
            },
            fit={"c": fit.c, "offset": fit.offset, "residual": fit.residual},
            final_global_acc=run.records[-1].global_acc,
        )
    ]


# -------------------------------------------------------------------- driver


# suite -> its checks(seed, mutation); only the oracles take a mutation
SUITES = {
    "reductions": lambda seed, mutation: _reduction_checks(seed),
    "oracles": _oracle_checks,
    "samplers": lambda seed, mutation: _sampler_checks(seed),
    "convergence": lambda seed, mutation: _convergence_checks(seed),
}


def run_suite(name: str, seed: int = 0, mutation: str | None = None) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITES)}")
    if mutation is not None:
        if mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; valid: {', '.join(MUTATIONS)}"
            )
        if name != "oracles":
            raise ValueError("mutations only apply to the oracles suite")
    started = time.perf_counter()
    checks = SUITES[name](seed, mutation)
    return {
        "format": "fedsim-verify/v1",
        "suite": name,
        "seed": seed,
        "mutation": mutation,
        "passed": all(c["passed"] for c in checks),
        "blas_threads": fanout.blas_threads(),
        "elapsed_s": time.perf_counter() - started,
        "checks": checks,
    }


def run_all(seed: int = 0, mutation: str | None = None) -> dict:
    """Every suite in turn; like the non-oracle suites, rejects any mutation."""
    reports = [run_suite(s, seed, mutation) for s in SUITES]
    return {
        "format": "fedsim-verify/v1",
        "suite": "all",
        "seed": seed,
        "mutation": mutation,
        "passed": all(r["passed"] for r in reports),
        "blas_threads": fanout.blas_threads(),
        "elapsed_s": sum(r["elapsed_s"] for r in reports),
        "suites": reports,
    }
