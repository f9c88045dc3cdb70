"""Self-check suites exposed by the `fedsim verify` command.

Four suites:

    reductions   the four baseline-equivalence identities at 1e-9
    oracles      closed-form server updates vs an independent gradient
                 descent minimizer; EM monotonicity; finite-difference
                 gradient checks
    samplers     Student-t and dropout-mask moment checks
    convergence  a seeded 200-round run of `CONVERGENCE_SPEC`, built by
                 `experiment.build_run` as `fedsim run` builds it, whose
                 running-average server objective must be non-increasing
                 after burn-in

The client-side checks evaluate the local objectives that
`optim.local_train` trains with, by their total gradients.

Each suite returns a machine-readable report dict. A failed check carries
the first failing case (trial index and sampled sizes) so it can be
replayed. `mutation` deliberately tampers with a formula under test and is
meant for negative-control testing of the harness itself.
"""

from __future__ import annotations

import time

import numpy as np

from . import experiment, mixture, niw, nn, optim, runtime
from .rng import stream

MUTATIONS = ("niw-v0", "niw-m0")

REDUCTION_TOL = 1e-9
ORACLE_REL_TOL = 1e-4
MSTEP_REL_TOL = 1e-12
EM_SLACK = 1e-10
FD_TOL = 1e-5


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))


def _random_arch(rng, max_params: int = 100) -> nn.MlpArch:
    while True:
        arch = nn.MlpArch((rng.integers(2, 5), rng.integers(2, 6), rng.integers(2, 5)))
        if nn.param_count(arch) <= max_params:
            return arch


def _random_batch(rng, arch: nn.MlpArch, n: int) -> nn.Batch:
    return nn.Batch(
        inputs=rng.uniform(size=(n, arch.layer_sizes[0])),
        labels=rng.integers(0, arch.num_classes, size=n),
    )


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
    err exceeds tol fails the check."""
    max_err = 0.0
    failing = None
    for t in range(trials):
        err, case = body(t)
        max_err = max(max_err, err)
        if err > tol and failing is None:
            failing = {"trial": t, **case}
    return _result(name, trials, max_err, failing)


def _gap(objective_a, objective_b, m, batch) -> float:
    """Largest difference between two objectives' losses and total gradients."""
    loss_a, grad_a = optim.total_loss_and_grad(objective_a, m, batch)
    loss_b, grad_b = optim.total_loss_and_grad(objective_b, m, batch)
    return max(abs(loss_a - loss_b), float(np.max(np.abs(grad_a - grad_b))))


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


def _reduction_checks(seed: int) -> list[dict]:
    def server_mean(t):
        rng = stream(seed, "verify", "red-server-mean", t)
        d = int(rng.integers(1, 101))
        n = int(rng.integers(1, 11))
        post = niw.niw_init(d, int(rng.integers(0, 500)))
        means = [rng.normal(size=d) for _ in range(n)]
        new = niw.niw_server_update(
            means, post, n, p_keep=1.0, epsilon=float(rng.uniform(1e-5, 1e-2))
        )
        expect = n / (n + 1) * np.mean(means, axis=0)
        err = float(np.max(np.abs(new.m0 - expect)))
        return err, {"d": d, "n": n, "err": err}

    def niw_grad(t):
        rng = stream(seed, "verify", "red-niw-grad", t)
        arch = _random_arch(rng)
        d = nn.param_count(arch)
        batch = _random_batch(rng, arch, int(rng.integers(3, 9)))
        n_i = int(rng.integers(5, 200))
        v = float(rng.uniform(0.5, 2.0))
        post = niw.NiwGlobalPosterior(
            m0=rng.normal(size=d) * 0.5,
            v0_diag=np.full(d, v),
            l0=float(rng.uniform(1.0, 20.0)),
            n0=float(d + 2 + rng.uniform(1.0, 100.0)),
            d=d,
        )
        m = post.m0 + rng.normal(size=d) * 0.3
        mu = (post.n0 + d + 1) / (v * n_i)
        err = _gap(
            niw.niw_objective(post, arch, n_i, p_keep=1.0),
            optim.prox_objective(arch, mu, post.m0), m, batch,
        )
        return err, {"arch": list(arch.layer_sizes), "err": err}

    def mix_grad(t):
        rng = stream(seed, "verify", "red-mix-grad", t)
        arch = _random_arch(rng)
        d = nn.param_count(arch)
        batch = _random_batch(rng, arch, int(rng.integers(3, 9)))
        n_i = int(rng.integers(5, 200))
        sigma_sq = float(rng.uniform(0.05, 2.0))
        g = rng.normal(size=d) * 0.5
        m = g + rng.normal(size=d) * 0.3
        post = _mixture_post((g,), sigma_sq, arch.layer_sizes[0])
        err = _gap(
            mixture.mix_objective(post, arch, n_i),
            optim.prox_objective(arch, 1.0 / (sigma_sq * n_i), g), m, batch,
        )
        return err, {"arch": list(arch.layer_sizes), "err": err}

    return [
        _check("niw-full-participation-server-mean-vs-fedavg", 100, REDUCTION_TOL,
               server_mean),
        _check("niw-client-grad-vs-fedprox", 100, REDUCTION_TOL, niw_grad),
        _check("mixture-k1-mstep-vs-shrunk-mean", 100, REDUCTION_TOL,
               _k1_mstep(seed, "red-mix-mstep", 101, 11)),
        _check("mixture-k1-client-grad-vs-fedprox", 100, REDUCTION_TOL, mix_grad),
    ]


# ------------------------------------------------------------------- oracles


def gd_minimize_server_objective(client_means, n0, d, n_clients, p, eps):
    """Gradient-descent minimizer of the explicit server objective.

    Descends over (m0, log v0) with per-block constant rescaling. Phase 1
    uses backtracking line search down to the float64 objective-resolution
    floor; phase 2 switches to a constant-step gradient map (no value
    comparisons) to push the gradient norm below 1e-10.
    """
    M = np.stack(client_means)
    nf = M.shape[0]
    scale = n_clients / nf
    nu0 = d + 2.0
    b_coef = nu0 + scale * nf

    def value(m0, u):
        v = np.exp(u)
        rho = p * M * M - 2 * p * m0 * M + m0 * m0
        val = 0.5 * (
            n0 * np.sum(1 / v) + nu0 * np.sum(u) + n0 * np.sum(m0 * m0 / v)
        )
        val += scale * (
            0.5 * n0 * np.sum((rho + eps**2) / v) + 0.5 * nf * np.sum(u)
        )
        return val

    def grads(m0, u):
        v = np.exp(u)
        g_m = (n0 / v) * (m0 + scale * (nf * m0 - p * M.sum(axis=0)))
        rho = p * M * M - 2 * p * m0 * M + m0 * m0
        a_coef = n0 * (1 + m0 * m0 + scale * np.sum(rho + eps**2, axis=0))
        g_u = -0.5 * a_coef / v + 0.5 * b_coef
        return g_m, g_u

    s_m_sq = b_coef * (1 + n_clients)
    s_u_sq = b_coef / 2
    m0 = M.mean(axis=0)
    u = np.full(d, np.log(n0 / b_coef))
    step = 1.0
    norm = np.inf
    for _ in range(20_000):
        g_m, g_u = grads(m0, u)
        norm = np.sqrt(float(g_m @ g_m) + float(g_u @ g_u))
        if norm < 1e-3:
            break
        d_m, d_u = g_m / s_m_sq, g_u / s_u_sq
        decrease = float(g_m @ d_m) + float(g_u @ d_u)
        base = value(m0, u)
        t = min(step * 4, 1e3)
        while value(m0 - t * d_m, u - t * d_u) > base - 0.5 * t * decrease:
            t /= 2
            if t < 1e-18:
                break
        m0 = m0 - t * d_m
        u = u - t * d_u
        step = t
    for _ in range(200_000):
        g_m, g_u = grads(m0, u)
        norm = np.sqrt(float(g_m @ g_m) + float(g_u @ g_u))
        if norm < 1e-10:
            break
        m0 = m0 - 0.2 * g_m / s_m_sq
        u = u - 0.2 * g_u / s_u_sq
    return m0, np.exp(u), norm


def _fd_err(f, x: np.ndarray, g: np.ndarray, h: float = 1e-6) -> float:
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
    def niw_gd(t):
        rng = stream(seed, "verify", "oracle-niw-gd", t)
        d = int(rng.integers(2, 21))
        n_clients = int(rng.integers(1, 6))
        n_f = int(rng.integers(1, n_clients + 1))
        post = niw.niw_init(d, int(rng.integers(0, 300)))
        p = float(rng.uniform(0.5, 1.0))
        eps = float(rng.uniform(1e-4, 1e-2))
        means = [rng.normal(size=d) for _ in range(n_f)]
        new = niw.niw_server_update(means, post, n_clients, p, eps)
        m0_c, v0_c = new.m0, new.v0_diag
        if mutation == "niw-v0":
            v0_c = v0_c * 1.01
        elif mutation == "niw-m0":
            m0_c = m0_c + 0.01
        m0_star, v0_star, gnorm = gd_minimize_server_objective(
            means, post.n0, d, n_clients, p, eps
        )
        err = max(_rel_err(m0_c, m0_star), _rel_err(v0_c, v0_star))
        if gnorm >= 1e-10:
            err = max(err, 1.0)
        return err, {"d": d, "n_clients": n_clients, "n_f": n_f, "err": err,
                     "gd_grad_norm": gnorm}

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
        return max(0.0, after - before), {
            "d": d, "k": k, "n": n, "before": before, "after": after,
        }

    def grad_fd_case(t, which):
        rng = stream(seed, "verify", "oracle-fd", which, t)
        arch = _random_arch(rng, max_params=60)
        d = nn.param_count(arch)
        batch = _random_batch(rng, arch, int(rng.integers(3, 7)))
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
                lambda x: obj(x, batch)[0], m,
                optim.total_loss_and_grad(obj, m, batch)[1],
            )
            for obj in objectives
        )
        return err, {"which": which, "err": err}

    return [
        _check("niw-server-closed-form-vs-gd", 50, ORACLE_REL_TOL, niw_gd),
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
            for layer in mask.keep:
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
    return [
        _result(
            "running-average-objective-non-increasing", len(objs),
            float(np.max(np.maximum(steps, 0.0))),
            None if fit.monotone else {
                "first_increase_at": int(np.argmax(steps > 1e-12)) + 11,
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
        "elapsed_s": sum(r["elapsed_s"] for r in reports),
        "suites": reports,
    }
