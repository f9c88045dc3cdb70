"""NIW strategy: init, client objective, closed-form server update, sampling,
prediction, personalization. The server update is checked against an
independent gradient-descent oracle on the explicit objective."""

import os
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from fedsim import fanout, nn, niw
from fedsim.optim import local_train, prox_objective, total_loss_and_grad
from fedsim.rng import stream
from fedsim.runtime import FederatedConfig

from test_fanout import needs_openblas, within
from test_nn import central_diff_grad, make_batch, rel_err


def random_posterior(d, total, rng, v_lo=0.5, v_hi=2.0):
    post = niw.niw_init(d, total)
    return niw.NiwGlobalPosterior(
        m0=rng.normal(size=d),
        v0_diag=rng.uniform(v_lo, v_hi, size=d),
        l0=post.l0,
        n0=post.n0,
        d=d,
    )


class TestInit:
    def test_pure_prior(self):
        post = niw.niw_init(10, 0)
        assert post.l0 == 1 and post.n0 == 12
        assert np.array_equal(post.m0, np.zeros(10))
        assert np.array_equal(post.v0_diag, np.ones(10))

    def test_mnist_scale_counts(self):
        post = niw.niw_init(203530, 50000)
        assert post.l0 == 50001 and post.n0 == 253532

    def test_small_counts(self):
        post = niw.niw_init(10, 100)
        assert post.l0 == 101 and post.n0 == 112

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            niw.niw_init(0, 5)
        with pytest.raises(ValueError):
            niw.niw_init(3, -1)


class TestClientLossGrad:
    """The NIW local objective the client update and personalization train on."""

    def setup_method(self):
        self.arch = nn.MlpArch((4, 6, 3))
        self.d = nn.param_count(self.arch)
        self.rng = np.random.default_rng(31)
        self.post = random_posterior(self.d, 60, self.rng)
        self.x, self.y = make_batch(self.rng, 5, 4, 3)

    def test_penalty_vanishes_at_center(self):
        objective = niw.niw_objective(self.post, self.arch, 20, p_keep=1.0)
        loss, grad = total_loss_and_grad(objective, self.post.m0.copy(), self.x, self.y)
        ce, ce_grad = nn.loss_and_grad(self.post.m0, self.arch, self.x, self.y)
        assert loss == pytest.approx(ce, abs=1e-15)
        assert np.allclose(grad, ce_grad, atol=1e-15)

    def test_matches_fedprox_under_isotropic_v0(self):
        alpha = 0.7
        data_size = 20
        post = niw.NiwGlobalPosterior(
            m0=self.rng.normal(size=self.d),
            v0_diag=np.full(self.d, alpha),
            l0=self.post.l0,
            n0=self.post.n0,
            d=self.d,
        )
        m_i = self.rng.normal(size=self.d)
        loss_a, grad_a = total_loss_and_grad(
            niw.niw_objective(post, self.arch, data_size, p_keep=1.0), m_i, self.x, self.y
        )
        mu = (post.n0 + self.d + 1) / (alpha * data_size)
        loss_b, grad_b = total_loss_and_grad(
            prox_objective(self.arch, mu, post.m0), m_i, self.x, self.y
        )
        assert abs(loss_a - loss_b) < 1e-12 * max(1.0, abs(loss_b))
        assert np.max(np.abs(grad_a - grad_b)) < 1e-12 * max(1.0, np.abs(grad_b).max())

    def test_gradient_matches_finite_differences_fixed_mask(self):
        m_i = self.rng.normal(size=self.d) * 0.3

        def objective():
            # a freshly seeded mask stream draws the same mask every time
            return niw.niw_objective(
                self.post, self.arch, 20, p_keep=0.8, mask_rng=stream(7, "mask")
            )

        mask = nn.sample_dropout_mask(0.8, self.arch, stream(7, "mask"))
        assert not all(layer.all() for layer in mask)
        _, grad = total_loss_and_grad(objective(), m_i, self.x, self.y)
        fd = central_diff_grad(lambda p: objective()(p, self.x, self.y)[0], m_i)
        assert rel_err(grad, fd).max() < 1e-5

    def test_normalized_mode_drops_confidence_factor(self):
        m_i = self.rng.normal(size=self.d)
        _, g_lit = total_loss_and_grad(
            niw.niw_objective(self.post, self.arch, 20, p_keep=1.0), m_i, self.x, self.y
        )
        _, g_norm = total_loss_and_grad(
            niw.niw_objective(
                self.post, self.arch, 20, p_keep=1.0, penalty_mode="normalized"
            ),
            m_i, self.x, self.y,
        )
        _, g_ce = nn.loss_and_grad(m_i, self.arch, self.x, self.y)
        factor = self.post.n0 + self.d + 1
        assert np.allclose(g_lit - g_ce, factor * (g_norm - g_ce), rtol=1e-12)

    def test_v0_floor_violation_raises(self):
        post = niw.NiwGlobalPosterior(
            m0=np.zeros(self.d),
            v0_diag=np.full(self.d, 1e-9),
            l0=61.0,
            n0=60 + self.d + 2,
            d=self.d,
        )
        with pytest.raises(niw.VarianceFloorViolation):
            niw.niw_objective(post, self.arch, 20, p_keep=1.0)

    def test_penalty_symmetry(self):
        # swapping m_i - m0 with m0 - m_i leaves the penalty unchanged
        diff = self.rng.normal(size=self.d)
        w = niw.penalty_weight(self.post, 0.9, 20)
        assert 0.5 * float(w @ (diff * diff)) == 0.5 * float(w @ ((-diff) * (-diff)))


def oracle_minimize_server_objective(client_means, n0, d, n_clients, p, eps):
    """Independent oracle: plain gradient descent with backtracking on the
    explicit server objective over (m0, log v0), run until the gradient norm
    in the original variables drops below 1e-10. The variables are rescaled
    by constant per-block factors first (a fixed linear reparameterization)
    so the descent is well conditioned."""
    M = np.stack(client_means)
    nf = M.shape[0]
    scale = n_clients / nf
    nu0 = d + 2.0
    b_coef = nu0 + scale * nf  # = nu0 + N, the log v coefficient

    def value(m0, u):
        v = np.exp(u)
        rho = p * M * M - 2 * p * m0 * M + m0 * m0
        val = 0.5 * (n0 * np.sum(1 / v) + nu0 * np.sum(u) + n0 * np.sum(m0 * m0 / v))
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

    # typical curvatures: ~n0(1+N)/v_ref in m0 (v_ref = n0/b_coef), ~b_coef/2 in u;
    # descent runs in variables rescaled by these so the problem is O(1)-conditioned
    s_m_sq = b_coef * (1 + n_clients)
    s_u_sq = b_coef / 2

    m0 = M.mean(axis=0)
    u = np.full(d, np.log(n0 / b_coef))
    step = 1.0
    norm = np.inf

    # phase 1: backtracking line search until objective resolution is exhausted
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

    # phase 2: constant-step gradient iteration (pure gradient map; no value
    # comparisons, so float64 objective resolution no longer limits the norm)
    for _ in range(200_000):
        g_m, g_u = grads(m0, u)
        norm = np.sqrt(float(g_m @ g_m) + float(g_u @ g_u))
        if norm < 1e-10:
            break
        m0 = m0 - 0.2 * g_m / s_m_sq
        u = u - 0.2 * g_u / s_u_sq
    return m0, np.exp(u), norm


class TestServerUpdate:
    def test_hand_example(self):
        post = niw.NiwGlobalPosterior(
            m0=np.zeros(2), v0_diag=np.ones(2), l0=3.0, n0=5.0, d=2
        )
        means = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        new = niw.niw_server_update(means, post, 2, p_keep=1.0, epsilon=1e-12)
        assert np.allclose(new.m0, [1 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(new.v0_diag, 25 / 18, atol=1e-9)

    def test_fedavg_reduction(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 8):
            d = 6
            post = random_posterior(d, 50, rng)
            means = [rng.normal(size=d) for _ in range(n)]
            new = niw.niw_server_update(means, post, n, p_keep=1.0, epsilon=1e-4)
            fedavg = np.mean(means, axis=0)
            assert np.allclose(new.m0, n / (n + 1) * fedavg, rtol=1e-12, atol=1e-15)

    def test_single_zero_client(self):
        d = 4
        post = niw.niw_init(d, 10)
        new = niw.niw_server_update(
            [np.zeros(d)], post, 1, p_keep=1.0, epsilon=0.0001
        )
        assert np.array_equal(new.m0, np.zeros(d))
        # all scatter terms vanish up to the epsilon noise floor
        expect = post.n0 / (1 + d + 2) * (1 + 1 * 0.0001**2)
        assert np.allclose(new.v0_diag, expect, rtol=1e-12)

    def test_rho_identity_at_p_one(self):
        rng = np.random.default_rng(4)
        m0 = rng.normal(size=5)
        m_i = rng.normal(size=5)
        rho = 1.0 * m_i * m_i - 2 * 1.0 * m0 * m_i + m0 * m0
        assert np.allclose(rho, (m_i - m0) ** 2, atol=1e-14)

    def test_v0_positive_with_positive_epsilon(self):
        rng = np.random.default_rng(5)
        post = random_posterior(3, 30, rng)
        means = [rng.normal(size=3) * 1e-9 for _ in range(4)]
        new = niw.niw_server_update(means, post, 4, p_keep=0.999, epsilon=1e-4)
        assert np.all(new.v0_diag > 0)

    def test_empty_participants_error(self):
        post = niw.niw_init(3, 10)
        with pytest.raises(ValueError):
            niw.niw_server_update([], post, 4, 1.0, 1e-4)

    def test_frozen_l0_n0(self):
        post = niw.niw_init(3, 10)
        new = niw.niw_server_update([np.ones(3)], post, 2, 0.9, 1e-4)
        assert new.l0 == post.l0 and new.n0 == post.n0

    @pytest.mark.parametrize("trial", range(4))
    def test_closed_form_matches_gd_oracle(self, trial):
        rng = np.random.default_rng(100 + trial)
        d = int(rng.integers(2, 8))
        n_clients = int(rng.integers(1, 6))
        n_f = int(rng.integers(1, n_clients + 1))
        total = int(rng.integers(0, 200))
        p = float(rng.uniform(0.5, 1.0))
        eps = float(rng.uniform(1e-4, 1e-2))
        post = niw.niw_init(d, total)
        means = [rng.normal(size=d) for _ in range(n_f)]
        new = niw.niw_server_update(means, post, n_clients, p, eps)
        m0_star, v0_star, gnorm = oracle_minimize_server_objective(
            means, post.n0, d, n_clients, p, eps
        )
        assert gnorm < 1e-10
        assert rel_err(new.m0, m0_star).max() < 1e-4
        assert rel_err(new.v0_diag, v0_star).max() < 1e-4

    def test_update_minimizes_logged_objective(self):
        # the closed form should score no worse than nearby perturbations
        rng = np.random.default_rng(11)
        d, n = 5, 3
        post = niw.niw_init(d, 40)
        means = [rng.normal(size=d) for _ in range(n)]
        new = niw.niw_server_update(means, post, n, 0.9, 1e-3)
        best = niw.niw_server_objective(new.m0, new.v0_diag, means, post, n, 0.9, 1e-3)
        for _ in range(20):
            m0_p = new.m0 + rng.normal(size=d) * 0.01
            v0_p = new.v0_diag * np.exp(rng.normal(size=d) * 0.01)
            assert (
                niw.niw_server_objective(m0_p, v0_p, means, post, n, 0.9, 1e-3)
                >= best - 1e-9
            )


class TestSampling:
    def make_dof50_posterior(self, d=10, seed=21):
        rng = np.random.default_rng(seed)
        # n0 - d + 1 = 50
        return niw.NiwGlobalPosterior(
            m0=rng.normal(size=d),
            v0_diag=rng.uniform(0.5, 2.0, size=d),
            l0=7.0,
            n0=float(d + 49),
            d=d,
        )

    def test_zero_scale_degenerate(self):
        d = 6
        post = niw.NiwGlobalPosterior(
            m0=np.arange(d, dtype=float),
            v0_diag=np.full(d, 1e-300),
            l0=5.0,
            n0=float(d + 49),
            d=d,
        )
        draw = niw.niw_sample_global(post, stream(0, "s"))
        assert np.allclose(draw, post.m0, atol=1e-140)

    def test_location_recovered(self):
        post = self.make_dof50_posterior()
        rng = stream(123, "samples")
        draws = np.stack([niw.niw_sample_global(post, rng) for _ in range(20_000)])
        scale = niw.predictive_scale(post)
        var = scale * 50 / 48
        se = np.sqrt(var / 20_000)
        assert np.all(np.abs(draws.mean(axis=0) - post.m0) < 4 * se)

    def test_variance_matches_t_formula(self):
        post = self.make_dof50_posterior(seed=22)
        rng = stream(456, "samples")
        draws = np.stack([niw.niw_sample_global(post, rng) for _ in range(20_000)])
        var_expected = niw.predictive_scale(post) * 50 / 48
        var_got = draws.var(axis=0)
        assert np.all(np.abs(var_got - var_expected) / var_expected < 0.05)

    def test_shared_chi_square_couples_coordinates(self):
        # multivariate t: squared deviations are correlated across coordinates
        post = self.make_dof50_posterior(seed=23)
        rng = stream(789, "samples")
        draws = np.stack([niw.niw_sample_global(post, rng) for _ in range(5_000)])
        dev = (draws - post.m0) / np.sqrt(niw.predictive_scale(post))
        corr = np.corrcoef(dev[:, 0] ** 2, dev[:, 1] ** 2)[0, 1]
        assert corr > 0.02  # would be ~0 for independent per-coordinate t


def predict(x, post, arch, sample_count, rng):
    """niw_global_predict on one chunk, x, drawn from rng."""
    (probs,) = niw.niw_global_predict(
        [(0, len(x), rng)], post, arch, sample_count, lambda lo, hi: x[lo:hi]
    )
    return probs


class TestGlobalPredict:
    def test_zero_posterior_uniform(self):
        arch = nn.MlpArch((3, 4, 5))
        d = nn.param_count(arch)
        post = niw.NiwGlobalPosterior(
            m0=np.zeros(d), v0_diag=np.full(d, 1e-300), l0=5.0, n0=float(d + 49), d=d
        )
        probs = predict(
            np.random.default_rng(0).normal(size=(4, 3)), post, arch, 1, stream(0)
        )
        assert np.allclose(probs, 0.2, atol=1e-12)

    def test_s1_equals_softmax_at_draw(self):
        arch = nn.MlpArch((3, 4, 2))
        d = nn.param_count(arch)
        rng = np.random.default_rng(6)
        post = niw.NiwGlobalPosterior(
            m0=rng.normal(size=d),
            v0_diag=rng.uniform(0.5, 1.0, size=d),
            l0=5.0,
            n0=float(d + 49),
            d=d,
        )
        x = rng.normal(size=(5, 3))
        probs = predict(x, post, arch, 1, stream(9, "eval"))
        theta = niw.niw_sample_global(post, stream(9, "eval"))
        assert np.array_equal(probs, nn.softmax(nn.forward(theta, arch, x)))

    @staticmethod
    def chunked(rows=14, size=5):
        """A posterior, (first row, end row, stream) chunks of `size` rows,
        the last one short, and a reader of their rows."""
        arch = nn.MlpArch((3, 4, 2))
        d = nn.param_count(arch)
        rng = np.random.default_rng(10)
        post = niw.NiwGlobalPosterior(
            m0=rng.normal(size=d),
            v0_diag=rng.uniform(0.5, 1.0, size=d),
            l0=5.0,
            n0=float(d + 49),
            d=d,
        )
        x = rng.normal(size=(rows, 3))
        return arch, post, [
            (lo, lo + size, stream(11, "eval", lo)) for lo in range(0, rows, size)
        ], lambda lo, hi: x[lo:hi]

    @needs_openblas
    @pytest.mark.parametrize("sample_count", [1, 4])
    def test_in_place_draws_keep_the_bits(self, sample_count, monkeypatch):
        # the serial loop at one BLAS thread, the draws as one expression
        # each, fresh arrays and scale every time
        arch, post, chunks, read = self.chunked()
        assert len(chunks) >= 3 and len(read(*chunks[-1][:2])) < len(read(*chunks[0][:2]))
        before = fanout.blas_threads(1)
        try:
            want = []
            for lo, hi, _ in chunks:
                x = read(lo, hi)
                draws = stream(11, "eval", lo)
                w = np.zeros((len(x), 2))
                for _ in range(sample_count):
                    z = draws.standard_normal(post.d)
                    u = draws.chisquare(post.t_dof)
                    theta = post.m0 + np.sqrt(niw.predictive_scale(post)) * z * np.sqrt(
                        post.t_dof / u
                    )
                    w += nn.softmax(nn.forward(theta, arch, x))
                want.append(w / sample_count)
        finally:
            fanout.blas_threads(before)
        # helper threads forced on, under frequent thread switches; a
        # forward that waits a little lets the helpers take units while the
        # caller computes its own
        forward, ran_in = nn.forward, set()

        def slow_forward(*args):
            ran_in.add(threading.get_ident())
            time.sleep(0.002)
            return forward(*args)

        monkeypatch.setattr(nn, "forward", slow_forward)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (2, 4):  # 4: more threads than cores
                monkeypatch.setattr(fanout, "workers", lambda n=threads: n)
                ran_in.clear()
                with within(60):
                    chunks = self.chunked()[2]
                    got = niw.niw_global_predict(chunks, post, arch, sample_count, read)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
                assert len(ran_in) > 1
        finally:
            sys.setswitchinterval(interval)

    @needs_openblas
    def test_an_error_names_its_chunk_and_draw_and_leaves_nothing(self, monkeypatch):
        arch, post, chunks, read = self.chunked()
        monkeypatch.setattr(fanout, "workers", lambda: 2)
        forward, calls, lock = nn.forward, [], threading.Lock()

        def seventh_fails(*args):
            with lock:
                calls.append(None)
                if len(calls) == 7:
                    raise FloatingPointError("diverged")
            return forward(*args)

        monkeypatch.setattr(nn, "forward", seventh_fails)
        original = fanout.blas_threads(2)
        try:
            threads = threading.active_count()
            with pytest.raises(FloatingPointError) as err:
                niw.niw_global_predict(chunks, post, arch, 4, read)
            assert threading.active_count() == threads
            assert fanout.blas_threads() == 2
        finally:
            fanout.blas_threads(original)
        # the failure empties the list, so the other thread stops short of the 12 units
        assert len(calls) < 12
        # the 7th forward is of unit 5, 6 or 7: the second chunk's draws 1 to 3
        (note,) = err.value.__notes__
        assert re.fullmatch(r"raised in draw [123] of the eval chunk at test row 5", note)

    @needs_openblas
    @pytest.mark.parametrize("cpus,bundled,threads", [(1, True, 1), (8, False, 2)])
    def test_caller_alone_on_one_cpu_or_without_openblas(
        self, cpus, bundled, threads, monkeypatch
    ):
        # one CPU: the caller alone at one BLAS thread; no bundled OpenBLAS:
        # the caller alone at the host's count, here 2
        arch, post, chunks, read = self.chunked()
        get, put = fanout._openblas()[:2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if not bundled:
            monkeypatch.setattr(fanout, "_openblas", lambda: None)
        forward, seen = nn.forward, set()

        def watched(*args):
            seen.add((threading.current_thread().name, threading.active_count(), get()))
            return forward(*args)

        monkeypatch.setattr(nn, "forward", watched)
        original = get()
        put(2)
        try:
            niw.niw_global_predict(chunks, post, arch, 4, read)
            assert get() == 2
        finally:
            put(original)
        assert seen == {("MainThread", threading.active_count(), threads)}

    def test_rows_are_distributions(self):
        arch = nn.MlpArch((3, 4, 6))
        d = nn.param_count(arch)
        rng = np.random.default_rng(7)
        post = niw.NiwGlobalPosterior(
            m0=rng.normal(size=d),
            v0_diag=rng.uniform(0.5, 1.0, size=d),
            l0=5.0,
            n0=float(d + 49),
            d=d,
        )
        probs = predict(rng.normal(size=(8, 3)), post, arch, 3, stream(1))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_averaging_reduces_prediction_variance(self):
        arch = nn.MlpArch((3, 8, 3))
        d = nn.param_count(arch)
        rng = np.random.default_rng(8)
        post = niw.NiwGlobalPosterior(
            m0=rng.normal(size=d),
            v0_diag=rng.uniform(0.5, 1.0, size=d),
            l0=5.0,
            n0=float(d + 4),  # dof 5: heavy tails, noisy predictions
            d=d,
        )
        x = rng.normal(size=(1, 3))

        def spread(s, tag):
            preds = [
                predict(x, post, arch, s, stream(50, tag, r))[0, 0]
                for r in range(30)
            ]
            return np.var(preds)

        assert spread(64, "s64") < spread(1, "s1")


class TestPersonalize:
    def setup_method(self):
        self.arch = nn.MlpArch((4, 8, 3))
        self.d = nn.param_count(self.arch)
        rng = np.random.default_rng(13)
        self.post = random_posterior(self.d, 80, rng)
        self.inputs = rng.normal(size=(30, 4))
        self.labels = rng.integers(0, 3, size=30)

    def test_zero_epochs_returns_m0(self):
        m = niw.niw_personalize(
            self.inputs, self.labels, self.post, self.arch, FederatedConfig(), 0,
            stream(0),
        )
        assert np.array_equal(m, self.post.m0)

    def test_skipping_the_penalty_value_keeps_the_bits(self):
        # personalization never reads the loss; training on the full
        # objective (value computed) from the same stream gives the same mean
        config = FederatedConfig(batch_size=7)
        got = niw.niw_personalize(
            self.inputs, self.labels, self.post, self.arch, config, 2,
            stream(2, "pers"),
        )
        rng = stream(2, "pers")
        full = niw.niw_objective(
            self.post, self.arch, 30, config.p_keep, config.penalty_mode, rng
        )
        want, _ = local_train(
            self.post.m0, full, self.inputs, self.labels, 7, 2, 0.1, rng
        )
        assert got.tobytes() == want.tobytes()
        # without the value the loss is the dropout CE alone
        m, x, y = self.post.m0 + 0.1, self.inputs, self.labels
        ce_only = niw.niw_objective(
            self.post, self.arch, 30, config.p_keep, config.penalty_mode,
            stream(3, "mask"), penalty_value=False,
        )
        mask = nn.sample_dropout_mask(config.p_keep, self.arch, stream(3, "mask"))
        assert ce_only(m, x, y)[0] == nn.loss_and_grad(m, self.arch, x, y, mask)[0]

    def test_strong_prior_limit_pins_to_m0(self):
        # the penalty weight scales as 1/v0, so a tiny v0 is a very strong prior
        strong = replace(self.post, v0_diag=self.post.v0_diag * 1e-7)
        assert niw.penalty_weight(strong, 0.999, 30).min() > 1e7
        m = niw.niw_personalize(
            self.inputs, self.labels, strong, self.arch, FederatedConfig(), 3,
            stream(1),
        )
        assert np.abs(m - self.post.m0).max() < 1e-3

    def test_personalization_beats_global_on_shifted_clients(self):
        # two clients drawing from disjoint label regions; a few federated
        # rounds then personalize client 0 and compare on its test split
        rng = np.random.default_rng(42)
        arch = nn.MlpArch((4, 10, 4))
        d = nn.param_count(arch)
        centers = rng.normal(size=(4, 4)) * 2.0

        def client_data(labels_used, n):
            y = rng.choice(labels_used, size=n)
            x = centers[y] + rng.normal(size=(n, 4)) * 0.4
            return x, y

        x0, y0 = client_data([0, 1], 80)
        x1, y1 = client_data([2, 3], 80)
        x0t, y0t = client_data([0, 1], 200)

        post = niw.niw_init(d, 160)
        init = nn.init_params(arch, stream(7, "init"))
        post = niw.NiwGlobalPosterior(
            m0=init, v0_diag=post.v0_diag, l0=post.l0, n0=post.n0, d=d
        )
        datasets = [(x0, y0), (x1, y1)]
        for rnd in range(20):
            means = []
            for cid, (x, y) in enumerate(datasets):
                m = niw.niw_personalize(
                    x, y, post, arch, FederatedConfig(batch_size=20), 1,
                    stream(3, "c", rnd, cid),
                )
                means.append(m)
            post = niw.niw_server_update(means, post, 2, 1.0 - 0.001, 1e-4)

        probs = predict(x0t, post, arch, 1, stream(5, "eval"))
        global_acc = float((probs.argmax(axis=1) == y0t).mean())
        m_pers = niw.niw_personalize(
            x0, y0, post, arch, FederatedConfig(batch_size=20), 5,
            stream(6, "pers"),
        )
        pers_acc = float(
            (nn.forward(m_pers, arch, x0t).argmax(axis=1) == y0t).mean()
        )
        assert pers_acc >= global_acc
