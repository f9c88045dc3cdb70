"""Tests for the mixture-of-prototypes strategy.

Closed-form hand examples, finite-difference oracles, EM monotonicity over
randomized instances, permutation equivariance, and reductions to FedProx
and single-model prediction at K=1.
"""

import numpy as np
import pytest

from fedsim import mixture, nn, optim
from fedsim.optim import local_train, prox_objective, total_loss_and_grad
from fedsim.rng import stream
from fedsim.runtime import FederatedConfig
from fedsim.strategies import STRATEGIES

from test_nn import central_diff_grad, make_batch, rel_err


def make_global(prototypes, sigma_sq=0.1, epsilon=1e-4, gating_arch=None,
                gating=None, seed=0):
    prototypes = tuple(np.asarray(r, dtype=np.float64) for r in prototypes)
    if gating_arch is None:
        gating_arch = nn.MlpArch((4, 6, len(prototypes)))
    if gating is None:
        gating = nn.init_params(gating_arch, stream(seed, "gating"))
    return mixture.MixtureGlobalPosterior(
        prototypes=prototypes,
        sigma_sq=sigma_sq,
        epsilon=epsilon,
        gating=gating,
        gating_arch=gating_arch,
    )


def sgd_penalty(m, protos, sigma_sq):
    """The penalty's value and gradient as the plain-SGD objective adds them.

    A one-class MLP has zero cross-entropy and zero data gradient, and data
    size 1 leaves the penalty unscaled.
    """
    arch = nn.MlpArch((m.size - 1, 1))
    batch = nn.Batch(inputs=np.zeros((1, m.size - 1)),
                     labels=np.zeros(1, dtype=np.int64))
    gp = make_global(protos, sigma_sq=sigma_sq)
    objective = mixture.mix_objective(gp, arch, 1, majorize=False)
    return total_loss_and_grad(objective, m, batch)


class TestTypes:
    def test_rejects_empty_prototypes(self):
        arch = nn.MlpArch((4, 6, 1))
        with pytest.raises(ValueError, match="at least one"):
            make_global((), gating_arch=arch,
                        gating=np.zeros(nn.param_count(arch)))

    def test_rejects_nonpositive_sigma_sq(self):
        with pytest.raises(ValueError, match="sigma_sq"):
            make_global([np.zeros(3)], sigma_sq=0.0)

    def test_rejects_gating_output_mismatch(self):
        arch = nn.MlpArch((4, 6, 3))
        with pytest.raises(ValueError, match="K="):
            make_global([np.zeros(3), np.zeros(3)], gating_arch=arch,
                        gating=np.zeros(nn.param_count(arch)))

    def test_rejects_gating_shape_mismatch(self):
        arch = nn.MlpArch((4, 6, 2))
        with pytest.raises(ValueError, match="gating parameter"):
            make_global([np.zeros(3), np.zeros(3)], gating_arch=arch,
                        gating=np.zeros(3))

    def test_global_posterior_needs_positive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            make_global([np.zeros(3)], epsilon=0.0)


class TestPenalty:
    def test_single_prototype_is_quadratic(self):
        rng = stream(11, "pen-k1")
        m = rng.normal(size=7)
        r = rng.normal(size=7)
        sigma_sq = 0.3
        value, grad = sgd_penalty(m, (r,), sigma_sq)
        diff = m - r
        assert abs(value - float(diff @ diff) / (2 * sigma_sq)) < 1e-12
        np.testing.assert_allclose(grad, diff / sigma_sq, rtol=1e-12)

    def test_equidistant_value(self):
        # m at the origin, each prototype at distance D along its own axis
        d_dist = 1.7
        protos = tuple(d_dist * np.eye(4)[j] for j in range(3))
        sigma_sq = 0.5
        value, grad = sgd_penalty(np.zeros(4), protos, sigma_sq)
        assert abs(value - (d_dist**2 / (2 * sigma_sq) - np.log(3))) < 1e-12
        _, weights = mixture.mix_penalty(np.zeros(4), protos, sigma_sq)
        np.testing.assert_allclose(weights, 1.0 / 3.0, atol=1e-15)
        # symmetric pull: gradient is the mean pull toward the centroid
        expect = sum((np.zeros(4) - r) / 3 for r in protos) / sigma_sq
        np.testing.assert_allclose(grad, expect, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = stream(12, "pen-fd")
        protos = tuple(rng.normal(size=5) for _ in range(3))
        m = rng.normal(size=5)
        sigma_sq = 0.2
        _, grad = sgd_penalty(m, protos, sigma_sq)
        fd = central_diff_grad(
            lambda x: mixture.mix_penalty(x, protos, sigma_sq)[0], m
        )
        assert rel_err(grad, fd).max() < 1e-6

    def test_finite_at_huge_distances(self):
        m = np.zeros(2)
        protos = (np.array([1e8, 0.0]), np.array([0.5, 0.0]))
        value, grad = sgd_penalty(m, protos, 0.1)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        # the near prototype dominates entirely
        assert abs(value - 0.25 / 0.2) < 1e-12
        obj = mixture.mix_server_objective(protos, [m, np.ones(2) * 1e8], 0.1)
        assert np.isfinite(obj)
        c = mixture.mix_e_step([m], protos, 0.1)
        assert np.isfinite(c).all() and abs(c.sum() - 1.0) < 1e-12


class TestClientLossGrad:
    """The mixture local objective, in both its step forms: majorizer steps
    (client training) and plain SGD steps (personalization)."""

    def test_at_prototype_penalty_vanishes(self):
        rng = stream(21, "at-proto")
        arch = nn.MlpArch((4, 5, 3))
        r0 = nn.init_params(arch, rng)
        r1 = r0 + 100.0
        gp = make_global([r0, r1], gating_arch=nn.MlpArch((4, 5, 2)))
        batch = make_batch(rng, 6, 4, 3)
        loss, _, _, _ = mixture.mix_objective(gp, arch, 20)(r0.copy(), batch)
        ce, _ = nn.loss_and_grad(r0, arch, batch)
        assert abs(loss - ce) < 1e-12

    def test_single_prototype_equals_fedprox(self):
        rng = stream(22, "k1-prox")
        arch = nn.MlpArch((4, 5, 3))
        r = nn.init_params(arch, rng)
        m = r + 0.1 * rng.normal(size=r.size)
        gp = make_global([r], sigma_sq=0.3,
                         gating_arch=nn.MlpArch((4, 5, 1)))
        batch = make_batch(rng, 6, 4, 3)
        data_size = 25
        mu = 1.0 / (gp.sigma_sq * data_size)
        ploss, pgrad = total_loss_and_grad(prox_objective(arch, mu, r), m, batch)
        for majorize in (True, False):
            loss, grad = total_loss_and_grad(
                mixture.mix_objective(gp, arch, data_size, majorize), m, batch
            )
            assert abs(loss - ploss) < 1e-12
            np.testing.assert_allclose(grad, pgrad, atol=1e-12)

    def test_single_prototype_majorizer_is_the_fedprox_step(self):
        rng = stream(22, "k1-step")
        arch = nn.MlpArch((4, 5, 3))
        r = nn.init_params(arch, rng)
        gp = make_global([r], sigma_sq=0.3, gating_arch=nn.MlpArch((4, 5, 1)))
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        runs = [
            local_train(r + 0.1, objective, x, y, 10, 2, 0.1, stream(22, "b"))
            for objective in (
                mixture.mix_objective(gp, arch, 30),
                prox_objective(arch, 1.0 / (0.3 * 30), r),
            )
        ]
        assert np.array_equal(runs[0][0], runs[1][0])

    def test_total_gradient_matches_finite_differences(self):
        rng = stream(23, "total-fd")
        arch = nn.MlpArch((3, 4, 3))
        protos = tuple(nn.init_params(arch, rng) for _ in range(2))
        gp = make_global(protos, sigma_sq=0.5,
                         gating_arch=nn.MlpArch((3, 4, 2)))
        m = nn.init_params(arch, rng)
        batch = make_batch(rng, 8, 3, 3)
        for majorize in (True, False):
            objective = mixture.mix_objective(gp, arch, 10, majorize)
            _, grad = total_loss_and_grad(objective, m, batch)
            fd = central_diff_grad(lambda x: objective(x, batch)[0], m)
            assert rel_err(grad, fd).max() < 1e-5

    def test_one_distance_pass_per_local_step(self, monkeypatch):
        calls = {"mix_penalty": 0, "prototype_weights": 0, "steps": 0}

        def count(module, name, key):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(mixture, "mix_penalty", "mix_penalty")
        count(mixture, "prototype_weights", "prototype_weights")
        count(optim, "prox_quadratic_step", "steps")
        rng = stream(24, "passes")
        arch = nn.MlpArch((4, 5, 3))
        config = FederatedConfig(
            n_clients=1, strategy="mixture", local_epochs=2, batch_size=10
        )
        strategy = STRATEGIES["mixture"]
        state = strategy.init_state(arch, nn.init_params(arch, rng), config, 30)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        strategy.client_update(state, 0, x, y, arch, config, 0.1, 1)
        assert calls == {"mix_penalty": 6, "prototype_weights": 0, "steps": 6}

    def test_rejects_empty_dataset_size(self):
        arch = nn.MlpArch((4, 5, 3))
        gp = make_global([np.zeros(nn.param_count(arch))],
                         gating_arch=nn.MlpArch((4, 5, 1)))
        with pytest.raises(ValueError, match="data_size"):
            mixture.mix_objective(gp, arch, 0)


class TestEStep:
    def test_rows_stochastic_and_bounded(self):
        rng = stream(31, "estep")
        means = [rng.normal(size=6) for _ in range(5)]
        protos = tuple(rng.normal(size=6) for _ in range(3))
        c = mixture.mix_e_step(means, protos, 0.4)
        assert c.shape == (5, 3)
        np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-12)
        assert (c >= 0).all() and (c <= 1).all()

    def test_equidistant_gives_uniform(self):
        protos = tuple(2.0 * np.eye(3)[j] for j in range(3))
        c = mixture.mix_e_step([np.zeros(3)], protos, 0.7)
        np.testing.assert_allclose(c, 1.0 / 3.0, atol=1e-12)

    def test_tiny_sigma_snaps_to_nearest(self):
        means = [np.array([0.3, 0.0])]
        protos = (np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        c = mixture.mix_e_step(means, protos, 1e-6)
        assert c[0, 0] > 1 - 1e-9
        assert c[0].argmax() == 0

    def test_two_prototype_hand_value(self):
        # distances 1 and 3 from m=0 with sigma^2 = 0.5: scaled squared
        # distances 1 and 9, so the near weight is 1/(1+e^-8)
        c = mixture.mix_e_step(
            [np.array([0.0])],
            (np.array([-1.0]), np.array([3.0])),
            0.5,
        )
        expect = 1.0 / (1.0 + np.exp(-8.0))
        assert abs(c[0, 0] - expect) < 1e-15
        assert abs(c[0, 1] - (1.0 - expect)) < 1e-15

    def test_invariant_to_common_distance_shift(self):
        # lifting every prototype by the same offset orthogonal to the data
        # plane adds a constant to all squared distances
        rng = stream(32, "shift")
        xs = rng.normal(size=4)
        base = tuple(np.array([x, 0.0]) for x in xs)
        lifted = tuple(np.array([x, 1.3]) for x in xs)
        m = [np.array([0.2, 0.0])]
        np.testing.assert_allclose(
            mixture.mix_e_step(m, base, 0.5),
            mixture.mix_e_step(m, lifted, 0.5),
            atol=1e-12,
        )

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            mixture.mix_e_step([], (np.zeros(2),), 0.1)


class TestMStep:
    def test_two_client_hand_value(self):
        means = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        c = np.ones((2, 1))
        (r,) = mixture.mix_m_step(means, c, 0.1, n_clients=2)
        np.testing.assert_allclose(r, np.array([1 / 2.1, 1 / 2.1]), rtol=1e-12)

    def test_one_hot_partition_ignores_other_cluster(self):
        rng = stream(41, "onehot")
        means = [rng.normal(size=3) for _ in range(4)]
        c = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        out = mixture.mix_m_step(means, c, 0.2, n_clients=4)
        # each prototype is the shrunk mean of its own cluster
        expect0 = (means[0] + means[1]) / 4 / (0.2 / 4 + 0.5)
        np.testing.assert_allclose(out[0], expect0, rtol=1e-12)
        # perturbing the other cluster leaves it untouched
        means2 = [means[0], means[1], means[2] + 5, means[3] - 7]
        out2 = mixture.mix_m_step(means2, c, 0.2, n_clients=4)
        np.testing.assert_array_equal(out[0], out2[0])

    def test_zeroes_quadratic_surrogate_gradient(self):
        rng = stream(42, "surrogate")
        for trial in range(10):
            d = int(rng.integers(2, 11))
            k = int(rng.integers(1, 4))
            n_f = int(rng.integers(2, 7))
            n = n_f + int(rng.integers(0, 5))
            sigma_sq = float(rng.uniform(0.05, 1.5))
            means = [rng.normal(size=d) for _ in range(n_f)]
            protos = tuple(rng.normal(size=d) for _ in range(k))
            c = mixture.mix_e_step(means, protos, sigma_sq)
            out = mixture.mix_m_step(means, c, sigma_sq, n)
            for j in range(k):
                grad = (sigma_sq / n) * out[j]
                for i, m in enumerate(means):
                    grad = grad + c[i, j] * (out[j] - m) / n_f
                assert np.linalg.norm(grad) < 1e-10, f"trial {trial}"

    def test_prototype_permutation_equivariance(self):
        rng = stream(43, "perm")
        means = [rng.normal(size=5) for _ in range(4)]
        protos = tuple(rng.normal(size=5) for _ in range(3))
        sigma_sq = 0.3
        perm = np.array([2, 0, 1])
        permuted = tuple(protos[j] for j in perm)

        c = mixture.mix_e_step(means, protos, sigma_sq)
        c_perm = mixture.mix_e_step(means, permuted, sigma_sq)
        np.testing.assert_allclose(c_perm, c[:, perm], atol=1e-12)

        out = mixture.mix_m_step(means, c, sigma_sq, 6)
        out_perm = mixture.mix_m_step(means, c[:, perm], sigma_sq, 6)
        for j in range(3):
            np.testing.assert_array_equal(out_perm[j], out[perm[j]])

        v1, _ = mixture.mix_penalty(means[0], protos, sigma_sq)
        v2, _ = mixture.mix_penalty(means[0], permuted, sigma_sq)
        assert abs(v1 - v2) < 1e-12
        o1 = mixture.mix_server_objective(protos, means, sigma_sq)
        o2 = mixture.mix_server_objective(permuted, means, sigma_sq)
        assert abs(o1 - o2) < 1e-12


class TestServerObjective:
    def test_all_zero_instance(self):
        protos = tuple(np.zeros(4) for _ in range(3))
        means = [np.zeros(4) for _ in range(5)]
        obj = mixture.mix_server_objective(protos, means, 0.1)
        assert abs(obj - (-5 * np.log(3))) < 1e-12

    def test_single_prototype_quadratic_minimizer(self):
        # with one prototype the objective is an explicit quadratic whose
        # argmin is sum(m_i) / (sigma^2 + N); the EM update must match it
        rng = stream(51, "quad")
        means = [rng.normal(size=4) for _ in range(5)]
        sigma_sq = 0.4
        argmin = sum(means) / (sigma_sq + len(means))
        c = np.ones((5, 1))
        (r,) = mixture.mix_m_step(means, c, sigma_sq, n_clients=5)
        np.testing.assert_allclose(r, argmin, rtol=1e-12)
        base = mixture.mix_server_objective((r,), means, sigma_sq)
        for _ in range(5):
            other = r + 0.1 * rng.normal(size=4)
            assert mixture.mix_server_objective((other,), means, sigma_sq) > base

    def test_em_step_never_increases_objective(self):
        rng = stream(52, "em-mono")
        for trial in range(100):
            d = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            sigma_sq = float(rng.uniform(0.05, 2.0))
            means = [rng.normal(size=d) * rng.uniform(0.5, 3.0)
                     for _ in range(n)]
            protos = tuple(rng.normal(size=d) for _ in range(k))
            before = mixture.mix_server_objective(protos, means, sigma_sq)
            c = mixture.mix_e_step(means, protos, sigma_sq)
            after_protos = mixture.mix_m_step(means, c, sigma_sq, n)
            after = mixture.mix_server_objective(after_protos, means, sigma_sq)
            assert after <= before + 1e-10, f"trial {trial}: {before} -> {after}"


class TestGating:
    def test_single_prototype_labels_zero(self):
        rng = stream(61, "gate-k1")
        arch = nn.MlpArch((4, 5, 1))
        beta = nn.init_params(arch, rng)
        x = rng.normal(size=(6, 4))
        m = rng.normal(size=3)
        out = mixture.gating_local_update(beta, arch, x, m, (m + 1,), lr=0.1)
        batch = nn.Batch(inputs=x, labels=np.zeros(6, dtype=np.int64))
        _, grad = nn.loss_and_grad(beta, arch, batch)
        np.testing.assert_array_equal(out, nn.sgd_step(beta, grad, 0.1))

    def test_label_is_nearest_prototype_index(self):
        rng = stream(62, "gate-near")
        arch = nn.MlpArch((4, 5, 3))
        beta = nn.init_params(arch, rng)
        x = rng.normal(size=(5, 4))
        protos = (np.full(3, 10.0), np.array([1.0, 2.0, 3.0]), np.full(3, -10.0))
        m = protos[1].copy()
        out = mixture.gating_local_update(beta, arch, x, m, protos, lr=0.2)
        batch = nn.Batch(inputs=x, labels=np.ones(5, dtype=np.int64))
        _, grad = nn.loss_and_grad(beta, arch, batch)
        np.testing.assert_array_equal(out, nn.sgd_step(beta, grad, 0.2))

    def test_distance_ties_pick_lowest_index(self):
        protos = (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  np.array([9.0, 9.0]))
        assert mixture.nearest_prototype(np.zeros(2), protos) == 0

    def test_head_frozen_leaves_head_slice(self):
        rng = stream(63, "gate-frozen")
        arch = nn.MlpArch((4, 5, 2))
        beta = nn.init_params(arch, rng)
        x = rng.normal(size=(6, 4))
        out = mixture.gating_local_update(
            beta, arch, x, np.zeros(2), (np.zeros(2), np.ones(2)),
            lr=0.1, head_frozen=True)
        head = nn.head_freeze_mask(arch)
        np.testing.assert_array_equal(out[head], beta[head])
        assert not np.array_equal(out[~head], beta[~head])

    def test_training_learns_cluster_assignment(self):
        rng = stream(64, "gate-train")
        arch = nn.MlpArch((4, 8, 2))
        beta = nn.init_params(arch, rng)
        protos = (np.zeros(3), np.ones(3))
        x_a = rng.normal(loc=1.5, scale=0.4, size=(40, 4))
        x_b = rng.normal(loc=-1.5, scale=0.4, size=(40, 4))
        m_a, m_b = protos[0] + 0.01, protos[1] - 0.01
        for _ in range(200):
            beta = mixture.gating_local_update(beta, arch, x_a, m_a, protos, 0.2)
            beta = mixture.gating_local_update(beta, arch, x_b, m_b, protos, 0.2)
        batch_all = nn.Batch(
            inputs=np.vstack([x_a, x_b]),
            labels=np.concatenate([np.zeros(40, dtype=np.int64),
                                   np.ones(40, dtype=np.int64)]),
        )
        pred = nn.forward(beta, arch, batch_all).argmax(axis=1)
        acc = float((pred == batch_all.labels).mean())
        assert acc > 0.9, f"gating accuracy {acc}"


class TestGlobalPredict:
    def test_single_expert_matches_plain_softmax(self):
        rng = stream(71, "pred-k1")
        arch = nn.MlpArch((4, 6, 3))
        r = nn.init_params(arch, rng)
        gp = make_global([r], gating_arch=nn.MlpArch((4, 6, 1)), seed=7)
        x = rng.normal(size=(5, 4))
        out = mixture.mix_global_predict(x, gp, arch)
        batch = nn.Batch(inputs=x, labels=np.zeros(5, dtype=np.int64))
        np.testing.assert_allclose(
            out, nn.softmax(nn.forward(r, arch, batch)), atol=1e-15)

    def test_identical_experts_ignore_gating(self):
        rng = stream(72, "pred-same")
        arch = nn.MlpArch((4, 6, 3))
        r = nn.init_params(arch, rng)
        garch = nn.MlpArch((4, 6, 2))
        gp1 = make_global([r, r], gating_arch=garch,
                          gating=nn.init_params(garch, stream(1, "g")))
        gp2 = make_global([r, r], gating_arch=garch,
                          gating=nn.init_params(garch, stream(2, "g")))
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            mixture.mix_global_predict(x, gp1, arch),
            mixture.mix_global_predict(x, gp2, arch),
            atol=1e-12,
        )

    def test_one_hot_gating_selects_single_expert(self):
        rng = stream(73, "pred-onehot")
        arch = nn.MlpArch((4, 6, 3))
        protos = [nn.init_params(arch, stream(73, "p", j)) for j in range(3)]
        garch = nn.MlpArch((4, 6, 3))
        gating = np.zeros(nn.param_count(garch))
        w_span, b_span = nn.layer_spans(garch)[-1]
        bias = np.zeros(3)
        bias[1] = 50.0
        gating[b_span] = bias
        gp = make_global(protos, gating_arch=garch, gating=gating)
        x = rng.normal(size=(5, 4))
        out = mixture.mix_global_predict(x, gp, arch)
        batch = nn.Batch(inputs=x, labels=np.zeros(5, dtype=np.int64))
        expert = nn.softmax(nn.forward(protos[1], arch, batch))
        np.testing.assert_allclose(out, expert, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = stream(74, "pred-rows")
        arch = nn.MlpArch((4, 6, 3))
        protos = [nn.init_params(arch, stream(74, "p", j)) for j in range(2)]
        gp = make_global(protos, gating_arch=nn.MlpArch((4, 6, 2)))
        out = mixture.mix_global_predict(rng.normal(size=(9, 4)), gp, arch)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert (out >= 0).all()


def train_plain(params, arch, inputs, labels, steps, lr, rng, batch=20):
    m = params.copy()
    n = inputs.shape[0]
    for _ in range(steps):
        idx = rng.integers(0, n, size=batch)
        b = nn.Batch(inputs=inputs[idx], labels=labels[idx])
        _, g = nn.loss_and_grad(m, arch, b)
        m = nn.sgd_step(m, g, lr)
    return m


class TestPersonalize:
    def test_zero_epochs_returns_a_prototype(self):
        rng = stream(81, "pz")
        arch = nn.MlpArch((4, 5, 3))
        protos = [nn.init_params(arch, stream(81, "p", j)) for j in range(2)]
        gp = make_global(protos, gating_arch=nn.MlpArch((4, 5, 2)))
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        for mode in ("proxy", "per_prototype"):
            m = mixture.mix_personalize(x, y, gp, arch, epochs=0, lr=0.1,
                                        rng=stream(81, mode),
                                        warm_start=mode)
            assert any(np.array_equal(m, r) for r in protos), mode

    def test_huge_sigma_reduces_to_plain_finetuning(self):
        rng = stream(82, "ps")
        arch = nn.MlpArch((4, 5, 3))
        r = nn.init_params(arch, rng)
        gp = make_global([r], sigma_sq=1e18,
                         gating_arch=nn.MlpArch((4, 5, 1)))
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        out = mixture.mix_personalize(x, y, gp, arch, epochs=2, lr=0.1,
                                      rng=stream(82, "run"),
                                      batch_size=10)
        # full-batch steps make the shuffle order irrelevant; the proxy
        # warm-up epoch only picks the start (here the lone prototype), so
        # the tuned result is two plain steps from r
        m = r.copy()
        batch = nn.Batch(inputs=x, labels=y)
        for _ in range(2):
            _, g = nn.loss_and_grad(m, arch, batch)
            m = nn.sgd_step(m, g, 0.1)
        np.testing.assert_allclose(out, m, atol=1e-9)

    def test_warm_start_from_matching_cluster_wins(self):
        rng = stream(83, "pw")
        arch = nn.MlpArch((4, 8, 2))
        x_train = rng.normal(size=(120, 4))
        y_a = (x_train @ np.array([1.0, 1.0, -1.0, 0.5]) > 0).astype(np.int64)
        y_b = 1 - y_a  # the second task inverts every label
        init = nn.init_params(arch, stream(83, "init"))
        m_a = train_plain(init, arch, x_train, y_a, 300, 0.3, stream(83, "ta"))
        m_b = train_plain(init, arch, x_train, y_b, 300, 0.3, stream(83, "tb"))
        gp = make_global([m_a, m_b], sigma_sq=0.1,
                         gating_arch=nn.MlpArch((4, 8, 2)))

        x_p = rng.normal(size=(20, 4))
        y_p = (x_p @ np.array([1.0, 1.0, -1.0, 0.5]) > 0).astype(np.int64)
        x_test = rng.normal(size=(200, 4))
        y_test = (x_test @ np.array([1.0, 1.0, -1.0, 0.5]) > 0).astype(np.int64)

        def accuracy(m):
            b = nn.Batch(inputs=x_test, labels=y_test)
            return float((nn.forward(m, arch, b).argmax(axis=1) == y_test).mean())

        good = mixture.mix_personalize(x_p, y_p, gp, arch, epochs=2, lr=0.1,
                                       rng=stream(83, "good"), batch_size=10)
        # same protocol forced to start at the mismatched prototype
        bad, _ = local_train(
            m_b, mixture.mix_objective(gp, arch, 20, majorize=False), x_p, y_p,
            10, 2, 0.1, stream(83, "bad"),
        )
        acc_good, acc_bad = accuracy(good), accuracy(bad)
        assert acc_good >= acc_bad + 0.3, f"good {acc_good} vs bad {acc_bad}"

    def test_rejects_unknown_warm_start(self):
        arch = nn.MlpArch((4, 5, 3))
        gp = make_global([np.zeros(nn.param_count(arch))],
                         gating_arch=nn.MlpArch((4, 5, 1)))
        with pytest.raises(ValueError, match="warm_start"):
            mixture.mix_personalize(np.zeros((2, 4)),
                                    np.zeros(2, dtype=np.int64), gp, arch,
                                    epochs=1, lr=0.1, rng=stream(0),
                                    warm_start="best")

    def test_rejects_empty_personal_data(self):
        arch = nn.MlpArch((4, 5, 3))
        gp = make_global([np.zeros(nn.param_count(arch))],
                         gating_arch=nn.MlpArch((4, 5, 1)))
        with pytest.raises(ValueError, match="empty"):
            mixture.mix_personalize(np.zeros((0, 4)),
                                    np.zeros(0, dtype=np.int64), gp, arch,
                                    epochs=1, lr=0.1, rng=stream(0))
