"""Tests for the mixture-of-prototypes strategy.

Closed-form hand examples, finite-difference oracles, EM monotonicity over
randomized instances, permutation equivariance, and reductions to FedProx
and single-model prediction at K=1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import mixture, nn, optim
from fedsim.optim import local_train, prox_objective, total_loss_and_grad
from fedsim.rng import stream
from fedsim.runtime import FederatedConfig
from fedsim.strategies import STRATEGIES

from test_nn import central_diff_grad, make_batch, rel_err


def make_global(prototypes, sigma_sq=0.1, gating_arch=None, gating=None, seed=0):
    prototypes = tuple(np.asarray(r, dtype=np.float64) for r in prototypes)
    if gating_arch is None:
        gating_arch = nn.MlpArch((4, 6, len(prototypes)))
    if gating is None:
        gating = nn.init_params(gating_arch, stream(seed, "gating"))
    return mixture.MixtureGlobalPosterior(
        prototypes=prototypes,
        sigma_sq=sigma_sq,
        gating=gating,
        gating_arch=gating_arch,
    )


def sgd_penalty(m, protos, sigma_sq):
    """The penalty's value and gradient as the plain-SGD objective adds them.

    A one-class MLP has zero cross-entropy and zero data gradient, and data
    size 1 leaves the penalty unscaled.
    """
    arch = nn.MlpArch((m.size - 1, 1))
    x, y = np.zeros((1, m.size - 1)), np.zeros(1, dtype=np.int64)
    gp = make_global(protos, sigma_sq=sigma_sq)
    objective = mixture.mix_objective(gp, arch, 1, majorize=False)
    return total_loss_and_grad(objective, m, x, y)


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
        x, y = make_batch(rng, 6, 4, 3)
        loss, _, _, _ = mixture.mix_objective(gp, arch, 20)(r0.copy(), x, y)
        ce, _ = nn.loss_and_grad(r0, arch, x, y)
        assert abs(loss - ce) < 1e-12

    def test_single_prototype_equals_fedprox(self):
        rng = stream(22, "k1-prox")
        arch = nn.MlpArch((4, 5, 3))
        r = nn.init_params(arch, rng)
        m = r + 0.1 * rng.normal(size=r.size)
        gp = make_global([r], sigma_sq=0.3,
                         gating_arch=nn.MlpArch((4, 5, 1)))
        x, y = make_batch(rng, 6, 4, 3)
        data_size = 25
        mu = 1.0 / (gp.sigma_sq * data_size)
        ploss, pgrad = total_loss_and_grad(prox_objective(arch, mu, r), m, x, y)
        for majorize in (True, False):
            loss, grad = total_loss_and_grad(
                mixture.mix_objective(gp, arch, data_size, majorize), m, x, y
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
        x, y = make_batch(rng, 8, 3, 3)
        for majorize in (True, False):
            objective = mixture.mix_objective(gp, arch, 10, majorize)
            _, grad = total_loss_and_grad(objective, m, x, y)
            fd = central_diff_grad(lambda p: objective(p, x, y)[0], m)
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

    def test_client_start_scores_prototypes_by_forward_passes(self, monkeypatch):
        rng = stream(26, "start")
        arch = nn.MlpArch((4, 5, 3))
        config = FederatedConfig(n_clients=1, strategy="mixture", k_prototypes=3)
        strategy = STRATEGIES["mixture"]
        state = strategy.init_state(arch, nn.init_params(arch, rng), config, 30)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        want = int(np.argmin(
            [nn.loss_and_grad(r, arch, x, y)[0] for r in state.prototypes]
        ))

        def no_backward(*args, **kwargs):
            raise AssertionError("prototype scoring ran a backward pass")

        monkeypatch.setattr(nn, "loss_and_grad", no_backward)
        start = strategy._start(state, x, y, arch)
        assert start is state.prototypes[want]

    def test_rejects_empty_dataset_size(self):
        arch = nn.MlpArch((4, 5, 3))
        gp = make_global([np.zeros(nn.param_count(arch))],
                         gating_arch=nn.MlpArch((4, 5, 1)))
        with pytest.raises(ValueError, match="data_size"):
            mixture.mix_objective(gp, arch, 0)


def summed_center(wts, protos):
    """The majorizer center as a full sum from zeros in prototype order."""
    center = np.multiply(wts[0], protos[0])
    center += 0.0
    term = np.empty_like(center)
    for j in range(1, len(protos)):
        center += np.multiply(wts[j], protos[j], out=term)
    return center


# weights from 1 down to 1e-300 and 0; entries near 1e-90, signed zeros,
# NaN and infinities among ordinary values
WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.5, 1e-231, 1e-300, 0.0]),
    st.floats(-300.0, 0.0).map(lambda e: 10.0**e),
)
ENTRIES = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(0.5, 2.0).map(lambda x: x * 1e-90),
    st.floats(-2.0, -0.5).map(lambda x: x * 1e-90),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2.0**-1074]),
)


@st.composite
def center_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    wts = np.array([draw(WEIGHTS) for _ in range(k)])
    protos = []
    for _ in range(k):
        # a quarter of the prototypes hold ordinary values only, so the
        # single-product path is taken often
        plain = draw(st.booleans()) and draw(st.booleans())
        values = st.floats(0.1, 3.0) if plain else ENTRIES
        protos.append(np.array([draw(values) for _ in range(n)]))
    return wts, tuple(protos)


class TestMajorizerCenter:
    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(center_cases())
    def test_equals_the_full_sum_bit_for_bit(self, case):
        wts, protos = case
        hi, lo = mixture.prototype_bounds(protos)
        with np.errstate(all="ignore"):
            want = summed_center(wts, protos)
            got = mixture.majorizer_center(
                wts, protos, hi, lo, np.empty_like(protos[0])
            )
        assert got.tobytes() == want.tobytes()

    def test_dominant_prototype_is_a_fresh_single_product(self):
        # with w_j = 1.0 the single product is r_j itself; any other dominant
        # weight gives a fresh array
        r0, r1 = np.array([1e-90, -2e-90, 0.0]), np.array([0.5, -1.5, 2.0])
        hi, lo = mixture.prototype_bounds((r0, r1))
        with np.errstate(under="raise"):
            got = mixture.majorizer_center(
                np.array([1e-231, 1.0]), (r0, r1), hi, lo, np.empty(3)
            )
            scaled = mixture.majorizer_center(
                np.array([1e-231, 0.75]), (r0, r1), hi, lo, np.empty(3)
            )
        assert got is r1
        assert scaled is not r1
        assert scaled.tobytes() == (0.75 * r1).tobytes()

    def test_dominated_client_objective_runs_without_subnormals(self):
        # a collapsed prototype: entries near 1e-90 and a responsibility near
        # 1e-231, so each w_0 r_0,i is a subnormal number
        rng = stream(25, "collapsed")
        arch = nn.MlpArch((4, 5, 3))
        r1 = nn.init_params(arch, rng)
        r0 = rng.uniform(0.5, 2.0, r1.size) * rng.choice([-1e-90, 1e-90], r1.size)
        sigma_sq = float((r1 - r0) @ (r1 - r0)) / (2.0 * 531.0)
        gp = make_global([r0, r1], sigma_sq=sigma_sq,
                         gating_arch=nn.MlpArch((4, 5, 2)))
        wts = mixture.prototype_weights(r1, gp.prototypes, sigma_sq)
        assert 1e-232 < wts[0] < 1e-230
        objective = mixture.mix_objective(gp, arch, 40)
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        with np.errstate(under="raise"):
            _, _, center, _ = objective(r1.copy(), x[:10], y[:10])
            m, _ = local_train(r1, objective, x, y, 10, 1, 0.1, stream(25, "b"))
        assert center.tobytes() == summed_center(wts, gp.prototypes).tobytes()
        assert np.all(np.isfinite(m))


def full_objective(gp, arch, data_size):
    """The majorizer objective computed in full at every step: all K
    distances, `mix_penalty` and `majorizer_center`."""
    protos, sigma_sq = gp.prototypes, gp.sigma_sq
    hi, lo = mixture.prototype_bounds(protos)

    def objective(m, x, y):
        ce, g = nn.loss_and_grad(m, arch, x, y)
        pen, wts = mixture.mix_penalty(m, protos, sigma_sq)
        center = mixture.majorizer_center(wts, protos, hi, lo, np.empty_like(m))
        return ce + pen / data_size, g, center, 1.0 / (sigma_sq * data_size)

    return objective


FAST_ARCH = nn.MlpArch((3, 4, 2))


@st.composite
def fast_path_cases(draw):
    """Prototypes from near ties to hard assignments: spreads from 0 to far
    apart, some collapsed to 1e-90 scale, a signed zero entry (lo = 0), and
    sigma^2 from tiny to huge or set so that the first and last prototype's
    logit gap lies around the thresholds of the single-distance step."""
    k = draw(st.integers(1, 3))
    rng = stream(draw(st.integers(0, 2**16)), "fast-path")
    base = nn.init_params(FAST_ARCH, rng)
    protos = []
    for _ in range(k):
        spread = draw(st.sampled_from([0.0, 1e-13, 1e-3, 0.3, 3.0, 50.0]))
        scale = draw(st.sampled_from([1.0, 1.0, 1e-90]))
        protos.append((base + spread * rng.normal(size=base.size)) * scale)
    if draw(st.booleans()):
        r = protos[draw(st.integers(0, k - 1))]
        r[draw(st.integers(0, base.size - 1))] = draw(st.sampled_from([0.0, -0.0]))
    sep = float((protos[0] - protos[-1]) @ (protos[0] - protos[-1]))
    gap = draw(st.one_of(st.none(), st.floats(10.0, 800.0)))
    if gap is not None and sep > 0.0:
        sigma_sq = sep / (2.0 * gap)
    else:
        sigma_sq = draw(st.sampled_from([1e-300, 1e-9, 1e-3, 0.1, 1e6, 1e300]))
    return tuple(protos), sigma_sq, draw(st.integers(0, k - 1)), rng


def outcome(fn):
    """The bytes of fn()'s result, or the class of what it raised."""
    try:
        return fn().tobytes()
    except nn.NonFiniteUpdate as e:
        return type(e)


class TestFastPaths:
    """The single-distance majorizer step and the reused prototype center
    give the bits of the full computation."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(fast_path_cases())
    def test_objective_and_training_keep_the_bits(self, case):
        protos, sigma_sq, start, rng = case
        gp = make_global(protos, sigma_sq=sigma_sq,
                         gating_arch=nn.MlpArch((3, 4, len(protos))))
        x = rng.normal(size=(24, 3))
        y = rng.integers(0, 2, size=24)
        fast = mixture.mix_objective(gp, FAST_ARCH, 24)
        full = full_objective(gp, FAST_ARCH, 24)
        points = [protos[start], protos[start] + 1e-3, protos[-1], protos[0] * 0.5]
        with np.errstate(all="ignore"):
            for m in points:
                got, want = fast(m.copy(), x[:8], y[:8]), full(m.copy(), x[:8], y[:8])
                assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                assert got[2].tobytes() == want[2].tobytes()
                assert got[3] == want[3]
            trained = [
                outcome(lambda obj=obj: local_train(
                    protos[start], obj, x, y, 8, 2, 0.1, stream(7, "b"))[0])
                for obj in (mixture.mix_objective(gp, FAST_ARCH, 24), full)
            ]
        assert trained[0] == trained[1]

    def test_hard_assignment_takes_the_fast_path(self, monkeypatch):
        # prototypes far apart against sigma^2: the softmax is a hard argmax,
        # as at protocol shape from round 1
        rng = stream(27, "hard")
        arch = nn.MlpArch((4, 5, 3))
        r0 = nn.init_params(arch, rng)
        protos = (r0, r0 + 5.0 * rng.normal(size=r0.size))
        gp = make_global(protos, gating_arch=nn.MlpArch((4, 5, 2)))
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        objective = mixture.mix_objective(gp, arch, 40)
        _, _, center, _ = objective(r0 + 1e-3, x[:10], y[:10])
        assert center is r0
        assert mixture.certified_penalty(
            r0 + 1e-3, 0, protos, gp.sigma_sq,
            mixture.prototype_separations(protos), *mixture.prototype_bounds(protos),
            np.empty_like(r0),
        ) is not None

        recomputed = []
        step = optim.prox_quadratic_step

        def counted(params, grad, lr, center, quad, terms):
            recomputed.append(terms.get("key") is None or terms["key"][0] is not center)
            return step(params, grad, lr, center, quad, terms)

        monkeypatch.setattr(optim, "prox_quadratic_step", counted)
        config = FederatedConfig(n_clients=1, strategy="mixture", batch_size=10)
        STRATEGIES["mixture"].client_update(gp, 0, x, y, arch, config, 0.1, 1)
        assert len(recomputed) == 4
        assert sum(recomputed) == 1


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


def fresh_gating_epoch(beta, arch, x, j_star, batch_size, lr, rng, head_frozen):
    """The reference gating epoch: a loop of fresh `nn.sgd_step` calls over
    the batch order `optim.local_train` draws from rng."""
    labels = np.full(x.shape[0], j_star, dtype=np.int64)
    order = rng.permutation(x.shape[0])
    for lo in range(0, x.shape[0], batch_size):
        idx = order[lo : lo + batch_size]
        _, grad = nn.loss_and_grad(beta, arch, x[idx], labels[idx])
        if head_frozen:
            grad[nn.head_span(arch)] = 0.0
        beta = nn.sgd_step(beta, grad, lr)
    return beta


class TestGating:
    def test_single_prototype_labels_zero(self):
        rng = stream(61, "gate-k1")
        arch = nn.MlpArch((4, 5, 1))
        beta = nn.init_params(arch, rng)
        x = rng.normal(size=(6, 4))
        m = rng.normal(size=3)
        j_star = mixture.nearest_prototype(m, (m + 1,))
        assert j_star == 0
        out = mixture.gating_local_update(beta, arch, x, j_star, 6, 0.1, stream(1, "b"))
        want = fresh_gating_epoch(beta, arch, x, 0, 6, 0.1, stream(1, "b"), False)
        assert out.tobytes() == want.tobytes()

    def test_label_is_nearest_prototype_index(self):
        rng = stream(62, "gate-near")
        arch = nn.MlpArch((4, 5, 3))
        beta = nn.init_params(arch, rng)
        x = rng.normal(size=(5, 4))
        protos = (np.full(3, 10.0), np.array([1.0, 2.0, 3.0]), np.full(3, -10.0))
        m = protos[1].copy()
        j_star = mixture.nearest_prototype(m, protos)
        assert j_star == 1
        out = mixture.gating_local_update(beta, arch, x, j_star, 5, 0.2, stream(2, "b"))
        want = fresh_gating_epoch(beta, arch, x, 1, 5, 0.2, stream(2, "b"), False)
        assert out.tobytes() == want.tobytes()

    def test_in_place_step_has_the_fresh_steps_bits(self):
        """The driver's in-place steps over several batches, with the head
        zeroed and not, have the bits of fresh steps; beta is not written."""
        rng = stream(65, "gate-out")
        arch = nn.MlpArch((4, 5, 2))
        beta = nn.init_params(arch, rng)
        before = beta.copy()
        x = rng.normal(size=(23, 4))
        for frozen in (False, True):
            got = mixture.gating_local_update(
                beta, arch, x, 1, 5, 0.3, stream(3, "b"), frozen
            )
            want = fresh_gating_epoch(beta, arch, x, 1, 5, 0.3, stream(3, "b"), frozen)
            assert got.tobytes() == want.tobytes()
        assert beta.tobytes() == before.tobytes()

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
            beta, arch, x, 0, 2, 0.1, stream(4, "b"), head_frozen=True
        )
        head = nn.head_span(arch)
        np.testing.assert_array_equal(out[head], beta[head])
        assert not np.array_equal(out[: head.start], beta[: head.start])

    def test_training_learns_cluster_assignment(self):
        rng = stream(64, "gate-train")
        arch = nn.MlpArch((4, 8, 2))
        beta = nn.init_params(arch, rng)
        protos = (np.zeros(3), np.ones(3))
        x_a = rng.normal(loc=1.5, scale=0.4, size=(40, 4))
        x_b = rng.normal(loc=-1.5, scale=0.4, size=(40, 4))
        j_a = mixture.nearest_prototype(protos[0] + 0.01, protos)
        j_b = mixture.nearest_prototype(protos[1] - 0.01, protos)
        brng = stream(5, "b")
        for _ in range(100):
            beta = mixture.gating_local_update(beta, arch, x_a, j_a, 20, 0.2, brng)
            beta = mixture.gating_local_update(beta, arch, x_b, j_b, 20, 0.2, brng)
        x_all = np.vstack([x_a, x_b])
        y_all = np.concatenate([np.zeros(40, dtype=np.int64), np.ones(40, dtype=np.int64)])
        pred = nn.forward(beta, arch, x_all).argmax(axis=1)
        acc = float((pred == y_all).mean())
        assert acc > 0.9, f"gating accuracy {acc}"


class TestGlobalPredict:
    def test_single_expert_matches_plain_softmax(self):
        rng = stream(71, "pred-k1")
        arch = nn.MlpArch((4, 6, 3))
        r = nn.init_params(arch, rng)
        gp = make_global([r], gating_arch=nn.MlpArch((4, 6, 1)), seed=7)
        x = rng.normal(size=(5, 4))
        out = mixture.mix_global_predict(x, gp, arch)
        np.testing.assert_allclose(
            out, nn.softmax(nn.forward(r, arch, x)), atol=1e-15)

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
        expert = nn.softmax(nn.forward(protos[1], arch, x))
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
        _, g = nn.loss_and_grad(m, arch, inputs[idx], labels[idx])
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
        m = mixture.mix_personalize(x, y, gp, arch, FederatedConfig(), epochs=0,
                                    rng=stream(81, "proxy"))
        assert any(np.array_equal(m, r) for r in protos)

    def test_huge_sigma_reduces_to_plain_finetuning(self):
        rng = stream(82, "ps")
        arch = nn.MlpArch((4, 5, 3))
        r = nn.init_params(arch, rng)
        gp = make_global([r], sigma_sq=1e18,
                         gating_arch=nn.MlpArch((4, 5, 1)))
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        out = mixture.mix_personalize(x, y, gp, arch,
                                      FederatedConfig(batch_size=10),
                                      epochs=2, rng=stream(82, "run"))
        # full-batch steps make the shuffle order irrelevant; the proxy
        # warm-up epoch only picks the start (here the lone prototype), so
        # the tuned result is two plain steps from r
        m = r.copy()
        for _ in range(2):
            _, g = nn.loss_and_grad(m, arch, x, y)
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
            return float((nn.forward(m, arch, x_test).argmax(axis=1) == y_test).mean())

        good = mixture.mix_personalize(x_p, y_p, gp, arch,
                                       FederatedConfig(batch_size=10),
                                       epochs=2, rng=stream(83, "good"))
        # same protocol forced to start at the mismatched prototype
        bad, _ = local_train(
            m_b, mixture.mix_objective(gp, arch, 20, majorize=False), x_p, y_p,
            10, 2, 0.1, stream(83, "bad"),
        )
        acc_good, acc_bad = accuracy(good), accuracy(bad)
        assert acc_good >= acc_bad + 0.3, f"good {acc_good} vs bad {acc_bad}"

    def test_rejects_empty_personal_data(self):
        arch = nn.MlpArch((4, 5, 3))
        gp = make_global([np.zeros(nn.param_count(arch))],
                         gating_arch=nn.MlpArch((4, 5, 1)))
        with pytest.raises(ValueError, match="empty"):
            mixture.mix_personalize(np.zeros((0, 4)),
                                    np.zeros(0, dtype=np.int64), gp, arch,
                                    FederatedConfig(), epochs=1,
                                    rng=stream(0))
