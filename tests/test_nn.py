"""Core NN engine: layout, forward, exact gradients, dropout, SGD."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.rng import stream


def central_diff_grad(fn, x, h=1e-5):
    """Independent gradient oracle: central finite differences, coordinatewise."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def apply_mask(params, arch, mask):
    """Zero every parameter in a dropped group (biases untouched)."""
    out = params.copy()
    for l, (W, b) in enumerate(nn.weight_views(out, arch)):
        W *= mask.keep[l][:, None].astype(np.float64)
    return out


def oracle_forward(params, arch, batch, mask=None):
    """Reference forward pass that masks the weights, not the layer inputs."""
    a = batch.inputs
    last = arch.num_layers - 1
    for l, (W, b) in enumerate(nn.weight_views(params, arch)):
        if mask is not None:
            W = W * mask.keep[l][:, None].astype(np.float64)
        z = a @ W + b
        a = np.maximum(z, 0.0) if l < last else z
    return a


def oracle_loss_and_grad(params, arch, batch, mask=None):
    """Reference loss and gradient over masked weight copies, with every
    gradient block built in a temporary and copied into place."""
    X, y = batch.inputs, batch.labels
    last = arch.num_layers - 1
    activations = [X]
    a = X
    masked_weights = []
    for l, (W, b) in enumerate(nn.weight_views(params, arch)):
        if mask is not None:
            W = W * mask.keep[l][:, None].astype(np.float64)
        masked_weights.append(W)
        z = a @ W + b
        a = np.maximum(z, 0.0) if l < last else z
        activations.append(a)

    logp = nn.log_softmax(activations[-1])
    loss = float((-logp[np.arange(len(y)), y]).mean())
    grad = np.empty_like(params)
    delta = np.exp(logp)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= X.shape[0]
    spans = nn.layer_spans(arch)
    for l in range(last, -1, -1):
        w_span, b_span = spans[l]
        dW = activations[l].T @ delta
        if mask is not None:
            dW *= mask.keep[l][:, None].astype(np.float64)
        grad[w_span] = dW.reshape(-1)
        grad[b_span] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ masked_weights[l].T
            delta[activations[l] <= 0.0] = 0.0
    return loss, grad


def make_batch(rng, n, dim, classes):
    return nn.Batch(
        inputs=rng.normal(size=(n, dim)),
        labels=rng.integers(0, classes, size=n),
    )


class TestLayout:
    def test_param_count(self):
        arch = nn.MlpArch((784, 256, 10))
        assert nn.param_count(arch) == 784 * 256 + 256 + 256 * 10 + 10 == 203530

    def test_head_mask_sizes(self):
        def size(arch):
            head = nn.head_span(arch)
            return head.stop - head.start

        assert size(nn.MlpArch((2, 3, 4))) == 3 * 4 + 4 == 16
        assert size(nn.MlpArch((784, 256, 10))) == 2570

    def test_head_body_partition(self):
        # the head is the tail of the flat vector: final weights, then bias
        arch = nn.MlpArch((5, 7, 3))
        head = nn.head_span(arch)
        w_span, b_span = nn.layer_spans(arch)[-1]
        assert (head.start, head.stop) == (w_span.start, b_span.stop)
        assert head.stop == nn.param_count(arch)
        assert head.step is None

    def test_column_blocks_are_contiguous(self):
        # group i of a layer = out_dim consecutive entries for input column i
        arch = nn.MlpArch((3, 2, 2))
        params = np.arange(nn.param_count(arch), dtype=np.float64)
        (W0, b0), (W1, b1) = list(nn.weight_views(params, arch))
        assert W0[1].tolist() == [2.0, 3.0]  # second input column's block
        assert b0.tolist() == [6.0, 7.0]
        assert W1[0].tolist() == [8.0, 9.0]
        assert b1.tolist() == [12.0, 13.0]

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            nn.MlpArch((5,))
        with pytest.raises(ValueError):
            nn.MlpArch((5, 0, 2))

    def test_init_bounds_and_determinism(self):
        arch = nn.MlpArch((100, 20, 5))
        p1 = nn.init_params(arch, stream(7, "init"))
        p2 = nn.init_params(arch, stream(7, "init"))
        assert np.array_equal(p1, p2)
        spans = nn.layer_spans(arch)
        w0 = p1[spans[0][0]]
        assert np.abs(w0).max() <= 1 / np.sqrt(100)
        w1 = p1[spans[1][0]]
        assert np.abs(w1).max() <= 1 / np.sqrt(20)
        assert np.abs(w1).max() > 1 / np.sqrt(100)  # wider bound actually used


class TestForward:
    def test_zero_params_zero_logits(self):
        arch = nn.MlpArch((4, 3, 2))
        params = np.zeros(nn.param_count(arch))
        batch = make_batch(np.random.default_rng(0), 5, 4, 2)
        assert np.array_equal(nn.forward(params, arch, batch.inputs), np.zeros((5, 2)))

    def test_hand_computed_logits(self):
        # weights all one, bias zero, input [1,1]: hidden relu([2,2]) -> logits [4,4]
        arch = nn.MlpArch((2, 2, 2))
        params = np.zeros(nn.param_count(arch))
        spans = nn.layer_spans(arch)
        params[spans[0][0]] = 1.0
        params[spans[1][0]] = 1.0
        batch = nn.Batch(inputs=np.array([[1.0, 1.0]]), labels=np.array([0]))
        assert nn.forward(params, arch, batch.inputs).tolist() == [[4.0, 4.0]]

    def test_mask_all_dropped_equals_bias_path(self):
        arch = nn.MlpArch((4, 3, 2))
        rng = np.random.default_rng(1)
        params = nn.init_params(arch, rng)
        batch = make_batch(rng, 6, 4, 2)
        mask = nn.DropoutMask(keep=tuple(np.zeros(s, dtype=bool) for s in (4, 3)))
        got = nn.forward(params, arch, batch.inputs, mask)
        zeroed = apply_mask(params, arch, mask)
        assert np.array_equal(got, nn.forward(zeroed, arch, batch.inputs))
        # bias-only: logits identical across inputs
        assert np.allclose(got, got[0])

    def test_mask_linearity_bitwise(self):
        arch = nn.MlpArch((6, 5, 4, 3))
        rng = np.random.default_rng(2)
        params = nn.init_params(arch, rng)
        batch = make_batch(rng, 7, 6, 3)
        mask = nn.sample_dropout_mask(0.6, arch, stream(3, "mask"))
        via_mask = nn.forward(params, arch, batch.inputs, mask)
        via_apply = nn.forward(apply_mask(params, arch, mask), arch, batch.inputs)
        assert np.array_equal(via_mask, via_apply)

    def test_dimension_errors(self):
        arch = nn.MlpArch((4, 3, 2))
        batch = make_batch(np.random.default_rng(0), 2, 4, 2)
        with pytest.raises(nn.DimensionMismatch):
            nn.forward(np.zeros(5), arch, batch.inputs)
        bad_batch = make_batch(np.random.default_rng(0), 2, 3, 2)
        with pytest.raises(nn.DimensionMismatch):
            nn.forward(np.zeros(nn.param_count(arch)), arch, bad_batch.inputs)
        with pytest.raises(nn.DimensionMismatch):  # one row, not a matrix
            nn.forward(np.zeros(nn.param_count(arch)), arch, batch.inputs[0])
        bad_mask = nn.DropoutMask(keep=(np.ones(4, dtype=bool),))
        with pytest.raises(nn.DimensionMismatch):
            nn.forward(np.zeros(nn.param_count(arch)), arch, batch.inputs, bad_mask)


class TestLossAndGrad:
    def test_uniform_logits_loss_is_ln_c(self):
        for classes in (2, 5, 10):
            arch = nn.MlpArch((3, 4, classes))
            params = np.zeros(nn.param_count(arch))
            batch = make_batch(np.random.default_rng(0), 8, 3, classes)
            loss, _ = nn.loss_and_grad(params, arch, batch)
            assert loss == pytest.approx(np.log(classes), abs=1e-12)

    def test_softmax_gradient_identity(self):
        # zero params, single sample: d loss / d final bias = softmax - one-hot
        classes, k = 4, 2
        arch = nn.MlpArch((3, 2, classes))
        params = np.zeros(nn.param_count(arch))
        batch = nn.Batch(inputs=np.array([[0.3, -0.2, 0.5]]), labels=np.array([k]))
        _, grad = nn.loss_and_grad(params, arch, batch)
        b_span = nn.layer_spans(arch)[-1][1]
        expect = np.full(classes, 1.0 / classes)
        expect[k] -= 1.0
        assert np.allclose(grad[b_span], expect, atol=1e-12)

    @pytest.mark.parametrize("sizes", [(4, 5, 3), (6, 8, 8, 4), (2, 3, 2)])
    def test_gradient_matches_finite_differences(self, sizes):
        arch = nn.MlpArch(sizes)
        rng = np.random.default_rng(hash(sizes) % 2**32)
        params = nn.init_params(arch, np.random.default_rng(5))
        batch = make_batch(rng, 6, sizes[0], sizes[-1])
        _, grad = nn.loss_and_grad(params, arch, batch)
        fd = central_diff_grad(
            lambda p: nn.loss_and_grad(p, arch, batch)[0], params
        )
        err = rel_err(grad, fd)
        assert err.max() < 1e-6

    def test_gradient_with_mask_matches_fd_and_zeroes_dropped(self):
        arch = nn.MlpArch((5, 6, 3))
        params = nn.init_params(arch, np.random.default_rng(9))
        batch = make_batch(np.random.default_rng(10), 4, 5, 3)
        mask = nn.sample_dropout_mask(0.5, arch, stream(11, "mask"))
        _, grad = nn.loss_and_grad(params, arch, batch, mask)
        fd = central_diff_grad(
            lambda p: nn.loss_and_grad(p, arch, batch, mask)[0], params
        )
        assert rel_err(grad, fd).max() < 1e-6
        for l, (W, b) in enumerate(nn.weight_views(grad, arch)):
            dropped = ~mask.keep[l]
            assert np.array_equal(W[dropped], np.zeros_like(W[dropped]))

    def test_non_finite_loss_reports_batch_index(self):
        arch = nn.MlpArch((2, 2, 2))
        params = np.full(nn.param_count(arch), np.nan)
        batch = nn.Batch(inputs=np.ones((3, 2)), labels=np.array([0, 1, 0]))
        with pytest.raises(nn.NonFiniteLoss) as exc:
            nn.loss_and_grad(params, arch, batch)
        assert exc.value.batch_index == 0

    def test_label_range_checked(self):
        arch = nn.MlpArch((2, 2, 2))
        params = np.zeros(nn.param_count(arch))
        batch = nn.Batch(inputs=np.ones((1, 2)), labels=np.array([2]))
        with pytest.raises(ValueError):
            nn.loss_and_grad(params, arch, batch)

    @pytest.mark.parametrize("kind", ["none", "p0.5"])
    def test_mean_loss_is_the_loss_of_loss_and_grad(self, kind):
        params = protocol_params()
        for rows in (50, 7):
            batch, mask = protocol_batch(rows, rows), protocol_mask(kind)
            loss, _ = nn.loss_and_grad(params, PROTOCOL, batch, mask)
            got = nn.mean_loss(params, PROTOCOL, batch, mask)
            assert np.float64(got).tobytes() == np.float64(loss).tobytes()

    def test_mean_loss_checks_like_loss_and_grad(self):
        arch = nn.MlpArch((2, 2, 2))
        batch = nn.Batch(inputs=np.ones((3, 2)), labels=np.array([0, 1, 0]))
        with pytest.raises(nn.NonFiniteLoss) as exc:
            nn.mean_loss(np.full(nn.param_count(arch), np.nan), arch, batch)
        assert exc.value.batch_index == 0
        bad = nn.Batch(inputs=np.ones((1, 2)), labels=np.array([2]))
        with pytest.raises(ValueError, match="labels must lie"):
            nn.mean_loss(np.zeros(nn.param_count(arch)), arch, bad)

    def test_loss_nonnegative(self):
        arch = nn.MlpArch((3, 4, 5))
        rng = np.random.default_rng(12)
        for _ in range(20):
            params = nn.init_params(arch, rng)
            batch = make_batch(rng, 5, 3, 5)
            loss, _ = nn.loss_and_grad(params, arch, batch)
            assert loss >= 0.0


class TestDropoutSampling:
    def test_p_one_keeps_all(self):
        arch = nn.MlpArch((10, 8, 4))
        mask = nn.sample_dropout_mask(1.0, arch, stream(0, "m"))
        assert all(k.all() for k in mask.keep)

    def test_p_zero_drops_all_weight_groups(self):
        arch = nn.MlpArch((10, 8, 4))
        mask = nn.sample_dropout_mask(0.0, arch, stream(0, "m"))
        assert not any(k.any() for k in mask.keep)
        # bias groups have no keep entry: they are always applied
        batch = make_batch(np.random.default_rng(1), 3, 10, 4)
        params = nn.init_params(arch, np.random.default_rng(2))
        out = nn.forward(params, arch, batch.inputs, mask)
        b_last = params[nn.layer_spans(arch)[-1][1]]
        assert np.allclose(out, np.broadcast_to(b_last, (3, 4)))

    def test_keep_rate_monte_carlo(self):
        # 10,000 group draws; empirical keep rate within 3 SE of 0.9
        arch = nn.MlpArch((100, 100))
        p = 0.9
        draws = 100
        rng = stream(42, "mc")
        total = np.sum([
            nn.sample_dropout_mask(p, arch, rng).keep[0].sum() for _ in range(draws)
        ])
        n = 100 * draws
        se = np.sqrt(p * (1 - p) / n)
        assert abs(total / n - p) < 3 * se

    def test_mask_determinism(self):
        arch = nn.MlpArch((30, 20, 5))
        m1 = nn.sample_dropout_mask(0.7, arch, stream(5, "mask", 3))
        m2 = nn.sample_dropout_mask(0.7, arch, stream(5, "mask", 3))
        assert all(np.array_equal(a, b) for a, b in zip(m1.keep, m2.keep))

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            nn.sample_dropout_mask(1.5, nn.MlpArch((2, 2)), stream(0))


class TestSgd:
    def test_zero_grad_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(nn.sgd_step(p, np.zeros(3), 0.1), p)

    def test_arithmetic(self):
        assert nn.sgd_step(np.array([1.0]), np.array([2.0]), 0.5).tolist() == [0.0]

    def test_quadratic_convergence(self):
        # minimize (x - 3)^2 / 2; gradient = x - 3
        x = np.array([10.0])
        for _ in range(200):
            x = nn.sgd_step(x, x - 3.0, 0.2)
        assert abs(x[0] - 3.0) < 1e-8

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.sgd_step(np.zeros(2), np.zeros(2), 0.0)

    def test_non_finite_result_rejected(self):
        with pytest.raises(nn.NonFiniteUpdate):
            nn.sgd_step(np.array([1e308]), np.array([-1e308]), 10.0)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_mask_linearity_property(sizes, seed):
    arch = nn.MlpArch(tuple(sizes))
    rng = np.random.default_rng(seed)
    params = nn.init_params(arch, rng)
    batch = nn.Batch(
        inputs=rng.normal(size=(3, sizes[0])),
        labels=rng.integers(0, sizes[-1], size=3),
    )
    mask = nn.sample_dropout_mask(0.5, arch, stream(seed, "m"))
    assert np.array_equal(
        nn.forward(params, arch, batch.inputs, mask),
        nn.forward(apply_mask(params, arch, mask), arch, batch.inputs),
    )


PROTOCOL = nn.MlpArch((784, 256, 10))


def protocol_params():
    params = nn.init_params(PROTOCOL, stream(0, "init"))
    params[::97] = 0.0
    params[::89] = -0.0
    return params


def protocol_batch(n, seed=0):
    """Inputs with zero columns and scattered +0.0 and -0.0 entries."""
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 784))
    inputs[:, :40] = 0.0
    inputs[:, 40:60] = -0.0
    inputs[rng.random(inputs.shape) < 0.1] = 0.0
    inputs[rng.random(inputs.shape) < 0.1] = -0.0
    return nn.Batch(inputs=inputs, labels=rng.integers(0, 10, size=n))


def protocol_mask(kind):
    if kind == "none":
        return None
    if kind == "p0.999":
        return nn.sample_dropout_mask(0.999, PROTOCOL, stream(1, "mask"))
    if kind == "p0.5":
        return nn.sample_dropout_mask(0.5, PROTOCOL, stream(2, "mask"))
    # every group of one layer dropped, the other layer at p_keep 0.5
    dropped = int(kind[-1])
    keep = list(nn.sample_dropout_mask(0.5, PROTOCOL, stream(3, "mask")).keep)
    keep[dropped] = np.zeros_like(keep[dropped])
    return nn.DropoutMask(keep=tuple(keep))


MASK_KINDS = ["none", "p0.999", "p0.5", "drop_layer0", "drop_layer1"]


class TestProtocolShapeBits:
    """The kernel equals the masked-weight reference bit for bit at 784-256-10."""

    @pytest.mark.parametrize("kind", MASK_KINDS)
    @pytest.mark.parametrize("rows", [50, 40, 1])
    def test_loss_and_grad_bytes(self, rows, kind):
        params, batch, mask = protocol_params(), protocol_batch(rows), protocol_mask(kind)
        loss, grad = nn.loss_and_grad(params, PROTOCOL, batch, mask)
        ref_loss, ref_grad = oracle_loss_and_grad(params, PROTOCOL, batch, mask)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("kind", MASK_KINDS)
    @pytest.mark.parametrize("rows", [2048, 1808, 50])
    def test_forward_bytes(self, rows, kind):
        params, batch, mask = protocol_params(), protocol_batch(rows, 1), protocol_mask(kind)
        got = nn.forward(params, PROTOCOL, batch.inputs, mask)
        assert got.tobytes() == oracle_forward(params, PROTOCOL, batch, mask).tobytes()
        if mask is not None:
            zeroed = apply_mask(params, PROTOCOL, mask)
            assert got.tobytes() == nn.forward(zeroed, PROTOCOL, batch.inputs).tobytes()

    @pytest.mark.parametrize("kind", ["none", "p0.5"])
    def test_one_step_allocates_little_beyond_the_gradient(self, kind):
        # a staging copy of W_0 or of any gradient block would add 0.8-1.6 MB
        params, batch, mask = protocol_params(), protocol_batch(50), protocol_mask(kind)
        nn.loss_and_grad(params, PROTOCOL, batch, mask)
        tracemalloc.start()
        try:
            nn.loss_and_grad(params, PROTOCOL, batch, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * nn.param_count(PROTOCOL)
