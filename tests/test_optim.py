"""The local-training driver's in-place contract (`optim.local_train`).

The driver updates one working copy of m in place, overwrites the data
gradient each objective hands it, and computes a fixed proximal term once
per call. These tests pin what that must not change: the caller's vectors,
the objectives' centers and weights, and the bits of every step.
"""

import ast
import os

import numpy as np
import pytest

from fedsim import mixture, niw, nn, optim
from fedsim.rng import stream
from fedsim.runtime import FederatedConfig
from fedsim.strategies import STRATEGIES

ARCH = nn.MlpArch((6, 5, 3))
STEP_STRATEGIES = ("fedavg", "fedprox", "niw", "mixture")


def state_arrays(state) -> list[np.ndarray]:
    """Every vector a strategy's global state holds."""
    if isinstance(state, np.ndarray):
        return [state]
    if isinstance(state, niw.NiwGlobalPosterior):
        return [state.m0, state.v0_diag]
    return [*state.prototypes, state.gating]


def client_data(rng, n=20):
    return rng.normal(size=(n, ARCH.input_dim)), rng.integers(0, ARCH.num_classes, size=n)


def make_state(name, body_update, rng):
    config = FederatedConfig(
        n_clients=4, strategy=name, local_epochs=2, batch_size=7, mu_prox=0.5,
        p_keep=0.9, penalty_mode="normalized", body_update=body_update,
    )
    strategy = STRATEGIES[name]
    return config, strategy, strategy.init_state(ARCH, nn.init_params(ARCH, rng), config, 40)


def objectives(name, state, n):
    """The objectives a strategy trains on, with a dropout stream for NIW."""
    if name == "fedavg":
        return [optim.prox_objective(ARCH)]
    if name == "fedprox":
        return [optim.prox_objective(ARCH, 0.5, state)]
    if name == "niw":
        return [niw.niw_objective(state, ARCH, n, 0.9, "normalized", stream(3, "mask"))]
    return [mixture.mix_objective(state, ARCH, n, majorize) for majorize in (True, False)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("body_update", [False, True])
@pytest.mark.parametrize("name", STEP_STRATEGIES)
class TestNothingOfTheCallerIsWritten:
    def test_local_train(self, name, body_update):
        rng = stream(31, "contract", name)
        _, _, state = make_state(name, body_update, rng)
        x, y = client_data(rng)
        arrays = state_arrays(state)
        kept = [a.copy() for a in arrays]
        head = nn.head_span(ARCH) if body_update else None
        for objective in objectives(name, state, len(y)):
            returned = []

            def watched(m, batch):
                out = objective(m, batch)
                returned.append((out[2], np.copy(out[2]), out[3], np.copy(out[3])))
                return out

            start = arrays[0]
            final, _ = optim.local_train(
                start, watched, x, y, 7, 2, 0.1, stream(31, "batch"), head
            )
            assert not np.shares_memory(final, start)
            for center, center_then, quad, quad_then in returned:
                assert center is None or same_bits(center, center_then)
                assert same_bits(quad, quad_then)
        for a, b in zip(arrays, kept):
            assert same_bits(a, b)

    def test_client_update_and_personalize(self, name, body_update):
        rng = stream(32, "contract", name)
        config, strategy, state = make_state(name, body_update, rng)
        x, y = client_data(rng)
        arrays = state_arrays(state)
        kept = [a.copy() for a in arrays]
        result = strategy.client_update(state, 0, x, y, ARCH, config, 0.1, 1)
        personal = strategy.personalize(state, x, y, ARCH, config, 1, stream(32, "p"))
        for a, b in zip(arrays, kept):
            assert same_bits(a, b)
            assert not np.shares_memory(result.params, a)
            assert not np.shares_memory(personal, a)


def signed_vector(rng, d=64):
    """Random normals with +0.0 and -0.0 entries mixed in."""
    v = rng.normal(size=d)
    v[::7] = 0.0
    v[3::7] = -0.0
    return v


class TestStepBits:
    """The in-place steps give the bits of the allocating formulas."""

    @pytest.mark.parametrize("quad_kind", ["array", "scalar"])
    def test_prox_step_matches_formula(self, quad_kind):
        rng = stream(33, "bits", quad_kind)
        lr = 0.1
        if quad_kind == "array":
            quad = rng.uniform(0.0, 40.0, size=64)
            quad[::5] = 0.0
        else:
            quad = 0.7
        m = signed_vector(rng)
        expect = m.copy()
        center = signed_vector(rng)
        terms = {}
        for step in range(5):
            if step == 3:
                center = signed_vector(rng)  # a fresh center: terms recomputed
            g = signed_vector(rng)
            expect = ((expect - lr * g) + lr * quad * center) / (1.0 + lr * quad)
            assert optim.prox_quadratic_step(m, g, lr, center, quad, terms) is m
            assert same_bits(m, expect)

    def test_sgd_step_matches_formula(self):
        rng = stream(34, "bits")
        params, g = signed_vector(rng), signed_vector(rng)
        params[5] = -0.0
        g[5] = 0.0
        expect = params - 0.3 * g
        fresh = nn.sgd_step(params, g.copy(), 0.3)
        out = params.copy()
        returned = nn.sgd_step(out, g.copy(), 0.3, out)
        assert returned is out
        assert same_bits(fresh, expect) and same_bits(out, expect)
        assert np.signbit(out[5])

    def test_non_finite_step_raises(self):
        big = np.array([1.0, 1e308])
        push = np.array([0.0, -1e308])
        with pytest.raises(nn.NonFiniteUpdate):
            nn.sgd_step(big.copy(), push.copy(), 10.0, big.copy())
        with pytest.raises(nn.NonFiniteUpdate):
            m = big.copy()
            optim.prox_quadratic_step(m, push.copy(), 10.0, np.zeros(2), 1.0, {})

        def objective(m, batch):
            return 0.0, np.full_like(m, -1e308), None, 0.0

        rng = stream(35, "nonfinite")
        x, y = client_data(rng, n=4)
        start = nn.init_params(ARCH, rng)
        with pytest.raises(nn.NonFiniteUpdate):
            optim.local_train(start, objective, x, y, 4, 1, 10.0, rng)


def test_only_optim_calls_sgd_step():
    """Every training loop goes through `optim.local_train`: a call to
    `nn.sgd_step` anywhere else in fedsim is a hand-written loop."""
    src = os.path.dirname(optim.__file__)
    callers = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "optim.py":
            continue
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "sgd_step":
                callers.append(f"{name}:{node.lineno}")
    assert callers == []
