"""Client-side update rules and the one local-training driver.

Strategies whose local objective is `data term + (1/2) sum_k w_k (m_k - c_k)^2`
use forward-backward splitting: an explicit gradient step on the data term
followed by the exact proximal step of the quadratic. This minimizes the same
objective as plain SGD and coincides with it up to O((lr*w)^2) when lr*w is
small, but stays stable for arbitrarily stiff quadratic weights (the
hierarchical-posterior penalty weight scales with the parameter count and can
exceed 2/lr by orders of magnitude, where explicit SGD diverges).

Every minibatch loop that trains a model, the mixture gating net's included,
runs through `local_train`, and only this module calls `nn.sgd_step`. A local
objective maps `(m, batch)` to `(loss, data_grad, quad_center, quad_diag)`:
the step is `prox_quadratic_step` on that quadratic, or a plain SGD step on
`data_grad` when `quad_center` is None. Either way the objective's total
gradient at m is `data_grad + quad_diag * (m - quad_center)`.

Ownership in `local_train`, which steps in place:
- the driver copies m once per call and updates that working copy; the
  caller's m is never written, and the objective sees the working copy;
- `data_grad` must be a fresh array on every call: the driver zeroes a
  frozen head in it and scales it by lr in place;
- an objective may return the same `quad_center` and `quad_diag` objects at
  every step (FedProx, NIW, a mixture step pulled to one prototype): the
  driver caches the step's fixed terms by their identity, so an objective
  must never write a center or diagonal it has returned. A center that moves
  (the mixture majorizer over several prototypes) is a fresh array.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import nn

# (m, batch) -> (loss, data_grad, quad_center or None, quad_diag)
Objective = Callable[[np.ndarray, nn.Batch], tuple]


def prox_quadratic_step(
    params: np.ndarray,
    data_grad: np.ndarray,
    lr: float,
    center: np.ndarray,
    quad_diag: np.ndarray | float,
    terms: dict,
) -> np.ndarray:
    """One splitting step for data-term gradient + quadratic penalty, in place.

    Sets params to `prox_{lr*penalty}(params - lr*data_grad)` with
    penalty(m) = (1/2) sum_k quad_diag_k (m_k - center_k)^2, evaluated as
    `(half + shift) / denom` with shift = (lr*quad_diag)*center and
    denom = 1 + lr*quad_diag, and returns params. data_grad is overwritten
    (see `nn.sgd_step`). `terms` is a dict the caller keeps across steps:
    shift and denom are reused from it while center, quad_diag and lr are the
    objects they were computed from.
    """
    half = nn.sgd_step(params, data_grad, lr, params)
    key, cached = (center, quad_diag, lr), terms.get("key")
    if cached is None or any(a is not b for a, b in zip(cached, key)):
        lq = lr * quad_diag
        terms.update(key=key, shift=lq * center, denom=1.0 + lq)
    np.add(half, terms["shift"], out=half)
    return np.divide(half, terms["denom"], out=half)


def prox_objective(
    arch: nn.MlpArch, mu: float = 0.0, center: np.ndarray | None = None
) -> Objective:
    """FedProx: mean-CE + (mu/2) ||m - center||^2; mu = 0 is FedAvg's plain CE."""

    def objective(m, batch):
        ce, g = nn.loss_and_grad(m, arch, batch)
        if mu > 0.0:
            diff = m - center
            return ce + 0.5 * mu * float(diff @ diff), g, center, mu
        return ce, g, None, 0.0

    return objective


def total_loss_and_grad(objective: Objective, m: np.ndarray, batch: nn.Batch):
    """An objective's loss and total gradient at m."""
    loss, g, center, quad = objective(m, batch)
    return loss, g if center is None else g + quad * (m - center)


def local_train(
    m: np.ndarray,
    objective: Objective,
    inputs: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    head: slice | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Minibatch epochs of `objective` from m; returns (final m, batch losses).

    Each epoch draws one permutation of the rows from rng and walks it in
    batches of `batch_size`, so every strategy sees the same batch order.
    `head` is a slice of coordinates whose data gradient is zeroed (a frozen
    head). The steps update one working copy of m in place; m itself is never
    written to (see the module docstring for what the objective must allow).
    """
    m = m.copy()
    terms: dict = {}
    losses = []
    n = inputs.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            loss, g, center, quad = objective(
                m, nn.Batch(inputs=inputs[idx], labels=labels[idx])
            )
            losses.append(loss)
            if head is not None:
                g[head] = 0.0
            if center is None:
                nn.sgd_step(m, g, lr, m)
            else:
                prox_quadratic_step(m, g, lr, center, quad, terms)
    return m, losses
