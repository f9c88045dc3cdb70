"""Normal-Inverse-Wishart hierarchical strategy.

The server keeps a diagonal NIW posterior (m0, v0_diag, l0, n0) over the
global parameter distribution. Clients minimize a dropout cross-entropy plus
a quadratic pull toward m0 weighted by the posterior confidence; the server
refreshes (m0, v0) in closed form from the participants' means; global
prediction samples backbone weights from the induced multivariate Student-t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn, optim

# guard for V0^{-1}: variances this small mean the posterior collapsed
V_MIN = 1e-8

PENALTY_MODES = ("literal", "normalized")


class VarianceFloorViolation(ValueError):
    pass


@dataclass(frozen=True)
class NiwGlobalPosterior:
    m0: np.ndarray  # (d,)
    v0_diag: np.ndarray  # (d,) positive
    l0: float
    n0: float
    d: int

    def __post_init__(self):
        if self.m0.shape != (self.d,) or self.v0_diag.shape != (self.d,):
            raise ValueError(
                f"posterior vectors must have shape ({self.d},), got "
                f"{self.m0.shape} and {self.v0_diag.shape}"
            )
        if not np.all(self.v0_diag > 0):
            raise ValueError("v0_diag entries must be positive")
        # predictive_scale divides by l0
        if not 0 < self.l0 < math.inf:
            raise ValueError(f"l0 must be positive and finite, got {self.l0}")
        if not self.t_dof > 2:
            raise ValueError(f"predictive needs n0 - d + 1 > 2, got {self.t_dof}")

    @property
    def t_dof(self) -> float:
        return self.n0 - self.d + 1


def niw_init(d: int, total_data_size: int) -> NiwGlobalPosterior:
    """Conjugacy-pre-estimated posterior: m0 = 0, v0 = 1, l0 = |D|+1, n0 = |D|+d+2.

    nu0 = d+2 is the smallest value giving the inverse-Wishart a finite mean.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if total_data_size < 0:
        raise ValueError(f"total_data_size must be >= 0, got {total_data_size}")
    return NiwGlobalPosterior(
        m0=np.zeros(d),
        v0_diag=np.ones(d),
        l0=total_data_size + 1.0,
        n0=total_data_size + float(d + 2),
        d=d,
    )


def penalty_weight(
    global_post: NiwGlobalPosterior,
    p_keep: float,
    data_size: int,
    penalty_mode: str = "literal",
) -> np.ndarray:
    """Per-coordinate quadratic weight w so the penalty is (1/2)sum w (m-m0)^2.

    "literal": w = p (n0+d+1) / (|D_i| v0)  -- the full posterior-confidence
    coefficient. "normalized": drops the (n0+d+1) confidence factor, keeping
    the Mahalanobis geometry; used when the literal weight (which grows with
    the parameter count) would swamp the data term at fixed lr.
    """
    if penalty_mode not in PENALTY_MODES:
        raise ValueError(f"penalty_mode must be one of {PENALTY_MODES}")
    if data_size < 1:
        raise ValueError(f"data_size must be >= 1, got {data_size}")
    if np.any(global_post.v0_diag < V_MIN):
        raise VarianceFloorViolation(
            f"v0 entry below floor {V_MIN}: min={global_post.v0_diag.min()}"
        )
    scale = global_post.n0 + global_post.d + 1 if penalty_mode == "literal" else 1.0
    return (p_keep * scale / data_size) / global_post.v0_diag


def niw_objective(
    global_post: NiwGlobalPosterior,
    arch: nn.MlpArch,
    data_size: int,
    p_keep: float,
    penalty_mode: str = "literal",
    mask_rng: np.random.Generator | None = None,
    penalty_value: bool = True,
) -> optim.Objective:
    """The NIW local objective, for `optim.local_train`.

    loss = mean-CE(batch; dropout mask applied to m)
         + (1/2) sum_k w_k (m - m0)_k^2,  w = penalty_weight(...)
    The CE gradient flows only through kept dropout groups; the quadratic
    covers all coordinates and is taken by the driver's proximal step, which
    gets the same m0 and w objects at every step. One fresh mask per batch is
    drawn from mask_rng; None trains without dropout. Without
    `penalty_value` the loss is the CE alone, for callers that never read it:
    the steps are the same.
    """
    w = penalty_weight(global_post, p_keep, data_size, penalty_mode)
    m0 = global_post.m0
    sq = np.empty_like(m0) if penalty_value else None  # (m - m0)^2 per step

    def objective(m, batch):
        mask = None if mask_rng is None else nn.sample_dropout_mask(p_keep, arch, mask_rng)
        ce, g = nn.loss_and_grad(m, arch, batch, mask)
        if not penalty_value:
            return ce, g, m0, w
        np.subtract(m, m0, out=sq)
        np.multiply(sq, sq, out=sq)
        return ce + 0.5 * float(w @ sq), g, m0, w

    return objective


def niw_server_update(
    client_means: list[np.ndarray],
    global_post: NiwGlobalPosterior,
    n_clients: int,
    p_keep: float,
    epsilon: float,
) -> NiwGlobalPosterior:
    """Closed-form minimizer of the server objective (partial participation).

    m0* = (p/(N+1)) (N/N_f) sum_{i in I} m_i
    v0* = (n0/(N+d+2)) [(1+N eps^2) + m0*^2 + (N/N_f) sum_i rho_i], floored,
    with rho_i = p m_i^2 - 2 p m0* m_i + m0*^2 per coordinate. l0 and n0 stay
    frozen at their initialization values.
    """
    n_f = len(client_means)
    if n_f == 0:
        raise ValueError("participant list is empty")
    if n_f > n_clients:
        raise ValueError(f"N_f={n_f} exceeds N={n_clients}")
    n0, d = global_post.n0, global_post.d
    total = np.zeros(d)
    for m in client_means:
        total += m
    m0_new = (p_keep / (n_clients + 1)) * (n_clients / n_f) * total

    two_p_m0, m0_sq = (2 * p_keep) * m0_new, m0_new * m0_new
    scatter = np.zeros(d)
    rho, buf = np.empty(d), np.empty(d)
    for m in client_means:
        scatter += _rho(m, p_keep, two_p_m0, m0_sq, rho, buf)
    v0_new = (n0 / (n_clients + d + 2)) * (
        (1 + n_clients * epsilon**2) + m0_sq + (n_clients / n_f) * scatter
    )
    v0_new = np.maximum(v0_new, V_MIN)
    return replace(global_post, m0=m0_new, v0_diag=v0_new)


def niw_server_objective(
    m0: np.ndarray,
    v0_diag: np.ndarray,
    client_means: list[np.ndarray],
    global_post: NiwGlobalPosterior,
    n_clients: int,
    p_keep: float,
    epsilon: float,
) -> float:
    """Explicit server objective (additive constants dropped).

    KL part:      (1/2)[ n0 sum 1/v0 + nu0 sum log v0 + n0 sum m0^2/v0 ]
    client part:  (N/N_f) sum_i [ (n0/2) sum (rho_i + eps^2)/v0 + (1/2) sum log v0 ]
    with nu0 = d+2; niw_server_update returns its exact minimizer.
    """
    n_f = len(client_means)
    n0, d = global_post.n0, global_post.d
    nu0 = d + 2.0
    inv_v = 1.0 / v0_diag
    log_v_sum = np.log(v0_diag).sum()
    value = 0.5 * (
        n0 * inv_v.sum() + nu0 * log_v_sum + n0 * float(m0 @ (m0 * inv_v))
    )
    two_p_m0, m0_sq = (2 * p_keep) * m0, m0 * m0
    rho, buf = np.empty(d), np.empty(d)
    for m in client_means:
        _rho(m, p_keep, two_p_m0, m0_sq, rho, buf)
        rho += epsilon**2
        value += (n_clients / n_f) * (
            0.5 * n0 * float(rho @ inv_v) + 0.5 * log_v_sum
        )
    return value


def _rho(m, p_keep, two_p_m0, m0_sq, out, buf):
    """rho = p m^2 - 2p m0 m + m0^2 into out, as (p*m*m - (2p*m0)*m) + m0*m0."""
    np.multiply(p_keep, m, out=out)
    out *= m
    out -= np.multiply(two_p_m0, m, out=buf)
    out += m0_sq
    return out


def predictive_scale(global_post: NiwGlobalPosterior) -> np.ndarray:
    """Diagonal scale of the Student-t predictive: (l0+1) V0 / (l0 (n0-d+1))."""
    l0 = global_post.l0
    return (l0 + 1) * global_post.v0_diag / (l0 * global_post.t_dof)


def niw_sample_global(
    global_post: NiwGlobalPosterior,
    rng: np.random.Generator,
    sqrt_scale: np.ndarray | None = None,
) -> np.ndarray:
    """One multivariate Student-t draw: m0 + sqrt(scale) * z * sqrt(nu/u).

    z is a standard normal per coordinate and u a single shared chi-square(nu)
    draw, nu = n0 - d + 1 (above 2 for every posterior). The draw is built
    in place in z's array: times sqrt(scale), times sqrt(nu/u), plus m0, the
    bits of the expression above. A caller drawing many times passes
    `sqrt_scale`, sqrt(predictive_scale(global_post)), computed once.
    """
    nu = global_post.t_dof
    if sqrt_scale is None:
        sqrt_scale = np.sqrt(predictive_scale(global_post))
    theta = rng.standard_normal(global_post.d)
    u = rng.chisquare(nu)
    theta *= sqrt_scale
    theta *= np.sqrt(nu / u)
    theta += global_post.m0
    return theta


def niw_global_predict(
    x_batch: np.ndarray,
    global_post: NiwGlobalPosterior,
    arch: nn.MlpArch,
    sample_count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Class probabilities averaged over S Student-t backbone draws."""
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    probs = np.zeros((x_batch.shape[0], arch.num_classes))
    sqrt_scale = np.sqrt(predictive_scale(global_post))
    for _ in range(sample_count):
        theta = niw_sample_global(global_post, rng, sqrt_scale)
        probs += nn.softmax(nn.forward(theta, arch, x_batch))
    return probs / sample_count


def niw_personalize(
    inputs: np.ndarray,
    labels: np.ndarray,
    global_post: NiwGlobalPosterior,
    arch: nn.MlpArch,
    config,
    epochs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fine-tune a personal mean on local data, head trainable.

    Same objective as the client update with 1/|D^p| downweighting of the
    penalty, warm-started at m0; `config` (a `runtime.FederatedConfig`) gives
    p_keep, the penalty mode, the batch size and lr, and rng draws both the batch
    order and the dropout masks.
    """
    n = inputs.shape[0]
    if n < 1:
        raise ValueError("personal training data is empty")
    # the loss is never read here, so the objective skips the penalty value
    objective = niw_objective(
        global_post, arch, n, config.p_keep, config.penalty_mode, rng, False
    )
    m, _ = optim.local_train(
        global_post.m0, objective, inputs, labels, config.batch_size, epochs,
        config.lr, rng,
    )
    return m
