"""Mixture-of-prototypes hierarchical strategy.

The server keeps K prototype parameter vectors plus a gating network. Clients
minimize cross-entropy plus a log-sum-exp pull toward the nearest prototypes;
the server runs one EM step per round on the prototypes and averages gating
parameters. Global prediction is a gating-weighted mixture of the K expert
networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, optim

WARM_STARTS = ("proxy", "per_prototype")


@dataclass(frozen=True)
class MixtureGlobalPosterior:
    prototypes: tuple[np.ndarray, ...]  # K vectors of length d
    sigma_sq: float
    epsilon: float
    gating: np.ndarray  # parameters of gating_arch
    gating_arch: nn.MlpArch  # backbone family with K outputs

    def __post_init__(self):
        if len(self.prototypes) < 1:
            raise ValueError("need at least one prototype")
        if self.sigma_sq <= 0:
            raise ValueError(f"sigma_sq must be positive, got {self.sigma_sq}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.gating_arch.num_classes != len(self.prototypes):
            raise ValueError(
                f"gating output dim {self.gating_arch.num_classes} != "
                f"K={len(self.prototypes)}"
            )
        if self.gating.shape != (nn.param_count(self.gating_arch),):
            raise ValueError("gating parameter vector does not match gating_arch")

    @property
    def k(self) -> int:
        return len(self.prototypes)


def mix_penalty(
    m: np.ndarray, prototypes, sigma_sq: float
) -> tuple[float, np.ndarray]:
    """-log sum_j exp(-d_j) and the softmax weights w of -d, one pass over
    the K distances d_j = ||m-r_j||^2 / 2 sigma^2.

    The penalty's gradient in m is sum_j w_j (m - r_j) / sigma^2.
    Max-subtraction keeps the evaluation finite for arbitrarily large
    distances.
    """
    dists = np.empty(len(prototypes))
    for j, r in enumerate(prototypes):
        diff = m - r
        dists[j] = float(diff @ diff) / (2.0 * sigma_sq)
    a = -dists
    a_max = a.max()
    exp_shift = np.exp(a - a_max)
    total = exp_shift.sum()
    return -(a_max + np.log(total)), exp_shift / total


def prototype_weights(m: np.ndarray, prototypes, sigma_sq: float) -> np.ndarray:
    """Softmax weights of -||m-r_j||^2/2sigma^2, one responsibility row."""
    return mix_penalty(m, prototypes, sigma_sq)[1]


def mix_objective(
    global_post: MixtureGlobalPosterior,
    arch: nn.MlpArch,
    data_size: int,
    majorize: bool = True,
) -> optim.Objective:
    """The mixture local objective, for `optim.local_train`.

    loss = mean-CE(batch; m) + (1/|D_i|) mix_penalty(m). The CE term
    evaluates at the mean m_i of the client's spiky Gaussian (the epsilon
    noise is far below test tolerances). With `majorize` the
    penalty is handed to the driver as its Jensen majorizer at m (center =
    responsibility-weighted prototype average, curvature 1/(sigma^2 |D_i|)),
    which has the same gradient there; otherwise its gradient joins the data
    gradient and the driver takes plain SGD steps.
    """
    if data_size < 1:
        raise ValueError(f"data_size must be >= 1, got {data_size}")
    protos, sigma_sq = global_post.prototypes, global_post.sigma_sq
    quad = 1.0 / (sigma_sq * data_size)

    def objective(m, batch):
        ce, g = nn.loss_and_grad(m, arch, batch)
        pen, wts = mix_penalty(m, protos, sigma_sq)
        loss = ce + pen / data_size
        if not majorize:
            pen_grad = np.zeros_like(m)
            for j, r in enumerate(protos):
                pen_grad += wts[j] * (m - r)
            return loss, g + pen_grad / sigma_sq / data_size, None, 0.0
        center = np.zeros_like(m)
        for j, r in enumerate(protos):
            center += wts[j] * r
        return loss, g, center, quad

    return objective


def mix_e_step(client_means, prototypes, sigma_sq: float) -> np.ndarray:
    """Responsibilities c(j|i): row-stochastic softmax of -||m_i-r_j||^2/2sigma^2."""
    if len(client_means) == 0 or len(prototypes) == 0:
        raise ValueError("client_means and prototypes must be non-empty")
    c = np.empty((len(client_means), len(prototypes)))
    for i, m in enumerate(client_means):
        c[i] = prototype_weights(m, prototypes, sigma_sq)
    return c


def mix_m_step(
    client_means, c: np.ndarray, sigma_sq: float, n_clients: int
) -> tuple[np.ndarray, ...]:
    """r_j* = [(1/N_f) sum_i c(j|i) m_i] / [sigma^2/N + (1/N_f) sum_i c(j|i)]."""
    n_f = len(client_means)
    if c.shape[0] != n_f:
        raise ValueError(f"responsibilities rows {c.shape[0]} != N_f {n_f}")
    d = client_means[0].shape[0]
    k = c.shape[1]
    new = []
    for j in range(k):
        num = np.zeros(d)
        for i, m in enumerate(client_means):
            num += c[i, j] * m
        num /= n_f
        den = sigma_sq / n_clients + c[:, j].sum() / n_f
        new.append(num / den)
    return tuple(new)


def mix_server_objective(prototypes, client_means, sigma_sq: float) -> float:
    """(1/2) sum_j ||r_j||^2 - sum_i log sum_j exp(-||m_i-r_j||^2/2sigma^2)."""
    value = 0.5 * sum(float(r @ r) for r in prototypes)
    for m in client_means:
        value += mix_penalty(m, prototypes, sigma_sq)[0]
    return value


def nearest_prototype(m: np.ndarray, prototypes) -> int:
    """argmin_j ||m - r_j||, ties broken by lowest index."""
    dists = [float((m - r) @ (m - r)) for r in prototypes]
    return int(np.argmin(dists))


def gating_local_update(
    beta: np.ndarray,
    gating_arch: nn.MlpArch,
    batch_inputs: np.ndarray,
    m_i: np.ndarray,
    prototypes,
    lr: float,
    head_frozen: bool = False,
) -> np.ndarray:
    """One CE SGD step teaching the gating net to output j* on these inputs."""
    j_star = nearest_prototype(m_i, prototypes)
    labels = np.full(batch_inputs.shape[0], j_star, dtype=np.int64)
    batch = nn.Batch(inputs=batch_inputs, labels=labels)
    _, grad = nn.loss_and_grad(beta, gating_arch, batch)
    if head_frozen:
        grad = grad.copy()
        grad[nn.head_freeze_mask(gating_arch)] = 0.0
    return nn.sgd_step(beta, grad, lr)


def mix_global_predict(
    x_batch: np.ndarray, global_post: MixtureGlobalPosterior, arch: nn.MlpArch
) -> np.ndarray:
    """sum_j g_j(x) softmax(forward(x; r_j)): gating-weighted expert mixture."""
    dummy = np.zeros(len(x_batch), dtype=np.int64)
    batch = nn.Batch(inputs=x_batch, labels=dummy)
    g = nn.softmax(nn.forward(global_post.gating, global_post.gating_arch, batch))
    out = np.zeros((x_batch.shape[0], arch.num_classes))
    for j, r in enumerate(global_post.prototypes):
        out += g[:, j : j + 1] * nn.softmax(nn.forward(r, arch, batch))
    return out


def mix_personalize(
    inputs: np.ndarray,
    labels: np.ndarray,
    global_post: MixtureGlobalPosterior,
    arch: nn.MlpArch,
    epochs: int,
    lr: float,
    rng: np.random.Generator,
    batch_size: int = 50,
    warm_start: str = "proxy",
) -> np.ndarray:
    """Fine-tune a personal mean on CE + (1/|D^p|) mix_penalty by plain SGD.

    warm_start="proxy": one epoch of plain fine-tuning from the
    gating-weighted prototype average gives a proxy local mean; start at the
    prototype nearest to it. warm_start="per_prototype": run the optimization
    from every prototype and keep the result with the lowest final objective
    on the personal data. 0 epochs returns the warm-start prototype itself.
    """
    n = inputs.shape[0]
    if n < 1:
        raise ValueError("personal training data is empty")
    if warm_start not in WARM_STARTS:
        raise ValueError(f"unknown warm_start {warm_start!r}")
    objective = mix_objective(global_post, arch, n, majorize=False)

    def train(start, obj, run_epochs):
        m, _ = optim.local_train(
            start, obj, inputs, labels, batch_size, run_epochs, lr, rng
        )
        return m

    if warm_start == "per_prototype":
        candidates = [train(r, objective, epochs) for r in global_post.prototypes]
        full = nn.Batch(inputs=inputs, labels=labels)
        scores = [objective(m, full)[0] for m in candidates]
        return candidates[int(np.argmin(scores))]

    # proxy: plain fine-tune one epoch from the gating-weighted average
    dummy = np.zeros(n, dtype=np.int64)
    g = nn.softmax(
        nn.forward(global_post.gating, global_post.gating_arch, nn.Batch(inputs, dummy))
    ).mean(axis=0)
    proxy = np.zeros_like(global_post.prototypes[0])
    for j, r in enumerate(global_post.prototypes):
        proxy += g[j] * r
    proxy = train(proxy, optim.prox_objective(arch), 1)
    start = global_post.prototypes[nearest_prototype(proxy, global_post.prototypes)]
    return train(start, objective, epochs)
