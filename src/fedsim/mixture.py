"""Mixture-of-prototypes hierarchical strategy.

The server keeps K prototype parameter vectors plus a gating network. Clients
minimize cross-entropy plus a log-sum-exp pull toward the nearest prototypes;
the server runs one EM step per round on the prototypes and averages gating
parameters. Global prediction is a gating-weighted mixture of the K expert
networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn, optim


@dataclass(frozen=True)
class MixtureGlobalPosterior:
    prototypes: tuple[np.ndarray, ...]  # K vectors of length d
    sigma_sq: float
    gating: np.ndarray  # parameters of gating_arch
    gating_arch: nn.MlpArch  # backbone family with K outputs

    def __post_init__(self):
        if len(self.prototypes) < 1:
            raise ValueError("need at least one prototype")
        if not self.sigma_sq > 0:
            raise ValueError(f"sigma_sq must be positive, got {self.sigma_sq}")
        if self.gating_arch.num_classes != len(self.prototypes):
            raise ValueError(
                f"gating output dim {self.gating_arch.num_classes} != "
                f"K={len(self.prototypes)}"
            )
        if self.gating.shape != (nn.param_count(self.gating_arch),):
            raise ValueError("gating parameter vector does not match gating_arch")


def sq_dists(m: np.ndarray, prototypes, diffs=None) -> np.ndarray:
    """||m - r_j||^2 for each prototype r_j, through one scratch vector.

    `diffs`, one buffer per prototype (the same buffer may repeat), keeps
    each m - r_j for the caller.
    """
    if diffs is None:
        diffs = [np.empty_like(m)] * len(prototypes)
    out = np.empty(len(prototypes))
    for j, r in enumerate(prototypes):
        out[j] = np.subtract(m, r, out=diffs[j]) @ diffs[j]
    return out


def mix_penalty(
    m: np.ndarray, prototypes, sigma_sq: float, diffs=None
) -> tuple[float, np.ndarray]:
    """-log sum_j exp(-d_j) and the softmax weights w of -d, one pass over
    the K distances d_j = ||m-r_j||^2 / 2 sigma^2 (`diffs` as in `sq_dists`).

    The penalty's gradient in m is sum_j w_j (m - r_j) / sigma^2.
    Max-subtraction keeps the evaluation finite for arbitrarily large
    distances.
    """
    a = -(sq_dists(m, prototypes, diffs) / (2.0 * sigma_sq))
    a_max = a.max()
    exp_shift = np.exp(a - a_max)
    total = exp_shift.sum()
    return -(a_max + np.log(total)), exp_shift / total


def prototype_weights(m: np.ndarray, prototypes, sigma_sq: float) -> np.ndarray:
    """Softmax weights of -||m-r_j||^2/2sigma^2, one responsibility row."""
    return mix_penalty(m, prototypes, sigma_sq)[1]


def prototype_bounds(prototypes) -> tuple[list[float], list[float]]:
    """(hi, lo): max_i |r_k,i| and min_i |r_k,i| of each prototype r_k.

    A NaN entry makes both bounds NaN.
    """
    hi, lo = [], []
    for r in prototypes:
        mag = np.abs(r)
        hi.append(float(mag.max()))
        lo.append(float(mag.min()))
    return hi, lo


def _margin(d: int) -> float:
    """eps = d 2^-45, the relative slack `certified_penalty` gives a computed
    squared distance of length-d vectors."""
    return d * 2.0**-45


def prototype_separations(prototypes) -> list[list[float]]:
    """s[j][k] <= ||r_j - r_k|| for every pair, the bounds `certified_penalty`
    takes; 0.0 (no bound) where the computed distance is not finite.

    The bound is (sqrt(S) - 2^-500)(1 - eps) for the computed squared
    distance S (see `certified_penalty`).
    """
    k, eps = len(prototypes), _margin(prototypes[0].size)
    seps = [[0.0] * k for _ in range(k)]
    for j in range(k):
        for i, sq in enumerate(sq_dists(prototypes[j], prototypes[j + 1 :]), j + 1):
            if sq < math.inf:
                seps[j][i] = seps[i][j] = (math.sqrt(sq) - 2.0**-500) * (1.0 - eps)
    return seps


def certified_penalty(m, j, prototypes, sigma_sq, seps, hi, lo, scratch):
    """`mix_penalty(m, prototypes, sigma_sq)[0]` from the one distance
    D_j = ||m - r_j||^2, or None when the bound below cannot show that the
    full computation has w_j = 1.0 and passes `majorizer_center`'s dominance
    test, whose center is then r_j itself.

    `seps` is `prototype_separations(prototypes)`, `hi` and `lo` are
    `prototype_bounds(prototypes)` and `scratch` is a vector of m's shape.
    With eps = d 2^-45, c = 2 sigma^2 and q = D / c (mix_penalty's a = -q),
    for every k != j:

    - A computed squared distance of length-d float vectors is within
      relative error eps/8 plus 2^-1000 of the exact one in any summation
      order (d + 2 roundings of at most 2^-53, and at most 2^-1075 lost to
      underflow per term), and the few roundings that turn D_j into reach
      and S into seps[j][k] fit in the rest of the eps margin. So
      reach >= ||m - r_j||, seps[j][k] <= ||r_j - r_k|| and, by the triangle
      inequality, ||m - r_k|| >= gap = seps[j][k] - reach.
    - With 2^-450 < gap < 2^500 the absolute terms are below eps gap^2, so the
      computed D_k >= (1 - eps/2) gap^2 and mix_penalty's exponent
      x_k = fl(a_k - a_j) is at most t_k + 2^-1075, t_k = q_j - (1 - 2 eps)
      gap^2 / c as computed here (its rounding is below eps gap^2 / 2c), or
      below -2^1000 when that quotient overflows.
    - exp is accurate to a few ulps, so e_k = fl(exp(x_k)) <= b_k =
      2 exp(t_k) + 2^-1070, and t_k < -40 keeps math.exp finite.
    - When the b_k sum below 2^-54, every partial sum of the e_k is below
      2^-53, so the softmax total is 1.0 (e_j = exp(0.0)) in any order: the
      penalty is -(a_j + log 1.0) = -(a_j + 0.0), w_j = 1.0 and
      w_k = e_k <= b_k < 1.0, so j = argmax w.
    - Rounding is monotone, so `majorizer_center`'s S, the k-order sum of
      fl(|w_k| hi_k), is at most the same sum of fl(b_k hi_k); the test
      below is the dominance test on that sum with |w_j| lo_j = lo_j.

    A NaN or an infinity fails a comparison and returns None.
    """
    two_var, eps = 2.0 * sigma_sq, _margin(m.size)
    d_j = float(np.subtract(m, prototypes[j], out=scratch) @ scratch)
    q_j = d_j / two_var
    reach = (math.sqrt(d_j) + 2.0**-500) * (1.0 + eps)
    small = rest = 0.0
    for k in range(len(prototypes)):
        if k != j:
            gap = seps[j][k] - reach
            t = q_j - (1.0 - 2.0 * eps) * (gap * gap / two_var)
            if not (2.0**-450 < gap < 2.0**500 and t < -40.0):
                return None
            b = 2.0 * math.exp(t) + 2.0**-1070
            small += b
            rest += b * hi[k]
    if not (small < 2.0**-54 and rest * 2.0**60 < lo[j]):
        return None
    return -(-q_j + 0.0)


def majorizer_center(wts, prototypes, hi, lo, term: np.ndarray) -> np.ndarray:
    """sum_k w_k r_k, the bits of a sum from zeros in k order.

    `hi` and `lo` are `prototype_bounds(prototypes)`; `term` is scratch of a
    prototype's shape. The sum is `((w_0 r_0 + 0.0) + w_1 r_1) + ...` in a
    fresh array, unless one prototype j = argmax w dominates: S < 2^-60 L,
    where L = fl(|w_j| lo_j) and S is the floating-point sum of
    fl(|w_k| hi_k) over k != j in k order. Then the center is the single
    product w_j r_j, in a fresh array, or r_j itself when w_j is 1.0
    (1.0 x is x for every float), and this is exact:

    - Rounding is monotone and symmetric, so every product the sum would add
      has |fl(w_k r_k,i)| <= fl(|w_k| hi_k), every partial sum of the
      k != j terms is at most S in magnitude (also when a bound underflows),
      and P = fl(w_j r_j,i) has |P| >= L > 0, so P is not zero.
    - A normal P has float neighbours at least 2^-53 |P| away, so adding
      t with |t| <= S < 2^-60 |P| rounds back to P. A subnormal P has
      |P| < 2^-1022, so every such t is a float below 2^-1082: a zero.
    - By induction over the sum's order, the partial sum is the small terms
      alone before w_j r_j is added and P at every step after, so the sum
      is P bit for bit (P is not zero, so the sign of a zero never matters).
    - A NaN bound or weight, an infinite S, or lo_j = 0 (L = 0) fails the
      test and takes the full sum; an infinite entry of r_j gives the same
      infinity either way.

    The single product skips the K - 1 products and sums that run in
    subnormal arithmetic once a prototype's responsibility underflows.
    """
    j = int(np.argmax(wts))
    # Python floats: a bound that underflows neither warns nor trips errstate
    w = [float(x) for x in wts]
    rest = 0.0
    for k in range(len(prototypes)):
        if k != j:
            rest += abs(w[k]) * hi[k]
    # scaling by 2^60 is exact short of overflow, which fails the test
    if rest * 2.0**60 < abs(w[j]) * lo[j]:
        return prototypes[j] if w[j] == 1.0 else np.multiply(wts[j], prototypes[j])
    # adding 0.0 to w_0 r_0 gives the bits of a sum started from zeros
    # (-0.0 becomes +0.0)
    center = np.multiply(wts[0], prototypes[0])
    center += 0.0
    for k in range(1, len(prototypes)):
        center += np.multiply(wts[k], prototypes[k], out=term)
    return center


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
    gradient and the driver takes plain SGD steps, reusing the K differences
    m - r_j of the distances, kept in K buffers.

    A majorizer step first tries `certified_penalty` on the prototype the
    previous step was pulled to (r_0 at the first step): when one prototype
    holds all the responsibility, as it does from round 1 at protocol shape,
    the step pays one distance and returns that prototype itself as the
    center, the same object at every step, so the driver computes its prox
    terms once. Otherwise the step computes all K distances and
    `majorizer_center`. The prototype bounds and separations are computed
    once per objective: the prototypes do not change within a client update.
    """
    if data_size < 1:
        raise ValueError(f"data_size must be >= 1, got {data_size}")
    protos, sigma_sq = global_post.prototypes, global_post.sigma_sq
    quad = 1.0 / (sigma_sq * data_size)
    term = np.empty_like(protos[0])  # one prototype's term, rewritten for each
    if majorize:
        hi, lo = prototype_bounds(protos)
        seps, diffs = prototype_separations(protos), [term] * len(protos)
    else:
        pen_grad, diffs = term, [np.empty_like(term) for _ in protos]
    near = 0

    def objective(m, batch):
        nonlocal near
        ce, g = nn.loss_and_grad(m, arch, batch)
        if majorize:
            pen = certified_penalty(m, near, protos, sigma_sq, seps, hi, lo, term)
            if pen is not None:
                return ce + pen / data_size, g, protos[near], quad
        pen, wts = mix_penalty(m, protos, sigma_sq, diffs)
        loss = ce + pen / data_size
        if not majorize:
            # sum_j w_j (m - r_j) / sigma^2 / |D_i|, summed from zero
            pen_grad.fill(0.0)
            for j, diff in enumerate(diffs):
                np.add(pen_grad, np.multiply(wts[j], diff, out=diff), out=pen_grad)
            np.divide(pen_grad, sigma_sq, out=pen_grad)
            np.divide(pen_grad, data_size, out=pen_grad)
            g += pen_grad
            return loss, g, None, 0.0
        near = int(np.argmax(wts))
        return loss, g, majorizer_center(wts, protos, hi, lo, term), quad

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
    return int(np.argmin(sq_dists(m, prototypes)))


def gating_local_update(
    beta, gating_arch, inputs, j_star, batch_size, lr, rng, head_frozen=False
) -> np.ndarray:
    """One epoch of CE SGD teaching the gating net to output j* on these inputs.

    j* is the client's nearest prototype, `nearest_prototype(m_i, prototypes)`.
    The epoch runs through `optim.local_train` with every label set to j*, and
    returns the final gating parameters; beta itself is not written.
    """
    labels = np.full(inputs.shape[0], j_star, dtype=np.int64)
    head = nn.head_span(gating_arch) if head_frozen else None
    beta, _ = optim.local_train(
        beta, optim.prox_objective(gating_arch), inputs, labels, batch_size, 1, lr,
        rng, head,
    )
    return beta


def mix_global_predict(
    x_batch: np.ndarray, global_post: MixtureGlobalPosterior, arch: nn.MlpArch
) -> np.ndarray:
    """sum_j g_j(x) softmax(forward(x; r_j)): gating-weighted expert mixture."""
    g = nn.softmax(nn.forward(global_post.gating, global_post.gating_arch, x_batch))
    out = np.zeros((x_batch.shape[0], arch.num_classes))
    for j, r in enumerate(global_post.prototypes):
        out += g[:, j : j + 1] * nn.softmax(nn.forward(r, arch, x_batch))
    return out


def mix_personalize(
    inputs: np.ndarray,
    labels: np.ndarray,
    global_post: MixtureGlobalPosterior,
    arch: nn.MlpArch,
    config,
    epochs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fine-tune a personal mean on CE + (1/|D^p|) mix_penalty by plain SGD.

    `config` (a `runtime.FederatedConfig`) gives the batch size and lr. One epoch
    of plain fine-tuning from the gating-weighted prototype average gives a
    proxy local mean; the fine-tune starts at the prototype nearest to it.
    0 epochs returns a copy of that prototype.
    """
    n = inputs.shape[0]
    if n < 1:
        raise ValueError("personal training data is empty")

    def train(start, obj, run_epochs):
        m, _ = optim.local_train(
            start, obj, inputs, labels, config.batch_size, run_epochs, config.lr, rng
        )
        return m

    g = nn.softmax(
        nn.forward(global_post.gating, global_post.gating_arch, inputs)
    ).mean(axis=0)
    proxy = np.zeros_like(global_post.prototypes[0])
    for j, r in enumerate(global_post.prototypes):
        proxy += g[j] * r
    proxy = train(proxy, optim.prox_objective(arch), 1)
    start = global_post.prototypes[nearest_prototype(proxy, global_post.prototypes)]
    return train(start, mix_objective(global_post, arch, n, majorize=False), epochs)
