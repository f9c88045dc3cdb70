"""Strategy dispatch: client update, aggregation, prediction, personalization.

Every strategy trains through one driver, `optim.local_train`, on one local
objective: `optim.prox_objective` for FedAvg (mu = 0) and FedProx,
`niw.niw_objective` and `mixture.mix_objective`. The `optim` module
docstring sets out the driver's splitting step and what the driver and each
objective own. For FedProx and the NIW strategy the step's quadratic model
is the penalty itself, so the step is exact; the mixture strategy uses the
Jensen majorizer of its log-sum-exp penalty at the current iterate, which
has the same gradient there. With one prototype the majorizer is the FedProx
penalty, so the K=1 reduction holds bit for bit. FedAvg has no penalty and
takes plain SGD steps. FedBABU is FedAvg with the head frozen during
training (the config forces `body_update` for it); the frozen head is the
slice `nn.head_span`. Clients keep no state between rounds. A mixture
client starts from the prototype with the lowest loss on its data, scored by
forward passes alone; its gating net then takes one epoch through the same
driver (`mixture.gating_local_update`), on CE toward its nearest prototype.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import baselines, mixture, niw, nn, optim
from .rng import stream


@dataclass(frozen=True)
class ClientResult:
    params: np.ndarray  # final local mean m_i
    loss: float  # mean training loss over the local steps
    beta: np.ndarray | None = None  # mixture gating parameters


def _local_train(m, objective, client_id, inputs, labels, arch, config, lr, round_idx):
    """The client update's epochs, with the shared batch stream and head
    freezing; returns the final mean and the mean loss over the steps."""
    head = nn.head_span(arch) if config.body_update else None
    brng = stream(config.seed, "batch", client_id, round_idx)
    m, losses = optim.local_train(
        m, objective, inputs, labels, config.batch_size, config.local_epochs, lr,
        brng, head,
    )
    return m, float(np.mean(losses))


def _restore_slice(new: np.ndarray, old: np.ndarray, keep: slice) -> np.ndarray:
    out = new.copy()
    out[keep] = old[keep]
    return out


class Strategy:
    """Interface each federated strategy implements."""

    # the class of the global state; checkpoints decode the state into it
    state_type: type

    def init_state(self, arch, init_params, config, total_data_size):
        raise NotImplementedError

    def client_update(
        self, state, client_id, inputs, labels, arch, config, lr, round_idx
    ) -> ClientResult:
        raise NotImplementedError

    def aggregate(self, state, results, config):
        """Returns (new state, logged server objective)."""
        raise NotImplementedError

    def restore_heads(self, new_state, prev_state, arch):
        """Copy head slices of mean-like vectors back from the previous state.

        Inductively pins every head at its round-0 value: floating-point
        averaging of N_f bit-identical heads is not exact, and the Bayesian
        aggregations shrink means, so body-update needs an explicit restore.
        """
        raise NotImplementedError

    def global_predict(self, state, x, arch, config, rng) -> np.ndarray:
        raise NotImplementedError

    def personalize(self, state, inputs, labels, arch, config, epochs, rng) -> np.ndarray:
        raise NotImplementedError


class FedAvgStrategy(Strategy):
    """Plain parameter averaging; also the base for FedProx."""

    state_type = np.ndarray

    def _mu(self, config) -> float:
        return 0.0

    def init_state(self, arch, init_params, config, total_data_size):
        return init_params.copy()

    def client_update(
        self, state, client_id, inputs, labels, arch, config, lr, round_idx
    ) -> ClientResult:
        objective = optim.prox_objective(arch, self._mu(config), state)
        m, loss = _local_train(
            state, objective, client_id, inputs, labels, arch, config, lr, round_idx
        )
        return ClientResult(params=m, loss=loss)

    def aggregate(self, state, results, config):
        new = baselines.fedavg_aggregate([r.params for r in results])
        return new, float(np.mean([r.loss for r in results]))

    def restore_heads(self, new_state, prev_state, arch):
        return _restore_slice(new_state, prev_state, nn.head_span(arch))

    def global_predict(self, state, x, arch, config, rng):
        return nn.softmax(nn.forward(state, arch, x))

    def personalize(self, state, inputs, labels, arch, config, epochs, rng):
        m, _ = optim.local_train(
            state, optim.prox_objective(arch), inputs, labels, config.batch_size,
            epochs, config.lr, rng,
        )
        return m


class FedProxStrategy(FedAvgStrategy):
    def _mu(self, config) -> float:
        return config.mu_prox


class NiwStrategy(Strategy):
    state_type = niw.NiwGlobalPosterior

    def init_state(self, arch, init_params, config, total_data_size):
        post = niw.niw_init(nn.param_count(arch), total_data_size)
        # the broadcast starting point is the usual random network init; the
        # prior location only enters through the server update's shrinkage
        return replace(post, m0=init_params.copy())

    def client_update(
        self, state, client_id, inputs, labels, arch, config, lr, round_idx
    ) -> ClientResult:
        mrng = stream(config.seed, "mask", client_id, round_idx)
        objective = niw.niw_objective(
            state, arch, inputs.shape[0], config.p_keep, config.penalty_mode,
            mrng if config.p_keep < 1.0 else None,
        )
        m, loss = _local_train(
            state.m0, objective, client_id, inputs, labels, arch, config, lr,
            round_idx,
        )
        return ClientResult(params=m, loss=loss)

    def aggregate(self, state, results, config):
        means = [r.params for r in results]
        new = niw.niw_server_update(
            means, state, config.n_clients, config.p_keep, config.epsilon
        )
        obj = niw.niw_server_objective(
            new.m0, new.v0_diag, means, state, config.n_clients,
            config.p_keep, config.epsilon,
        )
        return new, obj

    def restore_heads(self, new_state, prev_state, arch):
        m0 = _restore_slice(new_state.m0, prev_state.m0, nn.head_span(arch))
        return replace(new_state, m0=m0)

    def global_predict(self, state, x, arch, config, rng):
        return niw.niw_global_predict(x, state, arch, config.sample_count, rng)

    def personalize(self, state, inputs, labels, arch, config, epochs, rng):
        return niw.niw_personalize(inputs, labels, state, arch, config, epochs, rng)


class MixtureStrategy(Strategy):
    state_type = mixture.MixtureGlobalPosterior

    def init_state(self, arch, init_params, config, total_data_size):
        protos = tuple(
            init_params
            + 0.01 * stream(config.seed, "proto", j).normal(size=init_params.size)
            for j in range(config.k_prototypes)
        )
        gating_arch = nn.MlpArch((*arch.layer_sizes[:-1], config.k_prototypes))
        gating = nn.init_params(gating_arch, stream(config.seed, "gating"))
        return mixture.MixtureGlobalPosterior(
            prototypes=protos,
            sigma_sq=config.sigma_sq,
            gating=gating,
            gating_arch=gating_arch,
        )

    def _start(self, state, inputs, labels, arch):
        batch = nn.Batch(inputs=inputs, labels=labels)
        scores = [nn.mean_loss(r, arch, batch) for r in state.prototypes]
        return state.prototypes[int(np.argmin(scores))]

    def client_update(
        self, state, client_id, inputs, labels, arch, config, lr, round_idx
    ) -> ClientResult:
        m, loss = _local_train(
            self._start(state, inputs, labels, arch),
            mixture.mix_objective(state, arch, inputs.shape[0]), client_id, inputs,
            labels, arch, config, lr, round_idx,
        )
        # gating learns to route this client's inputs to its nearest prototype
        beta = mixture.gating_local_update(
            state.gating, state.gating_arch, inputs,
            mixture.nearest_prototype(m, state.prototypes), config.batch_size, lr,
            stream(config.seed, "gate", client_id, round_idx), config.body_update,
        )
        return ClientResult(params=m, loss=loss, beta=beta)

    def aggregate(self, state, results, config):
        means = [r.params for r in results]
        c = mixture.mix_e_step(means, state.prototypes, state.sigma_sq)
        protos = mixture.mix_m_step(means, c, state.sigma_sq, config.n_clients)
        beta = baselines.fedavg_aggregate([r.beta for r in results])
        new = replace(state, prototypes=protos, gating=beta)
        obj = mixture.mix_server_objective(protos, means, state.sigma_sq)
        return new, obj

    def restore_heads(self, new_state, prev_state, arch):
        keep = nn.head_span(arch)
        protos = tuple(
            _restore_slice(new, old, keep)
            for new, old in zip(new_state.prototypes, prev_state.prototypes)
        )
        gkeep = nn.head_span(new_state.gating_arch)
        gating = _restore_slice(new_state.gating, prev_state.gating, gkeep)
        return replace(new_state, prototypes=protos, gating=gating)

    def global_predict(self, state, x, arch, config, rng):
        return mixture.mix_global_predict(x, state, arch)

    def personalize(self, state, inputs, labels, arch, config, epochs, rng):
        return mixture.mix_personalize(inputs, labels, state, arch, config, epochs, rng)


_FEDAVG = FedAvgStrategy()
STRATEGIES: dict[str, Strategy] = {
    "niw": NiwStrategy(),
    "mixture": MixtureStrategy(),
    "fedavg": _FEDAVG,
    "fedprox": FedProxStrategy(),
    "fedbabu": _FEDAVG,
}
