"""Round-driven federated orchestration.

Owns the experiment configuration, the per-round loop (participant sampling,
local updates, deterministic id-ordered aggregation, metric capture), the
evaluation protocols, and the convergence diagnostic. Every random choice is
drawn from a stream keyed by (seed, purpose, indices), so a run is a pure
function of (seed, config, dataset) and can resume from any round.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import data, niw, nn
from .rng import stream
from .strategies import STRATEGIES, ClientResult, Strategy

LR_SCHEDULES = ("constant_decay", "theory")


class ConfigError(ValueError):
    """Invalid federated configuration."""


class ClientUpdateError(RuntimeError):
    """A client's local update failed; aborts the round with context."""

    def __init__(self, client_id: int, round_index: int, cause: Exception):
        super().__init__(
            f"client {client_id} failed in round {round_index}: {cause!r}"
        )
        self.client_id = client_id
        self.round_index = round_index
        self.cause = cause


def default_rounds(local_epochs: int) -> int:
    """Round budget rule floor(320 / tau)."""
    return 320 // local_epochs


# each choice field's valid values, kept by the module that interprets them
_CHOICES = {
    "strategy": STRATEGIES,
    "lr_schedule": LR_SCHEDULES,
    "penalty_mode": niw.PENALTY_MODES,
}


@dataclass(frozen=True)
class FederatedConfig:
    n_clients: int = 100  # reference protocol client count
    participation: float = 1.0  # f
    local_epochs: int = 1  # tau
    rounds: int | None = None  # default floor(320/tau)
    strategy: str = "fedavg"
    p_keep: float = 1.0 - 0.001
    epsilon: float = 1e-4
    sigma_sq: float = 0.1
    k_prototypes: int = 2
    mu_prox: float = 0.01
    lr: float = 0.1
    lr_decay: float = 0.1  # applied once, past half the rounds
    lr_schedule: str = "constant_decay"
    theory_lbar: float = 1.0
    batch_size: int = 50
    body_update: bool = False
    penalty_mode: str = "literal"
    sample_count: int = 10  # predictive draws for the NIW strategy
    seed: int = 0

    def __post_init__(self):
        for name, valid in _CHOICES.items():
            value = getattr(self, name)
            if value not in valid:
                raise ConfigError(
                    f"unknown {name} {value!r}; valid: {', '.join(valid)}"
                )
        # checked first: the default round budget divides by local_epochs
        for name in ("n_clients", "local_epochs", "batch_size", "k_prototypes",
                     "sample_count"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        # n_f multiplies n_clients by a float, so it must fit in one
        if self.n_clients > sys.float_info.max:
            raise ConfigError(f"n_clients must fit in a float, got {self.n_clients}")
        if self.rounds is None:
            object.__setattr__(self, "rounds", default_rounds(self.local_epochs))
        if self.strategy == "fedbabu" and not self.body_update:
            object.__setattr__(self, "body_update", True)
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError(
                f"participation must be in (0, 1], got {self.participation}"
            )
        if self.n_f < 1:
            raise ConfigError(
                f"N_f must be >= 1: floor({self.n_clients} * "
                f"{self.participation}) = 0"
            )
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if not 0 <= self.mu_prox < math.inf:
            raise ConfigError(f"mu_prox must be >= 0 and finite, got {self.mu_prox}")
        if not 0.0 < self.p_keep <= 1.0:
            raise ConfigError(f"p_keep must be in (0, 1], got {self.p_keep}")
        for name in ("epsilon", "sigma_sq", "lr", "lr_decay"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.theory_lbar < math.inf:
            raise ConfigError(
                f"theory_lbar must be >= 0 and finite, got {self.theory_lbar}"
            )

    @property
    def n_f(self) -> int:
        return int(math.floor(self.n_clients * self.participation))


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    participants: tuple[int, ...]
    global_acc: float
    mean_client_loss: float
    server_objective: float
    wall_ms: float

    def __post_init__(self):
        if not 0.0 <= self.global_acc <= 1.0:
            raise ValueError(f"accuracy {self.global_acc} outside [0, 1]")


@dataclass
class ClientState:
    client_id: int
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        if np.asarray(self.train_indices).size == 0:
            raise ValueError(f"client {self.client_id} has an empty partition")


@dataclass
class RunState:
    config: FederatedConfig
    arch: nn.MlpArch
    strategy: Strategy
    train_ds: data.LabeledDataset
    test_ds: data.LabeledDataset
    clients: list[ClientState]
    strategy_state: object
    round_index: int = 1  # next round to execute, 1-based
    records: list[RoundRecord] = field(default_factory=list)


def init_run(
    config: FederatedConfig,
    arch: nn.MlpArch,
    train_ds: data.LabeledDataset,
    test_ds: data.LabeledDataset,
    partition: data.Partition,
) -> RunState:
    if partition.num_clients != config.n_clients:
        raise ConfigError(
            f"partition has {partition.num_clients} clients, "
            f"config expects {config.n_clients}"
        )
    clients = [
        ClientState(
            client_id=cid,
            train_indices=partition.train_indices[cid],
            test_indices=partition.test_indices[cid],
        )
        for cid in range(config.n_clients)
    ]
    init_params = nn.init_params(arch, stream(config.seed, "init"))
    total = sum(c.train_indices.size for c in clients)
    strategy = STRATEGIES[config.strategy]
    state = strategy.init_state(arch, init_params, config, total)
    return RunState(
        config=config,
        arch=arch,
        strategy=strategy,
        train_ds=train_ds,
        test_ds=test_ds,
        clients=clients,
        strategy_state=state,
    )


def sample_participants(
    n_clients: int, n_f: int, rng: np.random.Generator
) -> list[int]:
    """n_f distinct ids of n_clients, uniform over subsets, returned sorted."""
    ids = rng.choice(n_clients, size=n_f, replace=False)
    return sorted(int(i) for i in ids)


def lr_at(config: FederatedConfig, round_index: int) -> float:
    if config.lr_schedule == "theory":
        return 1.0 / (config.theory_lbar + math.sqrt(round_index))
    half = config.rounds // 2
    return config.lr * (config.lr_decay if round_index > half > 0 else 1.0)


def run_round(run: RunState, evaluate: bool = True) -> RoundRecord:
    """One federated round; mutates run and appends the record."""
    config = run.config
    r = run.round_index
    started = time.perf_counter()
    rng = stream(config.seed, "part", r)
    ids = sample_participants(config.n_clients, config.n_f, rng)
    lr = lr_at(config, r)
    results: list[ClientResult] = []
    for cid in ids:  # ascending id order keeps reductions reproducible
        cl = run.clients[cid]
        inputs = run.train_ds.inputs[cl.train_indices]
        labels = run.train_ds.labels[cl.train_indices]
        try:
            res = run.strategy.client_update(
                run.strategy_state, cid, inputs, labels, run.arch, config, lr, r
            )
            if not np.isfinite(res.params).all():
                raise FloatingPointError("non-finite client parameters")
        except (FloatingPointError, ValueError) as e:
            raise ClientUpdateError(cid, r, e) from e
        results.append(res)
    new_state, objective = run.strategy.aggregate(run.strategy_state, results, config)
    if config.body_update:
        new_state = run.strategy.restore_heads(new_state, run.strategy_state, run.arch)
    run.strategy_state = new_state

    if evaluate:
        acc = evaluate_global(run)
    else:
        acc = run.records[-1].global_acc if run.records else 0.0
    record = RoundRecord(
        round_index=r,
        participants=tuple(ids),
        global_acc=acc,
        mean_client_loss=float(np.mean([res.loss for res in results])),
        server_objective=objective,
        wall_ms=(time.perf_counter() - started) * 1e3,
    )
    run.records.append(record)
    run.round_index = r + 1
    return record


def evaluate_global(run: RunState, chunk: int = 2048) -> float:
    """Top-1 accuracy of the strategy's global predictive distribution."""
    ds = run.test_ds
    correct = 0
    for lo in range(0, len(ds), chunk):
        x = ds.inputs[lo : lo + chunk]
        rng = stream(run.config.seed, "eval", run.round_index, lo)
        probs = run.strategy.global_predict(run.strategy_state, x, run.arch,
                                            run.config, rng)
        correct += int((probs.argmax(axis=1) == ds.labels[lo : lo + chunk]).sum())
    return correct / len(ds)


@dataclass(frozen=True)
class PersonalizationReport:
    mean_acc: float
    std_acc: float
    per_client: tuple[float, ...]


def evaluate_personalized(run: RunState, epochs: int) -> PersonalizationReport:
    """Fine-tune per client on its train split at config.lr; score on its test split."""
    accs = []
    for cl in run.clients:
        if cl.test_indices.size == 0:
            continue
        inputs = run.train_ds.inputs[cl.train_indices]
        labels = run.train_ds.labels[cl.train_indices]
        rng = stream(run.config.seed, "personalize", cl.client_id)
        m = run.strategy.personalize(
            run.strategy_state, inputs, labels, run.arch, run.config, epochs, rng
        )
        tx = run.train_ds.inputs[cl.test_indices]
        ty = run.train_ds.labels[cl.test_indices]
        pred = nn.forward(m, run.arch, tx).argmax(axis=1)
        accs.append(float((pred == ty).mean()))
    if not accs:
        raise ValueError("no client has a personal test split")
    arr = np.array(accs)
    return PersonalizationReport(
        mean_acc=float(arr.mean()),
        std_acc=float(arr.std()),
        per_client=tuple(accs),
    )


def running_average(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.cumsum(values) / np.arange(1, values.size + 1)


@dataclass(frozen=True)
class ConvergenceFit:
    c: float
    offset: float
    residual: float
    monotone: bool  # input non-increasing after the burn-in


def convergence_diagnostic(values, burn_in: int = 0) -> ConvergenceFit:
    """Least-squares fit of y_t = offset + c/sqrt(t) over t > burn_in.

    The intercept absorbs the unknown optimum value, which the decay claim
    says nothing about; c and the residual describe the shape.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size - burn_in < 10:
        raise ValueError(
            f"need at least 10 values after burn-in, got "
            f"{values.size} with burn_in={burn_in}"
        )
    t = np.arange(burn_in + 1, values.size + 1, dtype=np.float64)
    y = values[burn_in:]
    design = np.column_stack([np.ones_like(t), 1.0 / np.sqrt(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    monotone = bool(np.all(np.diff(y) <= 1e-12))
    return ConvergenceFit(
        c=float(coef[1]), offset=float(coef[0]), residual=residual,
        monotone=monotone,
    )
