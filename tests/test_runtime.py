"""Tests for the federated round loop, schedules, evaluation, diagnostics.

Includes the strategy-reduction runs: the NIW client against FedProx under
matched penalties, and the K=1 mixture client against FedProx, compared
iterate by iterate across rounds.
"""

from dataclasses import replace

import numpy as np
import pytest

from fedsim import data, mixture, niw, nn, runtime
from fedsim.rng import stream
from fedsim.strategies import STRATEGIES, ClientResult


def tiny_dataset(seed=0, classes=3, dims=4, per_class=30):
    rng = stream(seed, "tiny")
    xs, ys = [], []
    for c in range(classes):
        center = rng.uniform(0.2, 0.8, size=dims)
        xs.append(np.clip(center + 0.05 * rng.normal(size=(per_class, dims)), 0, 1))
        ys.append(np.full(per_class, c, dtype=np.int64))
    return data.LabeledDataset(
        inputs=np.vstack(xs), labels=np.concatenate(ys), num_classes=classes
    )


def equal_partition(n: int, n_clients: int, interleave=True):
    """Equal-size clients, empty personal test splits."""
    ids = np.arange(n)
    if interleave:
        ids = ids.reshape(-1, n_clients).T.reshape(n_clients, -1)
    else:
        ids = ids.reshape(n_clients, -1)
    empty = np.array([], dtype=np.int64)
    chunks = tuple(np.sort(row) for row in ids)
    return data.Partition(
        client_indices=chunks,
        train_indices=chunks,
        test_indices=(empty,) * n_clients,
    )


def make_run(ds, n_clients=3, test_ds=None, partition=None, **cfg):
    config = runtime.FederatedConfig(n_clients=n_clients, **cfg)
    arch = nn.MlpArch((ds.input_dim, 6, ds.num_classes))
    if partition is None:
        partition = equal_partition(len(ds), n_clients)
    return runtime.init_run(config, arch, ds, test_ds or ds, partition)


class TestConfig:
    def test_default_round_budget(self):
        cfg = runtime.FederatedConfig(n_clients=4, local_epochs=3)
        assert cfg.rounds == 320 // 3

    def test_fedbabu_forces_body_update(self):
        cfg = runtime.FederatedConfig(n_clients=4, strategy="fedbabu")
        assert cfg.body_update is True

    def test_zero_participants_rejected(self):
        with pytest.raises(runtime.ConfigError, match="N_f must be >= 1"):
            runtime.FederatedConfig(n_clients=100, participation=0.005)

    def test_unknown_strategy_lists_valid(self):
        with pytest.raises(runtime.ConfigError, match="fedavg"):
            runtime.FederatedConfig(n_clients=2, strategy="sgd")

    def test_bad_schedule(self):
        with pytest.raises(runtime.ConfigError, match="lr_schedule"):
            runtime.FederatedConfig(n_clients=2, lr_schedule="cosine")


class TestSampleParticipants:
    def test_full_participation_sorted(self):
        ids = runtime.sample_participants(7, 7, stream(0, "p"))
        assert ids == list(range(7))

    def test_cardinality(self):
        ids = runtime.sample_participants(100, 10, stream(1, "p"))
        assert len(ids) == len(set(ids)) == 10

    def test_uniform_frequencies(self):
        counts = np.zeros(10)
        draws = 10_000
        for r in range(draws):
            for i in runtime.sample_participants(10, 3, stream(2, "p", r)):
                counts[i] += 1
        freq = counts / draws
        sigma = np.sqrt(0.3 * 0.7 / draws)
        assert np.abs(freq - 0.3).max() < 4 * sigma

    def test_deterministic(self):
        a = runtime.sample_participants(50, 10, stream(3, "p"))
        b = runtime.sample_participants(50, 10, stream(3, "p"))
        assert a == b


class TestLrSchedule:
    def test_default_single_decay_at_half(self):
        cfg = runtime.FederatedConfig(n_clients=2, rounds=100)
        assert runtime.lr_at(cfg, 50) == pytest.approx(0.1)
        assert runtime.lr_at(cfg, 51) == pytest.approx(0.01)

    @pytest.mark.parametrize("rounds,decayed", [(1, ()), (2, (2,)), (3, (2, 3))])
    def test_decays_once_past_half_the_rounds(self, rounds, decayed):
        """Exact bits: lr * lr_decay once past rounds // 2 > 0, lr before."""
        cfg = runtime.FederatedConfig(n_clients=2, rounds=rounds)
        lrs = [runtime.lr_at(cfg, r) for r in range(1, rounds + 1)]
        assert lrs == [0.1 * 0.1 if r in decayed else 0.1
                       for r in range(1, rounds + 1)]

    def test_theory_schedule(self):
        cfg = runtime.FederatedConfig(
            n_clients=2, rounds=20, lr_schedule="theory", theory_lbar=2.0
        )
        assert runtime.lr_at(cfg, 9) == pytest.approx(1.0 / (2.0 + 3.0))

    def test_single_round_never_decays(self):
        cfg = runtime.FederatedConfig(n_clients=2, rounds=1)
        assert runtime.lr_at(cfg, 1) == pytest.approx(0.1)


class TestRunRound:
    def test_single_client_single_batch_is_one_sgd_step(self):
        ds = tiny_dataset(seed=4, per_class=6)
        run = make_run(ds, n_clients=1, strategy="fedavg", rounds=3,
                       batch_size=64, seed=11)
        old = run.strategy_state.copy()
        record = runtime.run_round(run)
        idx = stream(11, "batch", 0, 1).permutation(18)
        batch = nn.Batch(inputs=ds.inputs[idx], labels=ds.labels[idx])
        _, g = nn.loss_and_grad(old, run.arch, batch)
        np.testing.assert_array_equal(run.strategy_state, nn.sgd_step(old, g, 0.1))
        assert record.participants == (0,)
        assert 0.0 <= record.global_acc <= 1.0

    def test_records_and_state_advance(self):
        ds = tiny_dataset(seed=5)
        run = make_run(ds, strategy="fedavg", rounds=4, batch_size=10, seed=3)
        r1 = runtime.run_round(run)
        r2 = runtime.run_round(run)
        assert (r1.round_index, r2.round_index) == (1, 2)
        assert run.round_index == 3
        assert len(run.records) == 2

    def test_identical_seeds_identical_records(self):
        ds = tiny_dataset(seed=6)
        runs = [
            make_run(ds, strategy="niw", rounds=2, batch_size=15, seed=9,
                     penalty_mode="normalized")
            for _ in range(2)
        ]
        for run in runs:
            for _ in range(2):
                runtime.run_round(run)
        for a, b in zip(runs[0].records, runs[1].records):
            assert a.participants == b.participants
            assert a.global_acc == b.global_acc
            assert a.mean_client_loss == b.mean_client_loss
            assert a.server_objective == b.server_objective

    def test_client_failure_aborts_with_context(self):
        ds = tiny_dataset(seed=7)
        run = make_run(ds, strategy="fedavg", rounds=2, batch_size=10,
                       lr=1e200, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(runtime.ClientUpdateError, match="round 1"):
                runtime.run_round(run)

    def test_skipped_evaluation_carries_last_accuracy(self):
        ds = tiny_dataset(seed=8)
        run = make_run(ds, strategy="fedavg", rounds=3, batch_size=10, seed=5)
        r1 = runtime.run_round(run, evaluate=True)
        r2 = runtime.run_round(run, evaluate=False)
        assert r2.global_acc == r1.global_acc


class TestReductions:
    def test_niw_client_matches_fedprox_over_three_rounds(self):
        ds = tiny_dataset(seed=10, classes=3, dims=4, per_class=30)
        n_clients, n_i = 3, 30
        part = equal_partition(len(ds), n_clients)
        arch = nn.MlpArch((4, 6, 3))
        v_fixed = 2.0
        template = niw.niw_init(nn.param_count(arch), total_data_size=90)
        mu = (template.n0 + template.d + 1) / (v_fixed * n_i)
        cfg_p = runtime.FederatedConfig(
            n_clients=n_clients, strategy="fedprox", mu_prox=mu, rounds=3,
            batch_size=10, local_epochs=2, lr=0.05, seed=21,
        )
        cfg_n = replace(cfg_p, strategy="niw", p_keep=1.0, penalty_mode="literal")
        fedprox = STRATEGIES["fedprox"]
        niw_strat = STRATEGIES["niw"]
        global_params = nn.init_params(arch, stream(21, "init"))
        for r in range(1, 4):
            post = replace(
                template,
                m0=global_params.copy(),
                v0_diag=np.full(template.d, v_fixed),
            )
            step: list[np.ndarray] = []
            for cid in range(n_clients):
                x = ds.inputs[part.train_indices[cid]]
                y = ds.labels[part.train_indices[cid]]
                rp = fedprox.client_update(
                    global_params, cid, x, y, arch, cfg_p, 0.05, r
                )
                rn = niw_strat.client_update(post, cid, x, y, arch, cfg_n, 0.05, r)
                np.testing.assert_allclose(
                    rn.params, rp.params, rtol=0, atol=1e-9
                )
                step.append(rp.params)
            global_params = np.mean(step, axis=0)

    def test_mixture_k1_client_matches_fedprox(self):
        ds = tiny_dataset(seed=11, classes=3, dims=4, per_class=30)
        n_clients, n_i = 3, 30
        part = equal_partition(len(ds), n_clients)
        arch = nn.MlpArch((4, 6, 3))
        sigma_sq = 0.5
        mu = 1.0 / (sigma_sq * n_i)
        cfg_p = runtime.FederatedConfig(
            n_clients=n_clients, strategy="fedprox", mu_prox=mu, rounds=3,
            batch_size=10, local_epochs=1, lr=0.05, seed=22,
        )
        cfg_m = replace(
            cfg_p, strategy="mixture", k_prototypes=1, sigma_sq=sigma_sq
        )
        fedprox = STRATEGIES["fedprox"]
        mix = STRATEGIES["mixture"]
        garch = nn.MlpArch((4, 6, 1))
        global_params = nn.init_params(arch, stream(22, "init"))
        for r in range(1, 4):
            state = mixture.MixtureGlobalPosterior(
                prototypes=(global_params.copy(),),
                sigma_sq=sigma_sq,
                gating=nn.init_params(garch, stream(22, "gating")),
                gating_arch=garch,
            )
            means = []
            for cid in range(n_clients):
                x = ds.inputs[part.train_indices[cid]]
                y = ds.labels[part.train_indices[cid]]
                rp = fedprox.client_update(
                    global_params, cid, x, y, arch, cfg_p, 0.05, r
                )
                rm = mix.client_update(state, cid, x, y, arch, cfg_m, 0.05, r)
                np.testing.assert_allclose(
                    rm.params, rp.params, rtol=0, atol=1e-9
                )
                means.append(rm.params)
            # the mixture server applies the sigma^2-shrunk mean
            results = [
                ClientResult(params=m, loss=0.0, beta=state.gating) for m in means
            ]
            new_state, _ = mix.aggregate(state, results, cfg_m)
            expect = sum(means) / (n_clients + sigma_sq)
            np.testing.assert_allclose(
                new_state.prototypes[0], expect, rtol=1e-12
            )
            global_params = np.mean(means, axis=0)

    def test_body_update_pins_heads_across_rounds(self):
        ds = tiny_dataset(seed=12)
        for strategy in ("fedbabu", "niw", "mixture"):
            run = make_run(
                ds, strategy=strategy, rounds=3, batch_size=10, seed=13,
                body_update=True, penalty_mode="normalized", k_prototypes=2,
            )
            head = nn.head_span(run.arch)

            def heads(state):
                if strategy == "fedbabu":
                    return [state[head]]
                if strategy == "niw":
                    return [state.m0[head]]
                ghead = nn.head_span(state.gating_arch)
                return [r[head] for r in state.prototypes] + [state.gating[ghead]]

            first = [h.copy() for h in heads(run.strategy_state)]
            for _ in range(3):
                runtime.run_round(run, evaluate=False)
                for a, b in zip(first, heads(run.strategy_state)):
                    np.testing.assert_array_equal(a, b)

    def test_participation_frequency_tracks_f(self):
        counts = np.zeros(10)
        rounds = 2000
        for r in range(rounds):
            for i in runtime.sample_participants(10, 2, stream(14, "part", r)):
                counts[i] += 1
        freq = counts / rounds
        sigma = np.sqrt(0.2 * 0.8 / rounds)
        assert np.abs(freq - 0.2).max() < 4 * sigma


class TestEvaluation:
    def test_untrained_ten_class_accuracy_near_chance(self):
        rng = stream(15, "chance")
        ds = data.LabeledDataset(
            inputs=rng.uniform(size=(2000, 6)),
            labels=np.tile(np.arange(10), 200).astype(np.int64),
            num_classes=10,
        )
        run = make_run(ds, n_clients=2, strategy="fedavg", rounds=1,
                       seed=16)
        acc = runtime.evaluate_global(run)
        assert 0.05 <= acc <= 0.2

    def test_memorizable_task_reaches_full_accuracy(self):
        ds = tiny_dataset(seed=17, classes=2, dims=3, per_class=20)
        run = make_run(ds, n_clients=1, strategy="fedavg", rounds=150,
                       batch_size=40, lr=0.3, seed=17)
        for _ in range(150):
            runtime.run_round(run, evaluate=False)
        assert runtime.evaluate_global(run) == 1.0

    def test_accuracy_invariant_to_test_shuffling(self):
        ds = tiny_dataset(seed=18)
        run = make_run(ds, strategy="niw", rounds=1, seed=18,
                       penalty_mode="normalized")
        runtime.run_round(run, evaluate=False)
        acc1 = runtime.evaluate_global(run)
        perm = stream(18, "shuffle").permutation(len(ds))
        run.test_ds = data.LabeledDataset(
            inputs=ds.inputs[perm], labels=ds.labels[perm],
            num_classes=ds.num_classes,
        )
        assert runtime.evaluate_global(run) == acc1


def conflicting_pair_dataset(seed=19, per_side=100):
    """Two clients whose labels disagree on identical input geometry.

    Keeps only points far from the separating hyperplane so each client's
    local task is cleanly separable once the label flip is learned.
    """
    rng = stream(seed, "conflict")
    x = rng.uniform(size=(8 * per_side, 4))
    w = np.array([1.0, -1.0, 1.0, -0.5])
    s = x @ w
    s = s - np.median(s)
    keep = np.sort(np.argsort(-np.abs(s))[: 2 * per_side])
    x = x[keep]
    y = (s[keep] > 0).astype(np.int64)
    labels = np.concatenate([y[:per_side], 1 - y[per_side:]])
    return data.LabeledDataset(inputs=x, labels=labels, num_classes=2)


class TestPersonalization:
    def test_zero_epochs_equals_global_point_accuracy(self):
        ds = tiny_dataset(seed=20, per_class=40)
        part = data.shard_partition(ds.labels, 3, 3, stream(20, "part"))
        run = make_run(ds, strategy="fedavg", rounds=2, batch_size=20,
                       seed=20, partition=part)
        runtime.run_round(run, evaluate=False)
        report = runtime.evaluate_personalized(run, epochs=0)
        manual = []
        for cl in run.clients:
            tx = ds.inputs[cl.test_indices]
            ty = ds.labels[cl.test_indices]
            b = nn.Batch(inputs=tx, labels=ty)
            pred = nn.forward(run.strategy_state, run.arch, b.inputs).argmax(axis=1)
            manual.append(float((pred == ty).mean()))
        assert report.per_client == tuple(manual)
        assert report.mean_acc == pytest.approx(np.mean(manual))

    def test_personalization_helps_heterogeneous_clients(self):
        ds = conflicting_pair_dataset(seed=21, per_side=100)
        # carve per-client test splits out of each half
        tr0, te0 = np.arange(0, 80), np.arange(80, 100)
        tr1, te1 = np.arange(100, 180), np.arange(180, 200)
        part = data.Partition(
            client_indices=(np.arange(0, 100), np.arange(100, 200)),
            train_indices=(tr0, tr1),
            test_indices=(te0, te1),
        )
        run = make_run(ds, n_clients=2, strategy="fedavg", rounds=10,
                       batch_size=20, lr=0.3, seed=21, partition=part)
        for _ in range(10):
            runtime.run_round(run, evaluate=False)
        global_accs = []
        for cl in run.clients:
            b = nn.Batch(
                inputs=ds.inputs[cl.test_indices],
                labels=ds.labels[cl.test_indices],
            )
            pred = nn.forward(run.strategy_state, run.arch, b.inputs).argmax(axis=1)
            global_accs.append(float((pred == ds.labels[cl.test_indices]).mean()))
        report = runtime.evaluate_personalized(run, epochs=5)
        assert report.mean_acc >= np.mean(global_accs)
        assert report.mean_acc > 0.8

    def test_identical_distributions_gain_is_small(self):
        ds = tiny_dataset(seed=22, classes=3, dims=4, per_class=80)
        part = data.dirichlet_partition(ds.labels, 4, 1e6, stream(22, "p"))
        run = make_run(ds, n_clients=4, strategy="fedavg", rounds=40,
                       batch_size=20, lr=0.2, seed=22, partition=part)
        for _ in range(40):
            runtime.run_round(run, evaluate=False)
        global_accs = []
        for cl in run.clients:
            b = nn.Batch(
                inputs=ds.inputs[cl.test_indices],
                labels=ds.labels[cl.test_indices],
            )
            pred = nn.forward(run.strategy_state, run.arch, b.inputs).argmax(axis=1)
            global_accs.append(float((pred == ds.labels[cl.test_indices]).mean()))
        report = runtime.evaluate_personalized(run, epochs=5)
        assert abs(report.mean_acc - np.mean(global_accs)) < 0.02


class TestConvergenceDiagnostic:
    def test_recovers_exact_inverse_sqrt(self):
        t = np.arange(1, 51)
        fit = runtime.convergence_diagnostic(3.7 / np.sqrt(t))
        assert abs(fit.c - 3.7) < 1e-6
        assert abs(fit.offset) < 1e-6
        assert fit.residual < 1e-9
        assert fit.monotone

    def test_constant_sequence_fits_zero_c(self):
        fit = runtime.convergence_diagnostic(np.full(30, 2.5))
        assert abs(fit.c) < 1e-9
        assert fit.monotone

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 10"):
            runtime.convergence_diagnostic(np.arange(5))

    def test_flags_non_monotone(self):
        vals = 1.0 / np.sqrt(np.arange(1, 31))
        vals[20] += 0.5
        fit = runtime.convergence_diagnostic(vals)
        assert not fit.monotone

    def test_running_average(self):
        np.testing.assert_allclose(
            runtime.running_average([1.0, 2.0, 3.0]), [1.0, 1.5, 2.0]
        )
