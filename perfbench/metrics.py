"""What the benchmark measures: the fedsim layers it wraps and the metrics it derives.

End-to-end metrics come from the phase layers, which are wrapped in every
run. Per-layer metrics come from a separate traced run that wraps every
layer below; they are named `<module>.<function>.<stat>`.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracing import (
    NAME, PARENT, Layer, duration, enclosing, layer_stats, median, nearest_rank, self_times,
    tail_percentile,
)

_CALLS_SELF = ("calls", "self_ms")
_NIW = ("niw_server_update", "niw_server_objective", "penalty_weight", "niw_personalize")
_MIXTURE = (
    "mix_penalty", "prototype_weights", "gating_local_update", "mix_e_step",
    "mix_m_step", "mix_server_objective", "mix_global_predict", "mix_personalize",
)
_STRATEGY_METHODS = ("client_update", "aggregate", "restore_heads", "global_predict", "personalize")

# layer -> the stats reported for it; names, units and directions of the
# metrics are listed in BENCHMARK.json
LAYER_STATS = {
    "nn.loss_and_grad": ("calls", "rows", "ms_p50", "ms_p99", "self_ms"),
    "nn.forward": ("calls", "rows", "self_ms"),
    "nn.sgd_step": _CALLS_SELF,
    "nn.sample_dropout_mask": _CALLS_SELF,
    "optim.prox_quadratic_step": _CALLS_SELF,
    "niw.niw_sample_global": _CALLS_SELF,
    **{f"niw.{f}": _CALLS_SELF for f in _NIW},
    **{f"mixture.{f}": _CALLS_SELF for f in _MIXTURE},
    "baselines.fedavg_aggregate": _CALLS_SELF,
    "strategies.client_update": ("calls", "ms_p50", "max_over_mean"),
    **{f"strategies.{m}": ("calls", "ms_p50", "self_ms") for m in _STRATEGY_METHODS[1:]},
    "runtime.run_round": ("self_ms",),
    "runtime.evaluate_global": ("self_ms",),
    "runtime.evaluate_personalized": ("self_ms",),
    "rng.stream": _CALLS_SELF,
    "data.load_dataset": ("bytes", "self_ms"),
    "data.shard_partition": ("self_ms",),
    "data.dirichlet_partition": ("self_ms",),
    "data.client_rows": ("min", "max"),
    "checkpoint.save_checkpoint": ("bytes", "self_ms"),
    "checkpoint.load_checkpoint": ("self_ms",),
}
# layers whose self time is reported; inside run_round, whatever they miss
# is inline work of an unwrapped caller (chiefly strategies.client_update)
SELF_LAYERS = frozenset(l for l, stats in LAYER_STATS.items() if "self_ms" in stats)


def _batch_rows(args, kwargs, result) -> int:
    return len(args[2] if len(args) > 2 else kwargs["batch"])


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def phase_layers() -> list[Layer]:
    """The layers every run wraps: enough for the end-to-end metrics."""
    from fedsim import checkpoint, experiment, runtime

    return [
        Layer("experiment.run_experiment", experiment, "run_experiment"),
        Layer("experiment.build_run", experiment, "build_run"),
        Layer("runtime.run_round", runtime, "run_round"),
        Layer("runtime.evaluate_global", runtime, "evaluate_global"),
        Layer("runtime.evaluate_personalized", runtime, "evaluate_personalized"),
        Layer("checkpoint.save_checkpoint", checkpoint, "save_checkpoint", _file_bytes),
        Layer("checkpoint.load_checkpoint", checkpoint, "load_checkpoint"),
    ]


def traced_layers() -> list[Layer]:
    """Every layer with a per-layer metric, plus the phase layers."""
    from fedsim import baselines, data, experiment, mixture, niw, nn, optim, runtime, strategies

    layers = phase_layers() + [
        Layer("nn.loss_and_grad", nn, "loss_and_grad", _batch_rows),
        Layer("nn.forward", nn, "forward", _batch_rows),
        Layer("nn.sgd_step", nn, "sgd_step"),
        Layer("nn.sample_dropout_mask", nn, "sample_dropout_mask"),
        Layer("optim.prox_quadratic_step", optim, "prox_quadratic_step"),
        Layer("niw.niw_sample_global", niw, "niw_sample_global"),
        *(Layer(f"niw.{f}", niw, f) for f in _NIW),
        *(Layer(f"mixture.{f}", mixture, f) for f in _MIXTURE),
        Layer("baselines.fedavg_aggregate", baselines, "fedavg_aggregate"),
        # each module binds rng.stream at import, so it is wrapped where it is looked up
        *(Layer("rng.stream", m, "stream") for m in (runtime, strategies, experiment)),
        Layer("data.load_dataset", data, "load_dataset", _file_bytes),
        Layer("data.shard_partition", data, "shard_partition"),
        Layer("data.dirichlet_partition", data, "dirichlet_partition"),
    ]
    # STRATEGIES holds instances, so the methods are wrapped on the classes
    # that define them
    classes = {
        cls
        for s in strategies.STRATEGIES.values()
        for cls in type(s).__mro__
        if issubclass(cls, strategies.Strategy) and cls is not strategies.Strategy
    }
    for cls in sorted(classes, key=lambda c: c.__name__):
        layers += [
            Layer(f"strategies.{m}", cls, m) for m in _STRATEGY_METHODS if m in cls.__dict__
        ]
    return layers


def _by_name(spans, name):
    return [s for s in spans if s[NAME] == name]


def round_training_s(spans) -> list[float]:
    """Per-round run_round time minus the global eval nested in it."""
    owner = enclosing(spans, "runtime.run_round")
    eval_s = defaultdict(float)
    for i, s in enumerate(spans):
        if s[NAME] == "runtime.evaluate_global" and owner[i] >= 0:
            eval_s[owner[i]] += duration(s)
    return [
        duration(s) - eval_s[i]
        for i, s in enumerate(spans)
        if s[NAME] == "runtime.run_round"
    ]


def end_to_end(spans, setup_s, run, peak_rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics of one run, plus what they rest on (sample counts, tail percentile)."""
    rounds = round_training_s(spans)
    pct = tail_percentile(len(rounds))
    evals = [duration(s) for s in _by_name(spans, "runtime.evaluate_global")]
    rows = run.config.local_epochs * sum(
        run.clients[cid].train_indices.size for rec in run.records for cid in rec.participants
    )
    (experiment_span,) = _by_name(spans, "experiment.run_experiment")
    (personalize_span,) = _by_name(spans, "runtime.evaluate_personalized")
    values = {
        "run_s": duration(experiment_span),
        "setup_s": median(setup_s),
        "train_samples_per_s": rows / sum(rounds),
        "round_ms.p50": 1e3 * median(rounds),
        "round_ms.tail": 1e3 * nearest_rank(rounds, pct),
        "eval_ms.p50": 1e3 * median(evals),
        "personalize_s": duration(personalize_span),
        "peak_rss_mb": peak_rss_mb,
    }
    basis = {
        "round_samples": len(rounds),
        "round_ms.tail_pct": pct,
        "eval_samples": len(evals),
        "setup_samples": len(setup_s),
        "train_rows": rows,
    }
    return values, basis


def run_round_coverage(spans) -> float:
    """Share of traced run_round time that SELF_LAYERS' self times account for."""
    owner = enclosing(spans, "runtime.run_round")
    own = self_times(spans)
    covered = sum(
        own[i] for i, s in enumerate(spans) if owner[i] >= 0 and s[NAME] in SELF_LAYERS
    )
    total = sum(duration(s) for s in _by_name(spans, "runtime.run_round"))
    return covered / total


def _max_over_mean(spans) -> float:
    """Slowest ÷ mean client_update per round, median over rounds."""
    per_round = defaultdict(list)
    for s in _by_name(spans, "strategies.client_update"):
        per_round[s[PARENT]].append(duration(s))
    ratios = [max(d) / (sum(d) / len(d)) for d in per_round.values()]
    return median(ratios) if ratios else 0.0


def _dist_passes_per_step(spans) -> float:
    """Mixture distance passes per local step, counted directly under client_update."""
    under_client = [
        s[NAME] for s in spans
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "strategies.client_update"
    ]
    steps = under_client.count("optim.prox_quadratic_step")
    passes = under_client.count("mixture.mix_penalty") + under_client.count("mixture.prototype_weights")
    return passes / steps if steps else 0.0


def per_layer(spans, run, untraced_run_s, traced_run_s) -> dict:
    """Every per-layer metric from one traced run; a layer that did not run reads 0."""
    stats = layer_stats(spans)
    sizes = [c.train_indices.size for c in run.clients]
    out = {}
    for layer, wanted in LAYER_STATS.items():
        st = stats.get(layer)
        for stat in wanted:
            name = f"{layer}.{stat}"
            if stat == "min":
                out[name] = min(sizes)
            elif stat == "max":
                out[name] = max(sizes)
            elif st is None:
                out[name] = 0
            elif stat == "calls":
                out[name] = st.calls
            elif stat in ("rows", "bytes"):
                out[name] = st.amount
            elif stat == "self_ms":
                out[name] = 1e3 * st.self_s
            elif stat == "ms_p50":
                out[name] = 1e3 * median(st.durations)
            elif stat == "ms_p99":
                out[name] = 1e3 * nearest_rank(st.durations, 99)
            elif stat == "max_over_mean":
                out[name] = _max_over_mean(spans)
    out["mixture.dist_passes_per_step"] = _dist_passes_per_step(spans)
    out["trace.overhead_frac"] = (traced_run_s - untraced_run_s) / untraced_run_s
    out["trace.run_round_coverage"] = run_round_coverage(spans)
    return out
