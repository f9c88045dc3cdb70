"""The benchmark's traced mode wraps fedsim functions by module attribute.

`perfbench/run.py --trace 1` looks each layer up by name, so renaming or
moving one of them under src/fedsim breaks the benchmark. These tests build
the benchmark's layer list, trace one-round runs through it, and check every
wrapper is put back. The traced run's coverage floor also needs the step
arithmetic to stay inside the wrapped step layers, so every local step must
show up as one `nn.sgd_step` span, and every proximal step as one
`optim.prox_quadratic_step` span.
"""

import json
import math
import os

import pytest

from fedsim import runtime
from fedsim.experiment import build_run, parse_spec_dict, run_experiment

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import metrics
    import tracing

    return metrics, tracing


def quickstart(tmp_path, **federated) -> dict:
    with open(os.path.join(ROOT, "specs", "quickstart.json")) as f:
        obj = json.load(f)
    obj["out"] = str(tmp_path)
    obj["federated"].update(federated)
    return obj


def test_traced_layers_wrap_a_run_and_restore(perfbench, tmp_path):
    metrics, tracing = perfbench
    obj = quickstart(tmp_path, rounds=1)
    obj["evaluation"]["personalization_epochs"] = 1
    with tracing.Tracer(metrics.traced_layers()) as tracer:
        run_experiment(parse_spec_dict(obj))
    assert tracer.restored()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {
        "runtime.run_round", "strategies.client_update", "nn.loss_and_grad",
        "nn.sgd_step", "strategies.personalize",
    } <= names


@pytest.mark.parametrize("strategy", ["fedavg", "niw", "mixture"])
def test_one_step_span_per_local_step(perfbench, tmp_path, strategy):
    metrics, tracing = perfbench
    obj = quickstart(tmp_path, strategy=strategy, local_epochs=2, rounds=1)
    run = build_run(parse_spec_dict(obj))
    with tracing.Tracer(metrics.traced_layers()) as tracer:
        runtime.run_round(run, evaluate=False)
    assert tracer.restored()

    config = run.config
    steps = sum(
        config.local_epochs
        * math.ceil(run.clients[cid].train_indices.size / config.batch_size)
        for cid in run.records[0].participants
    )
    spans = tracer.spans
    NAME, PARENT = tracing.NAME, tracing.PARENT

    def caller(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def stepped_by_client(s):
        # called by client_update, directly or through the proximal step
        if caller(s) == "optim.prox_quadratic_step":
            s = spans[s[PARENT]]
        return caller(s) == "strategies.client_update"

    def count(name):
        return sum(1 for s in spans if s[NAME] == name and stepped_by_client(s))

    assert steps > len(run.records[0].participants)
    assert count("nn.sgd_step") == steps
    assert count("optim.prox_quadratic_step") == (0 if strategy == "fedavg" else steps)
