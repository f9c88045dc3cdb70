"""The benchmark's traced mode wraps fedsim functions by module attribute.

`perfbench/run.py --trace 1` looks each layer up by name, so renaming or
moving one of them under src/fedsim breaks the benchmark. This test builds
the benchmark's layer list, traces a one-round run through it, and checks
every wrapper is put back.
"""

import json
import os

from fedsim.experiment import parse_spec_dict, run_experiment

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_traced_layers_wrap_a_run_and_restore(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import metrics
    import tracing

    with open(os.path.join(ROOT, "specs", "quickstart.json")) as f:
        obj = json.load(f)
    obj["out"] = str(tmp_path)
    obj["federated"]["rounds"] = 1
    obj["evaluation"]["personalization_epochs"] = 1
    with tracing.Tracer(metrics.traced_layers()) as tracer:
        run_experiment(parse_spec_dict(obj))
    assert tracer.restored()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {
        "runtime.run_round", "strategies.client_update", "nn.loss_and_grad",
        "nn.sgd_step", "strategies.personalize",
    } <= names
