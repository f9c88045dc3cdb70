"""Golden pins: byte-exact outputs of every strategy on small synthetic runs.

Each case runs the quickstart spec for a few rounds and pins the sha256 of
`metrics.csv`, of the repr of the per-client personalized accuracies, and
of the personalized parameter vectors themselves (accuracies on a few test
rows rarely move when the low bits of the weights do).
A refactor that keeps every strategy's arithmetic and random draw order
leaves these hashes unchanged; any other change to what trains shows here.
"""

import hashlib
import json
import os

import pytest

from fedsim import checkpoint
from fedsim.data import save_dataset
from fedsim.experiment import build_datasets, build_run, parse_spec_dict, run_experiment
from fedsim.rng import stream

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")

CASES = {
    "fedavg": {"strategy": "fedavg"},
    "fedprox": {"strategy": "fedprox", "mu_prox": 0.1},
    "fedbabu": {"strategy": "fedbabu"},
    "niw": {"strategy": "niw"},
    "niw_p_keep_1": {"strategy": "niw", "p_keep": 1.0},
    "niw_body_normalized": {
        "strategy": "niw", "body_update": True, "penalty_mode": "normalized",
    },
    "mixture_proxy": {"strategy": "mixture"},
    "mixture_body": {"strategy": "mixture", "body_update": True},
}

# sha256 of: metrics.csv, repr(per-client personalized accuracies),
# the personalized parameters of every client in id order
GOLDEN = {
    "fedavg": (
        "b0590aa4b5bdccd5fd851014dab1588c1102fe3a4b38eaf2898a2297e2a67144",
        "af96807c241d92ec6154a0fabed64723d61d8281fae086b4b594a28c04d0fb8a",
        "d91e3f9e6d82f41750b254b1bcc1b82d672608e9725283b04c66a2fa77084a79",
    ),
    "fedprox": (
        "717a1f2453a2a605b7ef3a6689db395c6b9653b79753614ae5c1e84bd81a5f41",
        "df8b78360f04d93a279e21cade7e7352983cb6a35037ac2b23c08bfc6dbdf840",
        "2943f0faa786de8a559ae4ca5d0fa6f99f2d6f02927760bc738d02ed8e688a25",
    ),
    "fedbabu": (
        "b66f795d1e861fe5460f9efa22202487cb915379cc71dd874b360f6facfe0a71",
        "606bc22340693abdbb60eae1de95558e249020cfd0a0d0f7180306bd4d0a532a",
        "a503fc0d08044c436750cf9f31bc88b4bbbc98346f35cd361a1140702b2a6974",
    ),
    "niw": (
        "67e96d6411cde10afd1686b182421debb1610f1e32a171455eb856417b80d5b4",
        "c8b1bd63f3f4b7b7535523693d8c7445ba53805aa8b59cd10f0469cbe067ee5e",
        "17e69fb0b89fae022a830e622466d6dfbbfebc3b8203bf56bd0f5dcbc722cdab",
    ),
    "niw_p_keep_1": (
        "9d6a137e53b133b81bf89610620f9ff681220ad68e6bb9afbbde3ba8554dcb6f",
        "c8b1bd63f3f4b7b7535523693d8c7445ba53805aa8b59cd10f0469cbe067ee5e",
        "f38d97fcb54448dae31b9bf078a684c293c089087eea158b3efb1267c988226e",
    ),
    "niw_body_normalized": (
        "d9e7414b20081b7f736bef4010f134ee08cf1403bd42fc06a916dba8af58d39c",
        "e1a7b3068031b086bd61e4f5df71aaff4bdaf847cc12a8071da83fac85471246",
        "53497cb9ec296991be4ec72a815fbfae265864764b6c2e4be74feaadeff49a53",
    ),
    "mixture_proxy": (
        "abc48f4d2d0d5c4e552cf9d9e12f4219121f3c0198550504711777ea259e1eb6",
        "86de15428afbca2f9aca3b6a6810ec070ebbad52a2eb53ba5d06f779578aa8ba",
        "59a591f928d9d076d769ba9f04ece83b95ec4c18d9052fe675d58b9ea85f6ddb",
    ),
    "mixture_body": (
        "314862770bf6a7e652cd2b3e8bffbbd1f837334e9beea8bc18882fc2ddae5430",
        "feb6218ceefe0b43b8c1bf9a931c131d25ab31a08355edc44aabd466831879a3",
        "446bd8b36d6b83d879128c2fc6909fa848fa115a223367e64d0613aebe290d37",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _personalized_sha(spec, ckpt_path) -> str:
    """Replays evaluate_personalized's fine-tuning from the final checkpoint."""
    run = build_run(spec)
    run.strategy_state = checkpoint.load_checkpoint(ckpt_path).strategy_state
    h = hashlib.sha256()
    for cl in run.clients:
        if cl.test_indices.size == 0:
            continue
        m = run.strategy.personalize(
            run.strategy_state,
            run.train_ds.rows(cl.train_indices),
            run.train_ds.labels[cl.train_indices],
            run.arch, run.config, spec.evaluation.personalization_epochs,
            stream(run.config.seed, "personalize", cl.client_id),
        )
        h.update(m.tobytes())
    return h.hexdigest()


def _spec(case: str, out: str, dataset: dict | None = None):
    with open(os.path.join(SPEC_DIR, "quickstart.json")) as f:
        obj = json.load(f)
    obj["out"] = out
    obj["dataset"] = dataset or obj["dataset"]
    obj["federated"].update({"rounds": 4, **CASES[case]})
    obj["evaluation"].update({"eval_every": 1, "personalization_epochs": 2})
    return parse_spec_dict(obj)


def _hashes(spec) -> tuple[str, str, str]:
    summary = run_experiment(spec)
    with open(os.path.join(spec.out, "metrics.csv"), "rb") as f:
        metrics_sha = _sha(f.read())
    pers = tuple(summary["personalization"]["per_client"])
    params_sha = _personalized_sha(spec, os.path.join(spec.out, "checkpoint_round00004.bin"))
    return metrics_sha, _sha(repr(pers).encode()), params_sha


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    assert _hashes(_spec(case, str(tmp_path))) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs_from_containers(case, tmp_path):
    """The same data saved as containers: every train row is then read from
    the file when a client needs it, and no hash moves."""
    paths = {}
    for name, ds in zip(("train", "test"), build_datasets(_spec(case, ""))):
        paths[name] = str(tmp_path / f"{name}.bin")
        save_dataset(paths[name], ds)
    spec = _spec(case, str(tmp_path / "out"), {"kind": "container", **paths})
    assert build_run(spec).train_ds.source is not None
    assert _hashes(spec) == GOLDEN[case]
