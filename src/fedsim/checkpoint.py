"""Run checkpoints: versioned, length-prefixed binary sections.

A checkpoint holds everything needed to continue a run bit-for-bit: the
resolved experiment description, the next round index, the round records
logged so far, the strategy's global state, and any retained per-client
iterates. Randomness never needs saving because every stream is derived
from (seed, purpose tags, round index) on demand.

Layout, all integers little-endian:

    magic    4 bytes  b"FSCK"
    version  u32
    sections until EOF, each:
        u32   name length
        name  ascii bytes
        u64   payload length
        payload bytes

Array payloads use the npy format; JSON payloads are canonical (sorted
keys, no whitespace) so equal states produce equal bytes apart from the
recorded wall-clock fields.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import mixture, niw, nn
from .runtime import RoundRecord, RunState

MAGIC = b"FSCK"
VERSION = 1


class CheckpointError(ValueError):
    """Raised for malformed or truncated checkpoint files."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _array_bytes(a: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(a), allow_pickle=False)
    return buf.getvalue()


def _bytes_array(payload: bytes, name: str) -> np.ndarray:
    try:
        return np.load(io.BytesIO(payload), allow_pickle=False)
    except Exception as e:
        raise CheckpointError(f"section {name!r} is not a valid array: {e}") from e


def _state_sections(state) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a strategy state into a JSON manifest and named arrays."""
    if isinstance(state, np.ndarray):
        return {"kind": "params"}, {"arr:params": state}
    if isinstance(state, niw.NiwGlobalPosterior):
        manifest = {"kind": "niw", "l0": state.l0, "n0": state.n0, "d": state.d}
        return manifest, {"arr:niw:m0": state.m0, "arr:niw:v0": state.v0_diag}
    if isinstance(state, mixture.MixtureGlobalPosterior):
        manifest = {
            "kind": "mixture",
            "sigma_sq": state.sigma_sq,
            "epsilon": state.epsilon,
            "k": state.k,
            "gating_layers": list(state.gating_arch.layer_sizes),
        }
        arrays = {"arr:mix:gating": state.gating}
        for j, r in enumerate(state.prototypes):
            arrays[f"arr:mix:proto:{j}"] = r
        return manifest, arrays
    raise CheckpointError(f"cannot serialize strategy state of type {type(state)}")


def _state_from_sections(manifest: dict, sections: dict[str, bytes]):
    def arr(name):
        if name not in sections:
            raise CheckpointError(f"missing array section {name!r}")
        return _bytes_array(sections[name], name)

    kind = manifest.get("kind")
    if kind == "params":
        return arr("arr:params")
    if kind == "niw":
        return niw.NiwGlobalPosterior(
            m0=arr("arr:niw:m0"),
            v0_diag=arr("arr:niw:v0"),
            l0=float(manifest["l0"]),
            n0=float(manifest["n0"]),
            d=int(manifest["d"]),
        )
    if kind == "mixture":
        protos = tuple(arr(f"arr:mix:proto:{j}") for j in range(int(manifest["k"])))
        return mixture.MixtureGlobalPosterior(
            prototypes=protos,
            sigma_sq=float(manifest["sigma_sq"]),
            epsilon=float(manifest["epsilon"]),
            gating=arr("arr:mix:gating"),
            gating_arch=nn.MlpArch(tuple(manifest["gating_layers"])),
        )
    raise CheckpointError(f"unknown strategy state kind {kind!r}")


def _record_dict(rec: RoundRecord) -> dict:
    return {
        "round_index": rec.round_index,
        "participants": list(rec.participants),
        "global_acc": rec.global_acc,
        "mean_client_loss": rec.mean_client_loss,
        "server_objective": rec.server_objective,
        "wall_ms": rec.wall_ms,
    }


def _record_from_dict(d: dict) -> RoundRecord:
    return RoundRecord(
        round_index=int(d["round_index"]),
        participants=tuple(int(i) for i in d["participants"]),
        global_acc=float(d["global_acc"]),
        mean_client_loss=float(d["mean_client_loss"]),
        server_objective=float(d["server_objective"]),
        wall_ms=float(d["wall_ms"]),
    )


@dataclass(frozen=True)
class Checkpoint:
    spec: dict
    round_index: int
    records: list[RoundRecord]
    strategy_state: object
    retained: dict[int, np.ndarray]


def save_checkpoint(path: str, run: RunState, spec: dict) -> None:
    """Write the run's resumable state; atomic via rename."""
    manifest, arrays = _state_sections(run.strategy_state)
    meta = {
        "format": "fedsim-checkpoint",
        "version": VERSION,
        "round_index": run.round_index,
        "strategy": run.config.strategy,
    }
    retained_ids = [
        c.client_id for c in run.clients if c.retained is not None
    ]
    sections: list[tuple[str, bytes]] = [
        ("meta", _canonical_json(meta)),
        ("spec", _canonical_json(spec)),
        ("records", _canonical_json([_record_dict(r) for r in run.records])),
        ("state", _canonical_json(manifest)),
        ("retained", _canonical_json({"client_ids": retained_ids})),
    ]
    for name in sorted(arrays):
        sections.append((name, _array_bytes(arrays[name])))
    for cid in retained_ids:
        sections.append(
            (f"arr:retained:{cid}", _array_bytes(run.clients[cid].retained))
        )

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name, payload in sections:
            nb = name.encode("ascii")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<Q", len(payload)))
            f.write(payload)
    os.replace(tmp, path)


def _read_sections(f, path: str) -> dict[str, bytes]:
    head = f.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", head[4:8])
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}, expected {VERSION}"
        )
    sections: dict[str, bytes] = {}
    while True:
        raw = f.read(4)
        if not raw:
            break
        if len(raw) < 4:
            raise CheckpointError(f"{path}: truncated section header")
        (name_len,) = struct.unpack("<I", raw)
        name_b = f.read(name_len)
        size_b = f.read(8)
        if len(name_b) < name_len or len(size_b) < 8:
            raise CheckpointError(f"{path}: truncated section header")
        try:
            name = name_b.decode("ascii")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: section name is not ASCII: {e}") from e
        (size,) = struct.unpack("<Q", size_b)
        payload = f.read(size)
        if len(payload) < size:
            raise CheckpointError(
                f"{path}: section {name!r} truncated "
                f"({len(payload)} of {size} bytes)"
            )
        if name in sections:
            raise CheckpointError(f"{path}: duplicate section {name!r}")
        sections[name] = payload
    return sections


def _checkpoint_from_sections(sections: dict[str, bytes]) -> Checkpoint:
    def jsec(name):
        if name not in sections:
            raise CheckpointError(f"missing section {name!r}")
        try:
            return json.loads(sections[name])
        except json.JSONDecodeError as e:
            raise CheckpointError(f"section {name!r} is not JSON: {e}") from e

    meta = jsec("meta")
    if meta.get("format") != "fedsim-checkpoint":
        raise CheckpointError(f"unexpected meta format {meta.get('format')!r}")
    state = _state_from_sections(jsec("state"), sections)
    records = [_record_from_dict(d) for d in jsec("records")]
    retained = {}
    for cid in jsec("retained")["client_ids"]:
        name = f"arr:retained:{cid}"
        if name not in sections:
            raise CheckpointError(f"missing array section {name!r}")
        retained[int(cid)] = _bytes_array(sections[name], name)
    return Checkpoint(
        spec=jsec("spec"),
        round_index=int(meta["round_index"]),
        records=records,
        strategy_state=state,
        retained=retained,
    )


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed content raises CheckpointError naming path."""
    with open(path, "rb") as f:
        sections = _read_sections(f, path)
    try:
        return _checkpoint_from_sections(sections)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e
    except KeyError as e:
        raise CheckpointError(f"{path}: missing field {e}") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed content: {e}") from e
