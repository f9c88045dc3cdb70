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

Sections, in file order:

    meta                {"format", "version", "round_index", "strategy"}
    spec                the resolved experiment description
    records             the RoundRecords, encoded as below
    state               the strategy's global state, encoded as below
    retained            {"client_ids": [...]}
    arr:state...        the state's arrays, sorted by name
    arr:retained:<id>   each listed client's retained iterate

The state and records are encoded from their dataclass fields: a dataclass
becomes a dict of its fields, a tuple a list, an int or float stays as it
is, and an array goes to its own section, whose name the JSON holds. The
name extends `arr:state` by each field name and tuple index on the way
down: `arr:state` (a bare parameter vector), `arr:state:m0`,
`arr:state:prototypes:0`. Loading rebuilds each value from its class's
field annotations, starting from the `state_type` of the strategy named in
meta, so the types come from code and never from the file. An int field
takes only a JSON int and a float field a JSON int or float; a string or a
boolean in their place is malformed content.

Array payloads use the npy format; JSON payloads are canonical (sorted
keys, no whitespace) so equal states produce equal bytes apart from the
recorded wall-clock fields.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct
import typing
from dataclasses import dataclass

import numpy as np

from .runtime import RoundRecord, RunState
from .strategies import STRATEGIES

MAGIC = b"FSCK"
VERSION = 2


class CheckpointError(ValueError):
    """Raised for malformed or truncated checkpoint files."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _array_bytes(a: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(a), allow_pickle=False)
    return buf.getvalue()


def _encode(value, name: str, arrays: dict[str, np.ndarray]):
    """JSON for value; its arrays go to `arrays`, keyed by section name."""
    if isinstance(value, np.ndarray):
        arrays[name] = value
        return name
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name), f"{name}:{f.name}", arrays)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple):
        return [_encode(v, f"{name}:{i}", arrays) for i, v in enumerate(value)]
    return value


def _decode(tp, obj, sections: dict[str, bytes]):
    """Rebuild a value of type tp from the JSON `_encode` made of it."""
    if tp is np.ndarray:
        if not isinstance(obj, str) or obj not in sections:
            raise CheckpointError(f"missing array section {obj!r}")
        try:
            return np.load(io.BytesIO(sections[obj]), allow_pickle=False)
        except Exception as e:
            raise CheckpointError(f"section {obj!r} is not a valid array: {e}") from e
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return tp(**{
            f.name: _decode(hints[f.name], obj[f.name], sections)
            for f in dataclasses.fields(tp)
        })
    if typing.get_origin(tp) is tuple:
        if not isinstance(obj, list):
            raise TypeError(f"expected a list, got {obj!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, sections) for v in obj)
    if tp in (int, float):
        # a JSON int for an int, a JSON int or float for a float; never a bool
        if type(obj) is int or (tp is float and type(obj) is float):
            return tp(obj)
        raise TypeError(f"expected {tp.__name__}, got {obj!r}")
    raise TypeError(f"no checkpoint encoding for type {tp}")


@dataclass(frozen=True)
class Checkpoint:
    spec: dict
    round_index: int
    records: list[RoundRecord]
    strategy_state: object
    retained: dict[int, np.ndarray]


def save_checkpoint(path: str, run: RunState, spec: dict) -> None:
    """Write the run's resumable state; atomic via rename."""
    arrays: dict[str, np.ndarray] = {}
    state = _encode(run.strategy_state, "arr:state", arrays)
    records = _encode(tuple(run.records), "arr:records", arrays)
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
        ("records", _canonical_json(records)),
        ("state", _canonical_json(state)),
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
    # each length is checked against the bytes left before it is read, so a
    # corrupt length cannot ask for a buffer larger than the file
    end = os.fstat(f.fileno()).st_size
    sections: dict[str, bytes] = {}
    while True:
        raw = f.read(4)
        if not raw:
            break
        if len(raw) < 4:
            raise CheckpointError(f"{path}: truncated section header")
        (name_len,) = struct.unpack("<I", raw)
        if name_len + 8 > end - f.tell():
            raise CheckpointError(f"{path}: truncated section header")
        try:
            name = f.read(name_len).decode("ascii")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: section name is not ASCII: {e}") from e
        (size,) = struct.unpack("<Q", f.read(8))
        left = end - f.tell()
        if size > left:
            raise CheckpointError(
                f"{path}: section {name!r} truncated ({left} of {size} bytes)"
            )
        payload = f.read(size)
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
    strategy = STRATEGIES.get(meta["strategy"])
    if strategy is None:
        raise CheckpointError(f"unknown strategy {meta['strategy']!r}")
    state = _decode(strategy.state_type, jsec("state"), sections)
    records = list(_decode(tuple[RoundRecord, ...], jsec("records"), sections))
    retained = {
        cid: _decode(np.ndarray, f"arr:retained:{cid}", sections)
        for cid in _decode(tuple[int, ...], jsec("retained")["client_ids"], sections)
    }
    return Checkpoint(
        spec=jsec("spec"),
        round_index=_decode(int, meta["round_index"], sections),
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
    except (AttributeError, OverflowError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed content: {e}") from e
