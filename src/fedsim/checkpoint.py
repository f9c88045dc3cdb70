"""Run checkpoints: versioned, length-prefixed binary sections.

A checkpoint holds everything needed to continue a run bit-for-bit: the
resolved experiment description, the next round index, the round records
logged so far, and the strategy's global state; clients keep no state.
Randomness never needs saving because every stream is derived from (seed,
purpose tags, round index) on demand.

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
    arr:state...        the state's arrays, sorted by name

The meta, records and state sections are what `codec.encode` makes of
`_Meta`, the RoundRecords and the strategy's state.
Each array goes to its own section, named by extending `arr:state` with each
field name and tuple index on the way down (`arr:state` for a bare vector,
`arr:state:m0`, `arr:state:prototypes:0`); the JSON holds the name. Loading
decodes each section with `codec.decode`, starting from the `state_type` of
the strategy named in meta, so the types come from code and never from the
file, and reads an array only from an `arr:*` section.

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

from . import codec
from .runtime import RoundRecord, RunState
from .strategies import STRATEGIES

MAGIC = b"FSCK"
VERSION = 3


class CheckpointError(ValueError):
    """Raised for malformed or truncated checkpoint files."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _array_bytes(a: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(a), allow_pickle=False)
    return buf.getvalue()


@dataclass(frozen=True)
class Checkpoint:
    spec: dict
    round_index: int
    records: list[RoundRecord]
    strategy_state: object


@dataclass(frozen=True)
class _Meta:
    format: str
    version: int
    round_index: int
    strategy: str


def save_checkpoint(path: str, run: RunState, spec: dict) -> None:
    """Write the run's resumable state; atomic via rename, durable via fsync
    of the file before the rename and of its directory after it."""
    arrays: dict[str, np.ndarray] = {}
    state = codec.encode(run.strategy_state, "arr:state", arrays)
    records = codec.encode(tuple(run.records), "arr:records", arrays)
    meta = _Meta("fedsim-checkpoint", VERSION, run.round_index, run.config.strategy)
    sections: list[tuple[str, bytes]] = [
        ("meta", _canonical_json(codec.encode(meta))),
        ("spec", _canonical_json(spec)),
        ("records", _canonical_json(records)),
        ("state", _canonical_json(state)),
    ]
    for name in sorted(arrays):
        sections.append((name, _array_bytes(arrays[name])))

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
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


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
    def array(name):
        if not (isinstance(name, str) and name.startswith("arr:") and name in sections):
            raise CheckpointError(f"missing array section {name!r}")
        try:
            return np.load(io.BytesIO(sections[name]), allow_pickle=False)
        except Exception as e:
            raise CheckpointError(f"section {name!r} is not a valid array: {e}") from e

    def jsec(tp, name):
        if name not in sections:
            raise CheckpointError(f"missing section {name!r}")
        try:
            obj = json.loads(sections[name])
        except json.JSONDecodeError as e:
            raise CheckpointError(f"section {name!r} is not JSON: {e}") from e
        return codec.decode(tp, obj, name, array)

    meta = jsec(_Meta, "meta")
    if meta.format != "fedsim-checkpoint":
        raise CheckpointError(f"unexpected meta format {meta.format!r}")
    strategy = STRATEGIES.get(meta.strategy)
    if strategy is None:
        raise CheckpointError(f"unknown strategy {meta.strategy!r}")
    ck = Checkpoint(
        spec=jsec(dict, "spec"),
        round_index=meta.round_index,
        records=list(jsec(tuple[RoundRecord, ...], "records")),
        strategy_state=jsec(strategy.state_type, "state"),
    )
    # resume rewrites metrics.csv from the records and continues at round_index
    rounds = [rec.round_index for rec in ck.records]
    if ck.round_index < 1 or rounds != list(range(1, ck.round_index)):
        raise CheckpointError(
            f"meta.round_index {ck.round_index} does not follow records of rounds "
            f"{rounds}; expected rounds 1..n in order, then n + 1"
        )
    return ck


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed content raises CheckpointError naming path."""
    with open(path, "rb") as f:
        sections = _read_sections(f, path)
    try:
        return _checkpoint_from_sections(sections)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e
    except (AttributeError, OverflowError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed content: {e}") from e
