"""Run checkpoints: versioned zip archives of uncompressed sections.

A checkpoint holds everything needed to continue a run bit-for-bit: the
resolved experiment description, the next round index, the round records
logged so far, and the strategy's global state; clients keep no state.
Randomness never needs saving because every stream is derived from (seed,
purpose tags, round index) on demand.

Layout: a zip archive whose entries are the sections, each stored
uncompressed (`ZIP_STORED`) with the fixed date of a bare `ZipInfo`. Every
entry carries the CRC-32 of its payload, which `zipfile` checks on each read.
`meta.version` is the format version.

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
import zipfile
from dataclasses import dataclass

import numpy as np

from . import codec, data
from .runtime import RoundRecord, RunState
from .strategies import STRATEGIES

VERSION = 4


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

    with data.durable_write(path) as f, zipfile.ZipFile(f, "w") as zf:
        for name, payload in sections:
            # a bare ZipInfo is stored uncompressed and dated 1980-01-01
            zf.writestr(zipfile.ZipInfo(name), payload)


# what the archive reader raises for a corrupt file: ValueError includes the
# UnicodeDecodeError of a name that does not decode, OSError the seek to a
# negative entry offset
_ZIP_ERRORS = (
    zipfile.BadZipFile, EOFError, NotImplementedError, OSError, RuntimeError, ValueError
)


def _read_sections(path: str) -> dict[str, bytes]:
    """Every entry of the archive by name, each checked against its CRC-32."""
    size = os.path.getsize(path)
    try:
        zf = zipfile.ZipFile(path)
    except _ZIP_ERRORS as e:
        raise CheckpointError(f"{path}: not a checkpoint file, or truncated: {e}") from e
    with zf:
        infos = zf.infolist()
        # every entry is checked before any is read: no decompressor runs,
        # and a lying size cannot ask for a buffer larger than the file
        seen = set()
        for info in infos:
            name = info.filename
            if info.compress_type != zipfile.ZIP_STORED:
                raise CheckpointError(f"{path}: section {name!r} is compressed")
            claimed = max(info.compress_size, info.file_size)
            if claimed > size:
                raise CheckpointError(
                    f"{path}: section {name!r} truncated ({claimed} bytes "
                    f"claimed in a file of {size})"
                )
            if name in seen:
                raise CheckpointError(f"{path}: duplicate section {name!r}")
            seen.add(name)
        sections = {}
        for info in infos:
            try:
                sections[info.filename] = zf.read(info)
            except _ZIP_ERRORS as e:
                raise CheckpointError(f"{path}: section {info.filename!r}: {e}") from e
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
    if meta.version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.version}, expected {VERSION}"
        )
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
    sections = _read_sections(path)
    try:
        return _checkpoint_from_sections(sections)
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from e
    except (AttributeError, OverflowError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed content: {e}") from e
