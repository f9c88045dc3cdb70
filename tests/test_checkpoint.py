"""Checkpoint format round trips and resume bit-equality."""

import dataclasses
import json
import os
import re
import stat
import struct
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import checkpoint, experiment, runtime
from fedsim.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fedsim.strategies import STRATEGIES
from tests.test_experiment import JSON, json_paths, swap_value, tiny_spec_obj


def build_tiny_run(tmp_path, sub="out", **over):
    obj = tiny_spec_obj(out=str(tmp_path / sub), **over)
    spec = experiment.parse_spec_dict(obj)
    return spec, experiment.build_run(spec)


def one_record(**fields) -> bytes:
    """A `records` section holding one valid record, with fields overridden."""
    rec = {"round_index": 1, "participants": [0], "global_acc": 0.5,
           "mean_client_loss": 1.0, "server_objective": 1.0, "wall_ms": 1.0}
    return json.dumps([{**rec, **fields}]).encode()


def write_sections(path, sections):
    """Write named payloads in the checkpoint container format."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, payload in sections.items():
            zf.writestr(zipfile.ZipInfo(name), payload)


def assert_same_bits(a, b, where="value"):
    """The loaded value a equals the saved value b: same structure and types,
    arrays equal in dtype, shape and bytes, scalars in type and value, floats
    bit for bit. A float is loaded as the plain float its field declares,
    whichever float subclass (such as np.float64) the run held."""
    if isinstance(b, float):
        assert type(a) is float, f"{where}: {type(a)} is not float"
        assert struct.pack("<d", a) == struct.pack("<d", b), where
        return
    assert type(a) is type(b), f"{where}: {type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name),
                             f"{where}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_bits(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_state_round_trip(self, tmp_path, strategy):
        spec, run = build_tiny_run(tmp_path, federated={"strategy": strategy})
        runtime.run_round(run, evaluate=False)
        path = str(tmp_path / "ck.bin")
        resolved = experiment.resolved_spec(spec)
        save_checkpoint(path, run, resolved)
        ck = load_checkpoint(path)
        assert ck.spec == resolved
        assert ck.round_index == 2
        assert len(ck.records) == 1
        assert_same_bits(ck.records, run.records, "records")
        assert_same_bits(ck.strategy_state, run.strategy_state, "state")

    def test_empty_run_round_trip(self, tmp_path):
        spec, run = build_tiny_run(tmp_path)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        ck = load_checkpoint(path)
        assert ck.round_index == 1 and ck.records == []

    def test_fsyncs_file_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        spec, run = build_tiny_run(tmp_path)
        path = str(tmp_path / "ck.bin")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                events.append(("fsync-dir", None))
            else:
                events.append(("fsync-file", info.st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        size = os.path.getsize(path)
        # the file is synced complete, before the rename; the directory after
        assert events == [("fsync-file", size), ("replace", None), ("fsync-dir", None)]
        monkeypatch.undo()
        plain = str(tmp_path / "plain.bin")
        save_checkpoint(plain, run, experiment.resolved_spec(spec))
        with open(path, "rb") as a, open(plain, "rb") as b:
            assert a.read() == b.read()

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        """Every entry carries the fixed date of a bare ZipInfo; one written
        by name would be stamped with the wall clock."""
        spec, run = build_tiny_run(tmp_path, federated={"strategy": "niw"})
        runtime.run_round(run, evaluate=False)
        blobs = []
        for i, now in enumerate([1.7e9, 1.7e9 + 86400]):
            monkeypatch.setattr(time, "time", lambda: now)
            path = tmp_path / f"ck{i}.bin"
            save_checkpoint(str(path), run, experiment.resolved_spec(spec))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        with zipfile.ZipFile(tmp_path / "ck0.bin") as zf:
            infos = zf.infolist()
        assert [i.compress_type for i in infos] == [zipfile.ZIP_STORED] * len(infos)
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}


class TestMalformed:
    def make_valid(self, tmp_path):
        spec, run = build_tiny_run(tmp_path)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        return path

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"this is not a zip archive\n" * 4)
        with pytest.raises(CheckpointError, match="not a checkpoint file") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def test_bad_version(self, tmp_path):
        def edit(sections):
            meta = json.loads(sections["meta"])
            sections["meta"] = json.dumps({**meta, "version": 99}).encode()

        bad = self.rewrite(tmp_path, edit)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 99, expected 4"
        ):
            load_checkpoint(bad)

    def test_version_1_file_rejected(self, tmp_path):
        """v1 layout: a per-type state manifest."""
        self.assert_old_version_rejected(tmp_path, 1)

    def test_version_2_file_rejected(self, tmp_path):
        """v2 layout: retained per-client iterates."""
        self.assert_old_version_rejected(tmp_path, 2)

    @staticmethod
    def assert_old_version_rejected(tmp_path, version):
        """A file of a layout before v4 (magic FSCK, u32 version, then
        length-prefixed sections) is not a zip archive."""
        bad = tmp_path / f"v{version}.bin"
        sections = {
            b"meta": b'{"format":"fedsim-checkpoint","round_index":1,'
                     b'"strategy":"fedavg","version":%d}' % version,
            b"state": b'{"kind":"params"}',
        }
        bad.write_bytes(b"FSCK" + struct.pack("<I", version) + b"".join(
            struct.pack("<I", len(name)) + name + struct.pack("<Q", len(payload)) + payload
            for name, payload in sections.items()
        ))
        with pytest.raises(CheckpointError, match="not a checkpoint file") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def test_huge_section_length_is_truncation(self, tmp_path, monkeypatch):
        """A central-directory size past the file's is refused before any entry
        is read, so it is never allocated."""
        spec, run = build_tiny_run(tmp_path)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        bad = tmp_path / "bad.bin"
        with zipfile.ZipFile(bad, "w") as zf:
            for name, payload in checkpoint._read_sections(path).items():
                zf.writestr(zipfile.ZipInfo(name), payload)
            # written to the central directory as a zip64 extra field on close
            info = zf.getinfo("arr:state")
            info.file_size = info.compress_size = 2**62

        def no_read(*args, **kwargs):
            raise AssertionError("an entry was opened")

        monkeypatch.setattr(zipfile.ZipFile, "open", no_read)
        with pytest.raises(CheckpointError, match="'arr:state' truncated") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def test_truncated(self, tmp_path):
        path = self.make_valid(tmp_path)
        blob = open(path, "rb").read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(bad))

    def test_missing_section(self, tmp_path):
        bad = self.rewrite(tmp_path, lambda sections: sections.pop("meta"))
        with pytest.raises(CheckpointError, match="missing section 'meta'"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("section", [
        "meta", "spec", "records", "state", "arr:state:m0", "arr:state:v0_diag",
    ])
    def test_flipped_bit_in_payload_names_section(self, tmp_path, section):
        """The entry's CRC-32 catches a flip that leaves its payload readable,
        such as the last mantissa bit of the last v0_diag entry."""
        spec, run = build_tiny_run(tmp_path, federated={"strategy": "niw"})
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        payload = checkpoint._read_sections(path)[section]
        blob = bytearray(open(path, "rb").read())
        end = blob.index(payload) + len(payload)
        blob[end - 8 if section.startswith("arr:") else end - 1] ^= 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"section {section!r}: Bad CRC-32") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def test_changed_digit_in_state_json_names_section(self, tmp_path):
        """A one-digit change of l0 still parses, and the CRC-32 refuses it."""
        spec, run = build_tiny_run(tmp_path, federated={"strategy": "niw"})
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        blob = open(path, "rb").read()
        at = blob.index(b'"l0":') + len(b'"l0":')
        digit = blob[at:at + 1]
        assert digit.isdigit()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:at] + (b"1" if digit != b"1" else b"2") + blob[at + 1:])
        with pytest.raises(CheckpointError, match="section 'state': Bad CRC-32") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def test_unsupported_zip_version_names_file(self, tmp_path):
        """A flipped "version needed" byte in the central directory."""
        blob = bytearray(open(self.make_valid(tmp_path), "rb").read())
        blob[blob.index(b"PK\x01\x02") + 6] = 79
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="zip file version 7.9") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def test_undecodable_local_header_name_names_section(self, tmp_path):
        """The local header of the first entry claims a UTF-8 name whose bytes
        do not decode; the central directory's copy of the name is intact."""
        blob = bytearray(open(self.make_valid(tmp_path), "rb").read())
        assert blob[30:34] == b"meta"
        blob[7] |= 0x08  # general purpose flag bit 11: the name is UTF-8
        blob[30] ^= 0x80
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="section 'meta': 'utf-8' codec") as info:
            load_checkpoint(str(bad))
        assert str(info.value).startswith(f"{bad}: ")

    def rewrite(self, tmp_path, edit, strategy="fedavg"):
        """A valid checkpoint with edit(sections) applied, written back out."""
        spec, run = build_tiny_run(tmp_path, federated={"strategy": strategy})
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        sections = checkpoint._read_sections(path)
        edit(sections)
        bad = tmp_path / "bad.bin"
        write_sections(bad, sections)
        return str(bad)

    @staticmethod
    def drop_field(section, key, index=None):
        def edit(sections):
            obj = json.loads(sections[section])
            target = obj if index is None else obj[index]
            del target[key]
            sections[section] = json.dumps(obj).encode()
        return edit

    @pytest.mark.parametrize("section,key,index,strategy", [
        ("meta", "round_index", None, "fedavg"),
        ("records", "global_acc", 0, "fedavg"),
        ("state", "l0", None, "niw"),
        ("state", "gating_arch", None, "mixture"),
    ])
    def test_missing_field_names_file(self, tmp_path, section, key, index, strategy):
        def add_record(sections):
            sections["records"] = one_record()
            self.drop_field(section, key, index)(sections)

        bad = self.rewrite(tmp_path, add_record, strategy)
        with pytest.raises(CheckpointError, match=key) as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("section,payload", [
        ("meta", b"[]"),
        ("records", b"[1]"),
        ("state", b'{"m0": "arr:state:m0", "v0_diag": "arr:state:v0_diag", '
                  b'"l0": "x", "n0": 1, "d": 1}'),
        pytest.param("meta", ("round_index", "1e400"), id="meta-round_index-1e400"),
        pytest.param("state", ("d", "1e400"), id="state-d-1e400"),
        # numbers of the wrong JSON type
        pytest.param("records", one_record(participants=["2"]), id="participant-str"),
        pytest.param("records", one_record(participants=[True]), id="participant-bool"),
        pytest.param("records", one_record(round_index=1.7), id="record-round_index-1.7"),
        pytest.param("state", ("l0", '"217"'), id="state-l0-str"),
        pytest.param("meta", ("round_index", "2.9"), id="meta-round_index-2.9"),
    ])
    def test_wrong_json_shape_names_file(self, tmp_path, section, payload):
        def edit(sections):
            if isinstance(payload, tuple):  # one field of the valid JSON, raw
                key, raw = payload
                obj = {**json.loads(sections[section]), key: None}
                text = json.dumps(obj).replace(f'"{key}": null', f'"{key}": {raw}')
                sections[section] = text.encode()
            else:
                sections[section] = payload

        bad = self.rewrite(tmp_path, edit, "niw")
        with pytest.raises(CheckpointError, match="malformed content") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    def test_unknown_strategy_names_file(self, tmp_path):
        def edit(sections):
            meta = json.loads(sections["meta"])
            sections["meta"] = json.dumps({**meta, "strategy": "bogus"}).encode()

        bad = self.rewrite(tmp_path, edit)
        with pytest.raises(CheckpointError, match="unknown strategy 'bogus'") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    def test_non_ascii_section_name_names_file(self, tmp_path):
        """An entry name flagged UTF-8 in the central directory whose bytes do
        not decode."""
        def edit(sections):
            sections["caf\u00e9"] = b"{}"  # written as UTF-8, flag bit 11 set

        bad = self.rewrite(tmp_path, edit)
        blob = open(bad, "rb").read()
        assert blob.count("caf\u00e9".encode()) == 2  # local header, central directory
        with open(bad, "wb") as f:
            f.write(blob.replace("caf\u00e9".encode(), b"caf\xff\xa9"))
        with pytest.raises(CheckpointError, match="'utf-8' codec can't decode") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("key", ["sigma_sq"])
    def test_nan_mixture_state_names_file(self, tmp_path, key):
        def edit(sections):
            state = {**json.loads(sections["state"]), key: float("nan")}
            sections["state"] = json.dumps(state).encode()

        bad = self.rewrite(tmp_path, edit, "mixture")
        with pytest.raises(CheckpointError, match=f"malformed content: {key}") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("l0", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_niw_l0_names_file(self, tmp_path, l0):
        # the Student-t predictive scale divides by l0
        def edit(sections):
            state = {**json.loads(sections["state"]), "l0": l0}
            sections["state"] = json.dumps(state).encode()

        bad = self.rewrite(tmp_path, edit, "niw")
        with pytest.raises(CheckpointError, match="malformed content: l0") as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")

    @pytest.mark.parametrize("round_index,rounds", [
        (1, [1, 2]), (-3, []), (0, []), (4, [1, 2]), (3, [2, 1]), (3, [1, 1]),
    ])
    def test_round_index_must_follow_the_records(
        self, tmp_path, capsys, round_index, rounds
    ):
        """Resume rewrites metrics.csv from the records and continues at
        round_index, so the two must describe rounds 1..n then n + 1."""
        def edit(sections):
            meta = json.loads(sections["meta"])
            sections["meta"] = json.dumps({**meta, "round_index": round_index}).encode()
            recs = [json.loads(one_record(round_index=r))[0] for r in rounds]
            sections["records"] = json.dumps(recs).encode()

        bad = self.rewrite(tmp_path, edit)
        match = f"meta.round_index {round_index} does not follow records of rounds {rounds}"
        with pytest.raises(CheckpointError, match=re.escape(match)) as info:
            load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: ")
        from fedsim.cli import main

        out = tmp_path / "resumed"
        assert main(["resume", bad, "--out", str(out)]) == 1
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_resume_of_malformed_file_exits_with_message(self, tmp_path, capsys):
        from fedsim.cli import main

        bad = self.rewrite(tmp_path, self.drop_field("meta", "round_index"))
        assert main(["resume", bad]) == 1
        err = capsys.readouterr().err
        assert bad in err and "round_index" in err


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        obj = tiny_spec_obj(
            out=str(tmp_path / "full"),
            federated={"rounds": 6, "strategy": "niw",
                       "penalty_mode": "normalized"},
            evaluation={"checkpoint_every": 3},
        )
        full = experiment.run_experiment(experiment.parse_spec_dict(obj))
        mid = os.path.join(str(tmp_path / "full"), "checkpoint_round00003.bin")
        resumed = experiment.resume_experiment(mid, out=str(tmp_path / "resumed"))
        m_full = open(tmp_path / "full" / "metrics.csv", "rb").read()
        m_res = open(tmp_path / "resumed" / "metrics.csv", "rb").read()
        assert m_full == m_res
        assert resumed["final_global_acc"] == full["final_global_acc"]
        assert resumed["personalization"] == full["personalization"]
        assert resumed["build_id"] == full["build_id"]
        # final strategy states agree exactly
        a = load_checkpoint(os.path.join(tmp_path, "full",
                                         "checkpoint_round00006.bin"))
        b = load_checkpoint(os.path.join(tmp_path, "resumed",
                                         "checkpoint_round00006.bin"))
        assert np.array_equal(a.strategy_state.m0, b.strategy_state.m0)
        assert np.array_equal(a.strategy_state.v0_diag, b.strategy_state.v0_diag)

    def test_resume_mixture_matches_uninterrupted_run(self, tmp_path):
        obj = tiny_spec_obj(
            out=str(tmp_path / "full"),
            federated={"rounds": 4, "strategy": "mixture"},
            evaluation={"checkpoint_every": 2},
        )
        experiment.run_experiment(experiment.parse_spec_dict(obj))
        mid = os.path.join(str(tmp_path / "full"), "checkpoint_round00002.bin")
        experiment.resume_experiment(mid, out=str(tmp_path / "resumed"))
        m_full = open(tmp_path / "full" / "metrics.csv", "rb").read()
        m_res = open(tmp_path / "resumed" / "metrics.csv", "rb").read()
        assert m_full == m_res

    @pytest.mark.parametrize("strategy,section", [
        ("fedavg", "arr:state"), ("mixture", "arr:state:prototypes:1"),
    ])
    def test_resume_rejects_state_array_of_wrong_shape(
        self, tmp_path, capsys, strategy, section
    ):
        """The file loads, since nothing in it ties an array's length to the
        model; resume refuses it before it creates the output directory."""
        obj = tiny_spec_obj(
            out=str(tmp_path / "full"),
            federated={"rounds": 4, "strategy": strategy},
            evaluation={"checkpoint_every": 2},
        )
        experiment.run_experiment(experiment.parse_spec_dict(obj))
        mid = os.path.join(str(tmp_path / "full"), "checkpoint_round00002.bin")
        sections = checkpoint._read_sections(mid)
        sections[section] = checkpoint._array_bytes(np.zeros(3))
        bad = str(tmp_path / "bad.bin")
        write_sections(bad, sections)
        load_checkpoint(bad)
        from fedsim.cli import main

        out = tmp_path / "resumed"
        assert main(["resume", bad, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint section {section!r} has shape (3,)")
        assert not out.exists()

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        spec, run = build_tiny_run(tmp_path, sub="a")
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, run, experiment.resolved_spec(spec))
        ck = load_checkpoint(path)
        other = experiment.parse_spec_dict(
            tiny_spec_obj(out=str(tmp_path / "b"), seed=99)
        )
        with pytest.raises(experiment.SpecError, match="does not match"):
            experiment.run_experiment(other, resume=ck)

    def test_resume_of_finished_run_is_idempotent(self, tmp_path):
        obj = tiny_spec_obj(out=str(tmp_path / "full"), federated={"rounds": 3})
        experiment.run_experiment(experiment.parse_spec_dict(obj))
        final = os.path.join(str(tmp_path / "full"), "checkpoint_round00003.bin")
        before = open(tmp_path / "full" / "metrics.csv", "rb").read()
        experiment.resume_experiment(final)  # default out: same directory
        after = open(tmp_path / "full" / "metrics.csv", "rb").read()
        assert before == after


# derandomized so that every run of the suite tries the same mutants
FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    """A valid tiny checkpoint per state layout: a bare parameter vector, the
    NIW posterior, and the mixture posterior."""
    tmp = tmp_path_factory.mktemp("fuzz")
    blobs = []
    for fed in ({"strategy": "fedavg"}, {"strategy": "niw"}, {"strategy": "mixture"}):
        spec, run = build_tiny_run(tmp, sub=fed["strategy"], federated=fed)
        runtime.run_round(run, evaluate=False)
        path = tmp / f"{fed['strategy']}.bin"
        save_checkpoint(str(path), run, experiment.resolved_spec(spec))
        blobs.append(path.read_bytes())
    return tmp, blobs


def loads_or_rejects(path):
    """A mutated file either loads or raises CheckpointError, nothing else."""
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


class TestFuzz:
    @FUZZ
    @given(which=st.integers(0, 2),
           # half the flips land in the last 64 bytes, in the central
           # directory and the end record that frame the archive
           flips=st.lists(st.tuples(st.integers(-64, -1) | st.integers(0, 2**20),
                                    st.integers(1, 255)),
                          min_size=1, max_size=4))
    def test_flipped_bytes(self, valid_blobs, which, flips):
        tmp, blobs = valid_blobs
        blob = bytearray(blobs[which])
        for pos, mask in flips:
            blob[pos % len(blob)] ^= mask
        path = tmp / "mutant.bin"
        path.write_bytes(bytes(blob))
        loads_or_rejects(path)

    @FUZZ
    @given(which=st.integers(0, 2), cut=st.integers(0, 2**20))
    def test_truncated(self, valid_blobs, which, cut):
        tmp, blobs = valid_blobs
        path = tmp / "mutant.bin"
        path.write_bytes(blobs[which][: cut % len(blobs[which])])
        loads_or_rejects(path)

    @FUZZ
    @given(which=st.integers(0, 2),
           section=st.sampled_from(["meta", "state", "records"]), data=st.data())
    def test_swapped_json_value(self, valid_blobs, which, section, data):
        tmp, blobs = valid_blobs
        path = tmp / "mutant.bin"
        path.write_bytes(blobs[which])
        sections = checkpoint._read_sections(str(path))
        obj = json.loads(sections[section])
        where = data.draw(st.sampled_from(list(json_paths(obj))))
        sections[section] = json.dumps(swap_value(obj, where, data.draw(JSON))).encode()
        write_sections(path, sections)
        loads_or_rejects(path)
