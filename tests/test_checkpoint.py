import os

import numpy as np
import pytest

import flowdistill.checkpoint as ckpt
from flowdistill.checkpoint import checkpoint_load, checkpoint_save


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "w1": rng.standard_normal((3, 5)).astype(np.float32),
        "bias": rng.standard_normal(5).astype(np.float32),
        "mix": rng.standard_normal((4, 2, 2)).astype(np.float32),
        "gain": np.float32(1.25).reshape(()),
    }


def test_save_load_round_trip_bit_exact(tmp_path):
    params = _params()
    path = tmp_path / "model.ckpt"
    checkpoint_save(params, path, meta={"config_hash": "abc123", "seed": 7})
    back, meta = checkpoint_load(path)
    assert set(back) == set(params)
    for key in params:
        assert back[key].dtype == np.float32
        assert np.array_equal(back[key], params[key]), key
    assert meta["config_hash"] == "abc123"
    assert meta["seed"] == "7"


@pytest.mark.parametrize("meta, key", [
    # Read back, this would be a second entry line: "declares 1 entries, found 2".
    ({"config_hash": "abc\nentry b 1 1 0"}, "config_hash"),
    # Read back, this would lose its line break and come back as "x".
    ({"seed": 7, "note": "x\n"}, "note"),
    ({"note": "x\r\ny"}, "note"),
    ({"note": "x\u2028y"}, "note"),
])
def test_a_meta_value_with_a_line_break_is_refused_and_nothing_written(
        tmp_path, meta, key):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=f"meta value of '{key}'.*line break"):
        checkpoint_save({"a": np.zeros(1, np.float32)}, path, meta=meta)
    assert os.listdir(tmp_path) == []


def test_manifest_entry_count_matches(tmp_path):
    params = _params(1)
    path = tmp_path / "model.ckpt"
    checkpoint_save(params, path)
    text = path.read_bytes().split(b"---\n")[0].decode()
    lines = [ln for ln in text.splitlines() if ln.startswith("entry ")]
    assert len(lines) == len(params)
    assert text.splitlines()[0] == f"ckpt-v1 {len(params)}"


def test_missing_expected_entry_named(tmp_path):
    params = {"w1": np.zeros((2, 2), np.float32)}
    path = tmp_path / "model.ckpt"
    checkpoint_save(params, path)
    with pytest.raises(KeyError, match="mix"):
        checkpoint_load(path, expect=("w1", "mix"))


def test_truncated_blob_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint_save(_params(2), path)
    raw = path.read_bytes()
    (tmp_path / "bad.ckpt").write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="truncated"):
        checkpoint_load(tmp_path / "bad.ckpt")


def test_corrupt_manifest_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint_save(_params(3), path)
    raw = path.read_bytes()
    (tmp_path / "bad.ckpt").write_bytes(b"junk " + raw)
    with pytest.raises(ValueError):
        checkpoint_load(tmp_path / "bad.ckpt")
    head, _, blob = raw.partition(b"---\n")
    wrong = head.replace(b"ckpt-v1 4", b"ckpt-v1 9")
    (tmp_path / "count.ckpt").write_bytes(wrong + b"---\n" + blob)
    with pytest.raises(ValueError, match="entries"):
        checkpoint_load(tmp_path / "count.ckpt")


def test_shape_count_mismatch_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint_save({"w": np.zeros((2, 3), np.float32)}, path)
    raw = path.read_bytes().replace(b"entry w 2x3 6 0", b"entry w 2x3 7 0")
    (tmp_path / "bad.ckpt").write_bytes(raw)
    with pytest.raises(ValueError, match="mismatch"):
        checkpoint_load(tmp_path / "bad.ckpt")


def _manifest(tmp_path, lines, blob=b""):
    path = tmp_path / "bad.ckpt"
    path.write_bytes("\n".join(lines).encode() + b"\n---\n" + blob)
    return path


def test_a_shape_whose_int64_product_wraps_is_a_shape_count_mismatch(tmp_path):
    # 2**32 x 2**32 elements is 0 in int64 arithmetic: the line once passed
    # the check and failed in numpy's reshape, naming no file.
    path = _manifest(tmp_path, ["ckpt-v1 1", "entry w 4294967296x4294967296 0 0"])
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == f"{path}: entry 'w' shape/count mismatch"


@pytest.mark.parametrize("line", ["meta", "entry", "entry "])
def test_a_line_with_nothing_after_its_kind_is_refused_by_path(tmp_path, line):
    path = _manifest(tmp_path, ["ckpt-v1 0", line])
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == f"{path}: malformed manifest line {line!r}"


def test_a_repeated_entry_name_is_refused(tmp_path):
    blob = np.arange(4, dtype="<f4").tobytes()
    path = _manifest(tmp_path, ["ckpt-v1 2", "entry a 2 2 0", "entry a 2 2 8"], blob)
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == f"{path}: repeated entry 'a'"


def test_a_repeated_meta_key_is_refused(tmp_path):
    # It once loaded with the last value winning.
    path = _manifest(tmp_path, ["ckpt-v1 0", "meta config_hash aaaa",
                                "meta config_hash bbbb"])
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == f"{path}: repeated meta key 'config_hash'"


@pytest.mark.parametrize("entry", ["entry a 2x-1 -2 0", "entry a -2 -2 0",
                                   "entry a 2 2 -8", "entry a 2x1 2 -4"])
def test_a_negative_dimension_count_or_offset_is_refused(tmp_path, entry):
    # "entry a 2x-1 -2 0" once loaded a (2, 1) array from the blob.
    path = _manifest(tmp_path, ["ckpt-v1 1", entry], np.arange(4, dtype="<f4").tobytes())
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == (
        f"{path}: entry 'a' has a negative dimension, count or offset")


def test_a_non_integer_field_is_refused_by_path(tmp_path):
    path = _manifest(tmp_path, ["ckpt-v1 1", "entry a 2xz 2 0"])
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == f"{path}: malformed entry line 'a 2xz 2 0'"


def test_a_float64_entry_asks_for_the_run_directory_to_be_rebuilt(tmp_path):
    # The layout of a reference set written before the float32 format.
    path = tmp_path / "references" / "default.ckpt"
    path.parent.mkdir()
    clips = np.arange(16, dtype="<f8").reshape(2, 4, 2)
    path.write_bytes(b"ckpt-v1 1\nentry clips 2x4x2 16 0 f8\n---\n" + clips.tobytes())
    with pytest.raises(ValueError) as err:
        checkpoint_load(path)
    assert str(err.value) == (
        f"{path}: entry 'clips' is float64 (f8): the file predates the float32 "
        "format; rebuild the run directory")


def test_mixed_entry_kinds_get_their_offsets(tmp_path):
    # An integer array is stored as int32 and any other array as float32, a
    # float64 one included: the manifest knows no other kind.
    arrays = {"tokens": np.arange(3, dtype=np.int32),
              "w": np.arange(5, dtype=np.float32) / 3,
              "ref": np.arange(4, dtype=np.float64) / 7,
              "gain": np.float32(2.5).reshape(()),
              "tail": np.full((2, 1), 1 / 3, dtype=np.float64)}
    path = tmp_path / "mixed.ckpt"
    checkpoint_save(arrays, path)
    raw = path.read_bytes()
    head = raw.split(b"---\n")[0].decode().splitlines()
    assert head[1:] == ["entry tokens 3 3 0 i4", "entry w 5 5 12",
                        "entry ref 4 4 32", "entry gain scalar 1 48",
                        "entry tail 2x1 2 52"]
    assert len(raw.split(b"---\n", 1)[1]) == 12 + 20 + 16 + 4 + 8
    back, _ = checkpoint_load(path)
    for key, value in arrays.items():
        stored = value.astype(np.int32 if key == "tokens" else np.float32)
        assert back[key].dtype == stored.dtype, key
        assert back[key].tobytes() == stored.tobytes(), key


def test_int32_entries_round_trip_exactly(tmp_path):
    tokens = np.array([[0, -1], [2 ** 31 - 1, -2 ** 31]], dtype=np.int32)
    params = _params(4)
    path = tmp_path / "mixed.ckpt"
    checkpoint_save({"tokens": tokens, **params}, path)
    back, _ = checkpoint_load(path)
    assert back["tokens"].dtype == np.int32
    assert np.array_equal(back["tokens"], tokens)
    for key in params:
        assert back[key].dtype == np.float32
        assert np.array_equal(back[key], params[key]), key
    head = path.read_bytes().split(b"---\n")[0].decode().splitlines()
    assert "entry tokens 2x2 4 0 i4" in head
    assert "entry w1 3x5 15 16" in head  # float32 lines carry no dtype


@pytest.mark.parametrize("value", [
    np.array([0, 2 ** 40 + 5], dtype=np.int64),
    np.array([-2 ** 31 - 1], dtype=np.int64),
    np.array([2 ** 32 - 1], dtype=np.uint32),
], ids=["int64 above", "int64 below", "uint32 above"])
def test_an_integer_outside_int32_is_refused_and_nothing_written(tmp_path, value):
    # Stored as int32, such a value would wrap: 2**40 + 5 would load as 5.
    path = tmp_path / "wide.ckpt"
    with pytest.raises(ValueError, match="outside int32") as err:
        checkpoint_save({"w1": _params(6)["w1"], "tokens": value}, path)
    assert str(path) in str(err.value) and "'tokens'" in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_save_creates_the_parent_directory(tmp_path):
    path = tmp_path / "a" / "b" / "model.ckpt"
    checkpoint_save(_params(5), path)
    assert checkpoint_load(path)[0].keys() == _params(5).keys()


class _DiskFull:
    """A file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    checkpoint_save(_params(6), path)
    before = path.read_bytes()
    monkeypatch.setattr(ckpt, "open", lambda file, mode="r": _DiskFull(open(file, mode)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        checkpoint_save(_params(7), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
