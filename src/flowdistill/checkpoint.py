"""Run artifact files: a human-readable manifest followed by a raw blob of
little-endian values in manifest order. Checkpoints and datasets share the
format.

Layout::

    ckpt-v1 <n_entries>
    meta <key> <value>          (zero or more)
    entry <name> <dim0xdim1x...> <element_count> <byte_offset>
    entry <name> <dim0xdim1x...> <element_count> <byte_offset> i4
    ...
    ---
    <raw little-endian blob>

An entry is float32 unless its line ends in ``i4`` (int32); integer
arrays are stored as int32, and refused when a value lies outside its
range, and every other array as float32. A line
ending in ``f8`` is from a float64 file written before that format, and
loading it asks for the run directory to be rebuilt. Byte offsets
are relative to the start of the blob. Round trips are bit-exact because
parameters, dataset clips and evaluation reference sets are float32 and
condition tokens int32 in memory.

Every file is written through ``atomic_write``: to a temp file beside the
target, then renamed over it, so a reader sees the old file or the new one,
never a part of one.
"""
from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["atomic_write", "checkpoint_save", "checkpoint_load"]

_SEP = b"---\n"
# Entry kind suffix -> stored dtype; an entry line without one is float32.
_KINDS = {"i4": "<i4"}
_I4 = np.iinfo(np.int32)


def atomic_write(path, write) -> None:
    """``write(tmp)`` then rename over ``path``, creating its directory; a
    failed write leaves ``path`` as it was and removes the temp file."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def checkpoint_save(arrays: dict, path, meta: dict | None = None) -> None:
    """Write named arrays; entry order is the dict order. A meta key with
    whitespace, a meta value with a line break, an empty entry name or one
    with whitespace and an integer entry with a value outside int32 are
    refused before anything is written."""
    lines = [f"ckpt-v1 {len(arrays)}"]
    for key, value in (meta or {}).items():
        if any(ch.isspace() for ch in str(key)):
            raise ValueError(f"meta key {key!r} must not contain whitespace")
        value = str(value)
        if "".join(value.splitlines()) != value:  # the line breaks load splits on
            raise ValueError(f"meta value of {key!r} must not contain a line break")
        lines.append(f"meta {key} {value}")
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        if not name:
            raise ValueError("entry name must not be empty")
        if any(ch.isspace() for ch in name):
            raise ValueError(f"entry name {name!r} must not contain whitespace")
        arr = np.asarray(arr)
        kind = "i4" if np.issubdtype(arr.dtype, np.integer) else None
        if kind and arr.size and (arr.min() < _I4.min or arr.max() > _I4.max):
            raise ValueError(f"{os.fspath(path)}: entry {name!r} holds integers "
                             "outside int32, which would not load back as saved")
        arr = np.asarray(arr, dtype=_KINDS.get(kind, "<f4"))  # keeps 0-d entries 0-d
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        shape = "x".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        lines.append(f"entry {name} {shape} {arr.size} {offset}"
                     + (f" {kind}" if kind else ""))
        blobs.append(arr.tobytes())
        offset += arr.nbytes

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
            fh.write(_SEP)
            for blob in blobs:
                fh.write(blob)

    atomic_write(path, write)


def checkpoint_load(path, expect: tuple = ()) -> tuple:
    """Read (arrays, meta). Raises on corrupt manifests or truncated blobs,
    with a message that names ``path``: among them a line with nothing after
    its kind, a repeated entry name or meta key, and a negative dimension,
    count or offset.

    ``expect`` names entries that must be present; the error message names
    the first missing one.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # The separator is the first line that is exactly "---": no manifest
    # line is, while a meta value may end in "---".
    sep = raw.find(b"\n" + _SEP)
    if sep < 0:
        raise ValueError(f"{path}: missing manifest separator")
    manifest = raw[:sep].decode("utf-8").splitlines()
    blob = raw[sep + 1 + len(_SEP):]
    if not manifest or not manifest[0].startswith("ckpt-v1 "):
        raise ValueError(f"{path}: unrecognised manifest header")
    try:
        n_entries = int(manifest[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed manifest header") from None

    meta: dict = {}
    arrays: dict = {}
    entry_lines = []
    for line in manifest[1:]:
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        if kind in ("meta", "entry") and not rest.strip():
            raise ValueError(f"{path}: malformed manifest line {line!r}")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            if key in meta:
                raise ValueError(f"{path}: repeated meta key {key!r}")
            meta[key] = value
        elif kind == "entry":
            entry_lines.append(rest)
        else:
            raise ValueError(f"{path}: unknown manifest line {line!r}")
    if len(entry_lines) != n_entries:
        raise ValueError(
            f"{path}: manifest declares {n_entries} entries, found {len(entry_lines)}")

    for rest in entry_lines:
        parts = rest.split()
        dtype = "<f4"
        if len(parts) == 5 and parts[4] in _KINDS:
            dtype = _KINDS[parts.pop()]
        elif len(parts) == 5 and parts[4] == "f8":
            raise ValueError(
                f"{path}: entry {parts[0]!r} is float64 (f8): the file predates "
                "the float32 format; rebuild the run directory")
        if len(parts) != 4:
            raise ValueError(f"{path}: malformed entry line {rest!r}")
        name, shape_s, count_s, offset_s = parts
        if name in arrays:
            raise ValueError(f"{path}: repeated entry {name!r}")
        try:
            count, offset = int(count_s), int(offset_s)
            shape = () if shape_s == "scalar" else tuple(int(d) for d in shape_s.split("x"))
        except ValueError:
            raise ValueError(f"{path}: malformed entry line {rest!r}") from None
        if min((count, offset, *shape)) < 0:
            raise ValueError(f"{path}: entry {name!r} has a negative dimension, "
                             "count or offset")
        if math.prod(shape) != count:
            raise ValueError(f"{path}: entry {name!r} shape/count mismatch")
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise ValueError(f"{path}: blob truncated for entry {name!r}")
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                     offset=offset).reshape(shape).copy()
    for name in expect:
        if name not in arrays:
            raise KeyError(f"{path}: checkpoint is missing entry {name!r}")
    return arrays, meta
