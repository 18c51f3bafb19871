"""Cache of character tables, one file per (kind, group spec).

An entry is a header line of compact sorted-key JSON (the key: kind, spec and
algorithm version; the group, its exponent, the table prime ell, zeta mod
ell, the class sizes and orders, the degrees, and the block's dtype and
shape), then the rows as one raw little-endian block in the narrowest signed
type that holds them (int8 on every group up to GL2(16)), then the CRC-32 of
both.  The CRC is computed over the bytes as read, so a hit encodes nothing
again; it has no key and detects accidental corruption only.  A hit is
trusted because its header is checked against the group's class data and its
rows, widened to int64 once and the bytes dropped, are re-certified exactly.
A malformed entry raises ValueError, and the caller recomputes it.  An entry
is written beside its path and renamed into place, so a reader sees a whole
entry or none.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .chartable import CharacterTable, ModularContext, _packed_context, _primitive_root_of_unity, find_table_prime
from .cyclotomic import _absmax
from .groups import GroupRealization

ALGORITHM_VERSION = "3"
_DTYPES = ("|i1", "<i2", "<i4", "<i8")  # the block types, narrowest first


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def cache_key(kind: str, spec: str) -> str:
    """The file stem of the entry for (kind, spec)."""
    return f"{kind}-{spec}-v{ALGORITHM_VERSION}"


class TableCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.entry"

    def get_or_compute(self, kind: str, spec: str, producer):
        """The entry (header, block) for (kind, spec): on a hit as read, the
        block widened to int64; on a miss from `producer`, which returns
        (header fields, integer block), and written.  An entry that
        `_read_entry` refuses is discarded and recomputed with a warning."""
        key = {"kind": kind, "spec": spec, "version": ALGORITHM_VERSION}
        path = self._path(cache_key(kind, spec))
        if path.exists():
            try:
                return _read_entry(path, key)
            except ValueError as exc:  # also a JSON or UTF-8 decoding error
                self.discard(kind, spec, exc)
        fields, block = producer()
        header = {**fields, "key": key, "dtype": block.dtype.str, "shape": list(block.shape)}
        _write_whole(path, _canonical_bytes(header) + b"\n", block)
        return header, block

    def discard(self, kind: str, spec: str, reason) -> None:
        """Delete the entry for (kind, spec), which is corrupt for `reason`,
        with a warning; the next get_or_compute recomputes it."""
        path = self._path(cache_key(kind, spec))
        print(f"warning: cache entry {path.name} corrupt ({reason}); recomputing", file=sys.stderr)
        path.unlink(missing_ok=True)


def _read_entry(path: Path, key: dict) -> tuple[dict, np.ndarray]:
    """The header and the int64 block of the entry at `path`.  ValueError
    unless its CRC holds, its header is a JSON object with this key, a block
    type and two sizes, and the block has the length they give."""
    data = path.read_bytes()
    if len(data) < 4 or zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise ValueError("CRC-32 mismatch")
    end = data.find(b"\n")
    if end < 0:
        raise ValueError("no header line")
    header = json.loads(data[:end])
    if not (isinstance(header, dict) and header.get("key") == key):
        raise ValueError("the header is not this entry's")
    dtype, shape = header.get("dtype"), header.get("shape")
    if dtype not in _DTYPES:
        raise ValueError(f"unknown block dtype {dtype!r}")
    if not (isinstance(shape, list) and len(shape) == 2 and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError("the block shape is not two sizes")
    count = shape[0] * shape[1]
    if len(data) - end - 5 != count * np.dtype(dtype).itemsize:
        raise ValueError("the block length disagrees with its shape")
    return header, np.frombuffer(data, dtype, count, end + 1).reshape(shape).astype(np.int64)


def _write_whole(path: Path, line: bytes, block: np.ndarray) -> None:
    """Write the header line, the block and their CRC-32 to a temporary file
    beside `path`, then rename it onto `path` (atomic within one directory).
    The block is C-contiguous, so its buffer is its raw bytes."""
    crc = zlib.crc32(block, zlib.crc32(line))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(line)
            out.write(block)
            out.write(crc.to_bytes(4, "little"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _table_fields(group: GroupRealization, ell: int, zeta_mod: int, degrees: list) -> dict:
    data = group.conjugacy()
    return {
        "group": str(group.spec),
        "exponent": data.exponent,
        "ell": ell,
        "zeta_mod": zeta_mod,
        "class_sizes": data.sizes.tolist(),
        "class_orders": list(data.orders),
        "degrees": degrees,
    }


def table_entry(table: CharacterTable) -> tuple[dict, np.ndarray]:
    """The header fields and the block of `table`'s entry: its rows in the
    narrowest block type that holds them."""
    bound = _absmax(table.rows)
    dtype = next((t for t in _DTYPES if bound <= np.iinfo(t).max), _DTYPES[-1])
    fields = _table_fields(table.group, table.modular.ell, table.modular.zeta_mod, table.degrees)
    return fields, table.rows.astype(dtype)


def table_from_entry(group: GroupRealization, header: dict, rows: np.ndarray) -> CharacterTable:
    """The table of a hit, re-certified exactly.  A ValueError unless the
    shape is the group's layout and the header holds, value and type alike,
    the group, its class data, the table prime and root that the table
    algorithm picks for it, and the rows' first column as the degrees."""
    conj = group.conjugacy()
    if header["shape"] != [conj.n_classes, _packed_context(group).size]:
        raise ValueError("the block shape is not the group's table layout")
    ell = find_table_prime(conj.exponent, group.order)
    zeta_mod = _primitive_root_of_unity(ell, conj.exponent)
    expected = _table_fields(group, ell, zeta_mod, rows[:, 0].tolist())
    wrong = [k for k in sorted(expected) if _canonical_bytes(header.get(k)) != _canonical_bytes(expected[k])]
    if wrong:
        raise ValueError(f"the header's {', '.join(wrong)} disagree with the group's table")
    table = CharacterTable(group, rows, ModularContext(group, ell, zeta_mod))
    table.verify_degree_sum()
    table.verify_orthogonality()
    return table
