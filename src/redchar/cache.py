"""Content-addressed cache for expensive artifacts (character tables).

Entries are JSON files keyed by the digest of {kind, group spec, algorithm
version}; each stores the digest of its own payload, so corruption is
detected and repaired by recomputation.  An entry is written as compact
canonical JSON (sorted keys, no whitespace).  The payload is encoded once, in
pieces that are written after the key and update the digest as they go, so no
copy of the whole payload's text is held in memory.  The digest covers the
payload only, so entries in any JSON layout, such as the earlier indented
one, still read as hits.  An entry is written to a temporary file in the same
directory and renamed into place, so a reader sees a whole entry or none.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ALGORITHM_VERSION = "2"


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def cache_key(kind: str, spec: str) -> str:
    return hashlib.sha256(
        _canonical_bytes({"kind": kind, "spec": spec, "version": ALGORITHM_VERSION})
    ).hexdigest()


class TableCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get_or_compute(self, kind: str, spec: str, producer):
        """Return the cached payload for (kind, spec) or compute and store it.

        `producer` returns a JSON-serializable payload.  A hit is verified
        against the stored payload digest; corrupt entries are discarded and
        recomputed with a warning.
        """
        path = self._path(cache_key(kind, spec))
        if path.exists():
            try:
                return _read_payload(path)
            except ValueError as exc:  # also a JSON or UTF-8 decoding error
                self.discard(kind, spec, exc)
        payload = producer()
        key_bytes = _canonical_bytes({"kind": kind, "spec": spec, "version": ALGORITHM_VERSION})
        digest = hashlib.sha256()

        def entry():  # _canonical_bytes of {"key", "payload", "sha256"}
            yield b'{"key":' + key_bytes + b',"payload":'
            for piece in _canonical_pieces(payload):
                digest.update(piece)
                yield piece
            yield b',"sha256":"' + digest.hexdigest().encode() + b'"}\n'

        _write_whole(path, entry())
        return payload

    def discard(self, kind: str, spec: str, reason) -> None:
        """Delete the entry for (kind, spec), which is corrupt for `reason`,
        with a warning; the next get_or_compute recomputes it."""
        path = self._path(cache_key(kind, spec))
        print(f"warning: cache entry {path.name} corrupt ({reason}); recomputing", file=sys.stderr)
        path.unlink(missing_ok=True)


def _read_payload(path: Path) -> dict:
    """The payload of the entry at `path`.  ValueError unless the entry is an
    object holding a dict payload and a string sha256 that is its digest."""
    entry = json.loads(path.read_text())
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("payload"), dict)
        and isinstance(entry.get("sha256"), str)
    ):
        raise ValueError("not an object with a dict payload and a string sha256")
    if hashlib.sha256(_canonical_bytes(entry["payload"])).hexdigest() != entry["sha256"]:
        raise ValueError("payload digest mismatch")
    return entry["payload"]


def _canonical_pieces(obj, depth: int = 2):
    """The bytes of `_canonical_bytes(obj)` in pieces: the dicts and lists
    of the top `depth` levels are opened here, so a piece holds at most one
    value below them (one row of a table).  Dict keys are strings, as in
    every JSON object."""
    if depth and isinstance(obj, dict):
        yield b"{"
        for i, key in enumerate(sorted(obj)):
            yield (b"," if i else b"") + _canonical_bytes(key) + b":"
            yield from _canonical_pieces(obj[key], depth - 1)
        yield b"}"
    elif depth and isinstance(obj, list):
        yield b"["
        for i, item in enumerate(obj):
            if i:
                yield b","
            yield from _canonical_pieces(item, depth - 1)
        yield b"]"
    else:
        yield _canonical_bytes(obj)


def _write_whole(path: Path, pieces) -> None:
    """Write the byte pieces to a temporary file beside `path`, then rename it
    onto `path` (atomic within one directory)."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.writelines(pieces)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
