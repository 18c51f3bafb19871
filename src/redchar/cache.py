"""Content-addressed cache for expensive artifacts (character tables).

Entries are JSON files keyed by the digest of {kind, group spec, algorithm
version}; each stores the digest of its own payload, so corruption is
detected and repaired by recomputation.  An entry is written as compact
canonical JSON (sorted keys, no whitespace); the payload is encoded once, for
its digest, and the entry's bytes are assembled around it.  The digest covers
the payload only, so entries in any JSON layout, such as the earlier indented
one, still read as hits.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ALGORITHM_VERSION = "1"


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
        key = cache_key(kind, spec)
        path = self._path(key)
        if path.exists():
            try:
                entry = json.loads(path.read_text())
                payload_bytes = _canonical_bytes(entry["payload"])
                if hashlib.sha256(payload_bytes).hexdigest() == entry["sha256"]:
                    return entry["payload"]
                raise ValueError("payload digest mismatch")
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                print(
                    f"warning: cache entry {path.name} corrupt ({exc}); recomputing",
                    file=sys.stderr,
                )
                path.unlink(missing_ok=True)
        payload = producer()
        payload_bytes = _canonical_bytes(payload)
        digest = hashlib.sha256(payload_bytes).hexdigest()
        key_bytes = _canonical_bytes({"kind": kind, "spec": spec, "version": ALGORITHM_VERSION})
        # _canonical_bytes of {"key", "payload", "sha256"}, written around the
        # payload bytes already encoded for the digest
        path.write_bytes(
            b'{"key":' + key_bytes + b',"payload":' + payload_bytes
            + b',"sha256":"' + digest.encode() + b'"}\n'
        )
        return payload

    def read_bytes(self, kind: str, spec: str) -> bytes | None:
        path = self._path(cache_key(kind, spec))
        return path.read_bytes() if path.exists() else None
