"""Content-addressed on-disk cache of campaign experiment results.

A cache entry is keyed by everything that can change an experiment's
output: the experiment id, its run configuration (``quick``, ``seed``,
shard count), and a content hash of the ``repro`` source tree (the *code
version*).  Editing any ``.py`` file under the package therefore
invalidates every entry automatically — there is no staleness knob to
forget.  Entries store the merged :class:`ExperimentResult` JSON plus the
merged stats snapshot, so a warm run can still serve ``--stats-out``.
Lookups count into :attr:`ResultCache.hits` / :attr:`ResultCache.misses`;
the campaign's ``task.cache_hit`` events record which experiments hit.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from typing import Dict, Optional

#: Bump when the entry layout changes; part of every key.
CACHE_SCHEMA = 2


def _json_default(obj):
    """Coerce numpy scalars to native numbers so entries round-trip exactly."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


@lru_cache(maxsize=1)
def code_version() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` sources (path + content).

    Computed once per process.  Two trees with identical sources produce
    the same version regardless of location, mtimes, or bytecode caches.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class ResultCache:
    """Directory of ``<experiment>.<key16>.json`` entries with hit/miss stats."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def key(
        self,
        experiment_id: str,
        quick: bool,
        seed: int,
        extra: Optional[Dict[str, object]] = None,
    ) -> str:
        """Content-addressed key for one experiment configuration."""
        payload = {
            "schema": CACHE_SCHEMA,
            "experiment": experiment_id,
            "quick": bool(quick),
            "seed": int(seed),
            "code": code_version(),
            "extra": extra or {},
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _path(self, experiment_id: str, key: str) -> str:
        return os.path.join(self.root, f"{experiment_id}.{key[:16]}.json")

    def get(self, experiment_id: str, key: str) -> Optional[dict]:
        """The stored entry document, or ``None`` on miss/corruption."""
        path = self._path(experiment_id, key)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if doc.get("key") != key:  # 16-hex-char filename collision
            self.misses += 1
            return None
        self.hits += 1
        return doc

    def put(self, experiment_id: str, key: str, doc: dict) -> str:
        """Store ``doc`` under ``key``; returns the entry path."""
        doc = dict(doc, key=key)
        path = self._path(experiment_id, key)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, default=_json_default)
        os.replace(tmp, path)
        return path

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps orphaned ``*.json.tmp`` files a crashed :meth:`put`
        may have left behind (not counted — they were never entries), and
        tolerates another process deleting files concurrently.
        """
        removed = 0
        for fname in sorted(os.listdir(self.root)):
            if not (fname.endswith(".json") or fname.endswith(".json.tmp")):
                continue
            try:
                os.unlink(os.path.join(self.root, fname))
            except FileNotFoundError:
                continue
            if fname.endswith(".json"):
                removed += 1
        return removed

    def __len__(self) -> int:
        """Number of entries (``*.json.tmp`` write leftovers don't count)."""
        return sum(1 for f in sorted(os.listdir(self.root)) if f.endswith(".json"))
