"""Content-addressed on-disk run cache.

Because a single seed fully determines a run (the ``repro.qa``
determinism gate proves this), a run's results are a pure function of
*(scenario spec, code)*.  The cache exploits that: each completed
:class:`~repro.exec.summary.RunSummary` is stored under a BLAKE2 key of

- the spec's canonical JSON (topology, duration, seed, scale, scheme,
  config overrides, attacker mix, latency bucket, hash-events flag),
- a **code fingerprint** — a BLAKE2 hash over every ``*.py`` file in
  the installed ``repro`` package — so any source change invalidates
  every prior entry, and
- a cache format version.

Entries are one JSON document each (human-inspectable; floats
round-trip exactly through ``repr``), written atomically via a
temp-file rename so concurrent workers never observe torn entries.
Corrupt or unreadable entries read as misses.

Set ``REPRO_CODE_FINGERPRINT`` to pin the fingerprint explicitly
(useful in tests and in CI jobs that restore caches across checkouts).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional

from repro.exec.summary import RunSummary

__all__ = ["CACHE_FORMAT", "RunCache", "cache_key", "code_fingerprint"]

#: Bump to invalidate every existing cache entry on format changes.
#: 2: RunSummary grew the ``telemetry`` envelope (worker round-trip).
#: 3: RunSummary grew a worker-lifecycle record (since removed).
#: 4: RunSummary grew the ``statescope`` state-accounting record.
#: 5: the four instrument fields became one ``instruments`` dict.
#: 6: the event-stream digest moved into the ``simsan`` instrument record.
CACHE_FORMAT = 6

_fingerprint_memo: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """BLAKE2 hash over the ``repro`` package sources (memoized).

    The ``REPRO_CODE_FINGERPRINT`` environment variable overrides the
    computed value.
    """
    global _fingerprint_memo
    override = os.environ.get("REPRO_CODE_FINGERPRINT", "").strip()
    if override:
        return override
    if _fingerprint_memo is None or refresh:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _fingerprint_memo = digest.hexdigest()
    return _fingerprint_memo


def cache_key(spec: Any, fingerprint: Optional[str] = None) -> str:
    """The content address of one run: BLAKE2(spec, code, format)."""
    payload = {
        "format": CACHE_FORMAT,
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
        "spec": spec.canonical(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=20).hexdigest()


class RunCache:
    """A directory of content-addressed run summaries."""

    def __init__(self, directory: Any) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """Entry path; the two-char shard keeps directories small."""
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunSummary]:
        """The cached summary for ``key``, or ``None`` (corrupt = miss)."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            summary = RunSummary.from_json_dict(payload["summary"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, key: str, summary: RunSummary) -> Path:
        """Store ``summary`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"format": CACHE_FORMAT, "key": key, "summary": summary.to_json_dict()}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))
