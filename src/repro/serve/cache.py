"""Digest-keyed LRU result cache with a byte cap.

Mirrors the corpus npz cache semantics (:mod:`repro.corpus.instances`):
entries are keyed by content digest, sized in bytes, and evicted
least-recently-used once the configured budget is exceeded.  Here the
content is a finished coloring *response payload* rather than a graph,
and the key also folds in the algorithm and its canonical parameters —
the same triple the micro-batcher coalesces on, so a cache hit and a
coalesced in-flight join return byte-identical results.

The cache is synchronous and unlocked by design: the server mutates it
only from the event-loop thread, so no request ever observes a
half-updated entry.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any

from repro.serve.protocol import params_key

__all__ = ["ResultCache", "result_key"]


def result_key(digest: str, algorithm: str, params: dict[str, Any]) -> str:
    """The cache/coalescing key of one coloring request.

    ``params`` must already be canonical (:func:`~repro.serve.protocol.
    canonical_params`) so two spellings of the same request share a key.
    """
    return f"{digest}:{algorithm}:{params_key(params)}"


class ResultCache:
    """Byte-capped LRU of coloring response payloads.

    ``max_bytes <= 0`` disables caching entirely (every lookup misses);
    a single payload larger than the cap is simply not stored.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, tuple[dict[str, Any], int]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict[str, Any] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: str, payload: dict[str, Any]) -> None:
        size = len(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        if size > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (payload, size)
        self._bytes += size
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _evicted_key, (_payload, evicted_size) = self._entries.popitem(last=False)
            self._bytes -= evicted_size
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
