"""The server's graph store: standard corpus instances plus client uploads.

Requests reference graphs by content digest (:func:`repro.corpus.
graph_digest`).  At boot the store materializes the
:data:`~repro.corpus.STANDARD_INSTANCES` set through the shared
:class:`~repro.corpus.InstanceCorpus` — a few milliseconds, and it gives
every client a stable digest vocabulary without uploading anything.
Uploaded edge lists become identity-labelled
:class:`~repro.graphs.frozen.FrozenGraph` objects, content-addressed the
same way; uploading a graph the server already knows is a no-op that
returns the existing digest.

Graphs are handed to the compute executor as
:class:`~repro.analysis.shared.SharedGraphHandle` objects: published
into shared memory when the server runs a worker pool, registered
same-process (:func:`repro.analysis.shared.local_handle`) otherwise —
either way the request path never pickles a CSR array.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.analysis import shared
from repro.corpus import (
    STANDARD_INSTANCES,
    InstanceCorpus,
    InstanceSpec,
    default_corpus,
    graph_digest,
)
from repro.errors import GraphError
from repro.graphs.frozen import FrozenGraph
from repro.serve.protocol import ServeError

__all__ = ["GraphStore"]


class GraphStore:
    """Digest-addressed graphs: preloaded standard instances + upload LRU."""

    def __init__(
        self,
        *,
        corpus: InstanceCorpus | None = None,
        use_pool: bool = False,
        max_upload_edges: int = 2_000_000,
        max_uploads: int = 32,
        preload_standard: bool = True,
    ):
        self.corpus = corpus if corpus is not None else default_corpus()
        self.use_pool = use_pool
        self.max_upload_edges = int(max_upload_edges)
        self.max_uploads = int(max_uploads)
        #: digest -> (instance name, frozen graph)
        self._graphs: dict[str, tuple[str, FrozenGraph]] = {}
        #: upload insertion order for count-capped eviction
        self._uploads: OrderedDict[str, None] = OrderedDict()
        #: digests this store published (released on close)
        self._handles: dict[str, shared.SharedGraphHandle] = {}
        if preload_standard:
            for name, spec in STANDARD_INSTANCES.items():
                self._add_spec(name, spec)

    # ------------------------------------------------------------------
    def _add_spec(self, name: str, spec: InstanceSpec) -> str:
        frozen = self.corpus.frozen(spec)
        digest = graph_digest(frozen)
        self._graphs.setdefault(digest, (name, frozen))
        return digest

    def upload(self, n: Any, edges: Any, *, name: str = "") -> dict[str, Any]:
        """Validate and register an uploaded edge list; returns its summary.

        Caps are enforced *before* any array is built so an oversized
        upload costs the server a length check, not memory.  Malformed
        payloads raise :class:`ServeError` (``bad-request``/``too-large``)
        — the connection and the event loop survive.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ServeError("bad-request", f"n must be a nonnegative integer, got {n!r}")
        if not isinstance(edges, list):
            raise ServeError(
                "bad-request", f"edges must be a list of [u, v] pairs, got {type(edges).__name__}"
            )
        if n > 2 * self.max_upload_edges + 1:
            raise ServeError(
                "too-large",
                f"upload has n={n} vertices; cap is {2 * self.max_upload_edges + 1}",
            )
        if len(edges) > self.max_upload_edges:
            raise ServeError(
                "too-large",
                f"upload has {len(edges)} edges; cap is {self.max_upload_edges}",
            )
        for pair in edges:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
            ):
                raise ServeError(
                    "bad-request", f"edge {pair!r} is not an [int, int] pair"
                )
        if not isinstance(name, str):
            raise ServeError("bad-request", "graph name must be a string")
        try:
            frozen = FrozenGraph.from_edge_array(n, edges, name=name or "upload")
        except GraphError as exc:
            raise ServeError("bad-request", f"invalid edge list: {exc}") from None
        digest = graph_digest(frozen)
        known = digest in self._graphs
        if not known:
            self._graphs[digest] = (name or f"upload-{digest}", frozen)
            self._uploads[digest] = None
            self._evict_uploads()
        return {
            "graph_digest": digest,
            "n": len(frozen),
            "m": frozen.number_of_edges(),
            "known": known,
        }

    def _evict_uploads(self) -> None:
        while len(self._uploads) > self.max_uploads:
            digest, _ = self._uploads.popitem(last=False)
            self._graphs.pop(digest, None)
            if self._handles.pop(digest, None) is not None:
                shared.release(digest)

    # ------------------------------------------------------------------
    def resolve(self, digest: Any) -> tuple[str, FrozenGraph]:
        """``(instance name, graph)`` for a digest; ``unknown-digest`` if absent."""
        if not isinstance(digest, str):
            raise ServeError(
                "bad-request", f"graph_digest must be a string, got {type(digest).__name__}"
            )
        entry = self._graphs.get(digest)
        if entry is None:
            raise ServeError(
                "unknown-digest",
                f"no graph with digest {digest!r} is loaded; upload it or use "
                "one of the standard instances (op=instances)",
            )
        return entry

    def handle(self, digest: str) -> shared.SharedGraphHandle:
        """The zero-copy executor handle for a known digest (published lazily)."""
        handle = self._handles.get(digest)
        if handle is None:
            _name, graph = self.resolve(digest)
            if self.use_pool:
                handle = shared.publish(graph, digest=digest)
            else:
                handle = shared.local_handle(graph, digest=digest)
            self._handles[digest] = handle
        return handle

    def instances(self) -> list[dict[str, Any]]:
        """The digest vocabulary: every loaded graph, standard set first."""
        rows = []
        for digest, (name, graph) in self._graphs.items():
            rows.append(
                {
                    "graph_digest": digest,
                    "instance": name,
                    "n": len(graph),
                    "m": graph.number_of_edges(),
                    "uploaded": digest in self._uploads,
                }
            )
        rows.sort(key=lambda r: (r["uploaded"], r["instance"]))
        return rows

    def close(self) -> None:
        """Release every publication this store created."""
        for digest in list(self._handles):
            self._handles.pop(digest, None)
            shared.release(digest)
