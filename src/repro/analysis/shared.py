"""Zero-copy fan-out of frozen CSR graphs to process-pool workers.

The batch engine used to pickle every task's graph into every worker — at
n = 10^6 that is hundreds of megabytes serialized per task and a full CSR
copy resident per worker.  This module replaces the payload with a
content-addressed :class:`SharedGraphHandle`, a few dozen bytes that
travel through the normal task pickling while the CSR arrays move
out-of-band:

* the parent freezes the graph once and :func:`publish`\\ es it — the CSR
  pair is copied into one ``multiprocessing.shared_memory`` block (or, if
  shared memory is unavailable and the instance has an npz cache file,
  the handle points at that file instead);
* workers :func:`attach` by handle: ``np.frombuffer`` over the shared
  block (or a memory-map of the npz member) reconstructs an
  identity-labelled :class:`FrozenGraph` without copying a byte, cached
  per process by digest;
* the parent :func:`release`\\ s the blocks when the run finishes —
  :func:`repro.scenarios.base.run_scenario` calls :func:`release_all` in
  a ``finally``, so teardown also happens when the pool dies mid-run
  (``BrokenExecutor``), and an ``atexit`` hook backstops interpreter
  exit.

The same-process path (inline fallback when the sandbox cannot fork, and
the parent's own checks) resolves through a local registry and never
touches the shared block, so publish/attach is safe to use
unconditionally.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import GraphError
from repro.graphs.frozen import FrozenGraph

__all__ = [
    "SharedGraphHandle",
    "publish",
    "local_handle",
    "attach",
    "release",
    "release_all",
    "detach_all",
    "published_digests",
]

_INT64 = 8  # bytes per CSR entry


@dataclass(frozen=True)
class SharedGraphHandle:
    """A picklable, content-addressed reference to a published graph.

    ``kind`` selects the transport: ``"shm"`` (POSIX shared memory block
    named ``location``), ``"npz"`` (memory-mapped npz file at
    ``location``) or ``"local"`` (same-process registry only — the inline
    fallback).  ``digest`` is the :func:`repro.corpus.graph_digest`
    content address; ``n`` and ``num_slots`` (= 2m) fix the array
    geometry so attachment needs no header parsing.
    """

    kind: str
    digest: str
    n: int
    num_slots: int
    location: str = ""
    graph_name: str = ""
    metadata_json: str = "{}"


class _Publication:
    """Parent-side bookkeeping for one published graph."""

    __slots__ = ("handle", "block")

    def __init__(self, handle: SharedGraphHandle, block) -> None:
        self.handle = handle
        self.block = block


#: parent-side: digest -> publication (owns the shm block, if any)
_PUBLISHED: dict[str, _Publication] = {}
#: same-process registry: digest -> the original frozen graph
_LOCAL: dict[str, FrozenGraph] = {}
#: per-process attachment cache: digest -> (graph, shm block or None)
_ATTACHED: dict[str, tuple[FrozenGraph, Any]] = {}


def _encode_metadata(metadata: dict[str, Any]) -> str:
    safe: dict[str, str] = {}
    for key, value in metadata.items():
        try:
            if ast.literal_eval(repr(value)) == value:
                safe[str(key)] = repr(value)
        except (ValueError, SyntaxError):
            continue
    return json.dumps(safe, sort_keys=True)


def _decode_metadata(payload: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, encoded in json.loads(payload).items():
        try:
            out[key] = ast.literal_eval(encoded)
        except (ValueError, SyntaxError):
            continue
    return out


def publish(
    graph: FrozenGraph,
    *,
    digest: str | None = None,
    npz_path: str | os.PathLike | None = None,
) -> SharedGraphHandle:
    """Publish ``graph`` for zero-copy worker attachment; returns its handle.

    Idempotent per content digest: republishing an already-published graph
    returns the existing handle.  Requires identity labels for the shared
    transports; anything else degrades to a
    ``"local"`` handle (same-process resolution only).  ``npz_path`` — an
    existing :meth:`FrozenGraph.save_npz` file, e.g. the corpus npz
    cache — is the fallback transport when shared memory cannot be
    created, and the digest fast-path means computing ``digest`` ahead of
    time is cheap; pass it when already known.
    """
    if digest is None:
        from repro.corpus import graph_digest

        digest = graph_digest(graph)
    existing = _PUBLISHED.get(digest)
    if existing is not None:
        _LOCAL.setdefault(digest, graph)
        return existing.handle

    _LOCAL[digest] = graph
    n = len(graph)
    offsets, neighbors = graph.csr_arrays()
    num_slots = len(neighbors)
    common = {
        "digest": digest,
        "n": n,
        "num_slots": num_slots,
        "graph_name": graph.name,
        "metadata_json": _encode_metadata(graph.metadata),
    }
    npz_location = os.fspath(npz_path) if npz_path is not None else None

    block = None
    if graph.identity_labels:
        try:
            from multiprocessing import shared_memory

            nbytes = max(1, (n + 1 + num_slots) * _INT64)
            block = shared_memory.SharedMemory(create=True, size=nbytes)
            buf = np.frombuffer(block.buf, dtype=np.int64, count=n + 1 + num_slots)
            buf[: n + 1] = offsets
            buf[n + 1 :] = neighbors
            del buf  # release the exported buffer view before any close()
            handle = SharedGraphHandle(kind="shm", location=block.name, **common)
        except (ImportError, OSError, PermissionError):
            block = None
            handle = None  # type: ignore[assignment]
    else:
        handle = None  # type: ignore[assignment]
    if block is None:
        if npz_location is not None and os.path.exists(npz_location):
            handle = SharedGraphHandle(kind="npz", location=npz_location, **common)
        else:
            handle = SharedGraphHandle(kind="local", **common)
    _PUBLISHED[digest] = _Publication(handle, block)
    return handle


def local_handle(graph: FrozenGraph, *, digest: str | None = None) -> SharedGraphHandle:
    """A same-process handle for ``graph`` — no shared block is created.

    The zero-copy handoff for executors that stay in the parent process
    (thread pools, inline retries, the coloring service at
    ``--workers 1``): :func:`attach` resolves the handle through the
    local registry to the *original object*, so handing work to an
    executor costs a few dozen bytes regardless of graph size.  Release
    with :func:`release` like any publication.
    """
    if digest is None:
        from repro.corpus import graph_digest

        digest = graph_digest(graph)
    existing = _PUBLISHED.get(digest)
    if existing is not None:
        _LOCAL.setdefault(digest, graph)
        return existing.handle
    _LOCAL[digest] = graph
    try:
        num_slots = len(graph.csr_arrays()[1])
    except (GraphError, TypeError):
        num_slots = 2 * graph.number_of_edges()
    handle = SharedGraphHandle(
        kind="local",
        digest=digest,
        n=len(graph),
        num_slots=num_slots,
        graph_name=graph.name,
        metadata_json=_encode_metadata(graph.metadata),
    )
    _PUBLISHED[digest] = _Publication(handle, None)
    return handle


def _open_shared_block(name: str):
    """Attach an existing shared-memory block without claiming ownership.

    Python < 3.13 has no ``track=False``, and the resource tracker of a
    pool worker would otherwise unlink the parent's block (and warn) at
    worker exit — unregister the attachment so cleanup stays with the
    publishing parent.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python 3.11/3.12
        block = shared_memory.SharedMemory(name=name, create=False)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:  # noqa: BLE001 - tracker internals vary; best effort
            pass
        return block


def attach(handle: SharedGraphHandle) -> FrozenGraph:
    """Materialize the graph a handle refers to (cached per process).

    Resolution order: the same-process registry (the publishing parent and
    the inline fallback hit this — literally the original object), then
    the shared-memory block or npz memory-map named by the handle.  The
    reconstructed graph is identity-labelled and its CSR arrays alias the
    shared buffer — zero copies, read-only.
    """
    graph = _LOCAL.get(handle.digest)
    if graph is not None:
        return graph
    cached = _ATTACHED.get(handle.digest)
    if cached is not None:
        return cached[0]

    if handle.kind == "shm":
        block = _open_shared_block(handle.location)
        n, num_slots = handle.n, handle.num_slots
        offsets = np.frombuffer(block.buf, dtype=np.int64, count=n + 1)
        neighbors = np.frombuffer(
            block.buf, dtype=np.int64, count=num_slots, offset=(n + 1) * _INT64
        )
        offsets.flags.writeable = False
        neighbors.flags.writeable = False
        graph = FrozenGraph(
            range(n),
            offsets,
            neighbors,
            name=handle.graph_name,
            metadata=_decode_metadata(handle.metadata_json),
        )
        _ATTACHED[handle.digest] = (graph, block)
        return graph
    if handle.kind == "npz":
        graph = FrozenGraph.load_npz(handle.location, mmap=True)
        from repro.corpus import graph_digest

        if graph_digest(graph) != handle.digest:
            raise GraphError(
                f"npz file {handle.location!r} does not match the published "
                f"digest {handle.digest} (stale or corrupted cache)"
            )
        _ATTACHED[handle.digest] = (graph, None)
        return graph
    raise GraphError(
        f"cannot attach graph {handle.digest}: published as {handle.kind!r} "
        "in another process and no shared transport is available"
    )


def detach_all() -> None:
    """Drop this process's attachments and close their shared blocks.

    Worker-side cleanup (tests use it; pool workers may simply exit — the
    parent's unlink plus process death releases the mappings anyway).
    """
    while _ATTACHED:
        digest, (graph, block) = _ATTACHED.popitem()
        del graph
        if block is not None:
            try:
                block.close()
            except (OSError, BufferError):
                pass


def release(digest: str) -> None:
    """Parent-side teardown of one publication (close + unlink its block)."""
    publication = _PUBLISHED.pop(digest, None)
    _LOCAL.pop(digest, None)
    if publication is not None and publication.block is not None:
        for closer in (publication.block.close, publication.block.unlink):
            try:
                closer()
            except (OSError, FileNotFoundError, BufferError):
                pass


def release_all() -> None:
    """Tear down every publication (idempotent; safe with nothing published)."""
    for digest in list(_PUBLISHED):
        release(digest)


def published_digests() -> list[str]:
    """Digests currently published by this process (diagnostics/tests)."""
    return sorted(_PUBLISHED)


atexit.register(release_all)
