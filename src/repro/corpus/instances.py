"""The content-addressed instance corpus.

Tests, scenarios and benchmarks used to regenerate graphs ad hoc, each with
its own seed conventions; the corpus replaces that with *named, seeded,
content-addressed* instances:

* an :class:`InstanceSpec` pins a generator family, its parameters and a
  seed; its canonical name (``family/k=v,...``) doubles as the cache key;
* :func:`graph_digest` fingerprints the *generated graph itself* (an
  order-independent SHA-256 over vertices and edges), so the golden tests
  can pin digests and any silent generator drift fails loudly;
* :class:`InstanceCorpus` materializes specs lazily, memoizes frozen views
  in memory, and (optionally) caches generated graphs on disk — keyed by
  the spec digest, validated against the content digest on load, and
  written atomically so parallel workers can share one cache directory.

The generator matrix (:data:`FAMILIES`) spans every family the paper's
experiments draw from: planar triangulations, bounded-mad/degenerate
graphs, forest unions, surface grids, k-trees, power-law graphs, plus the
deterministic classics (paths, grids, toruses) and the degenerate edge
cases (empty and single-vertex instances) that once lived only in bug
reports.  The ``stream-*`` families are the million-node tier: their
builders return identity-labelled :class:`FrozenGraph` objects directly
(see :mod:`repro.graphs.generators.streaming`), they are cached on disk
as memory-mappable npz files keyed by content digest, and
:func:`graph_digest` hashes their CSR arrays in vectorized passes instead
of walking a Python edge list.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import GeneratorError, GraphError
from repro.graphs.frozen import FrozenGraph, freeze
from repro.graphs.graph import Graph
from repro.graphs.generators import classic, planar, sparse, streaming, surfaces

__all__ = [
    "Family",
    "FAMILIES",
    "InstanceSpec",
    "graph_digest",
    "InstanceCorpus",
    "default_corpus",
    "STANDARD_INSTANCES",
    "standard_instance",
]

@dataclass(frozen=True)
class Family:
    """One generator family of the corpus matrix."""

    name: str
    builder: Callable[..., Graph]
    description: str
    #: whether the builder takes a ``seed`` keyword (deterministic
    #: constructions like grids and toruses do not)
    seeded: bool = True
    #: streaming families build FrozenGraphs directly from edge ndarrays
    #: and cache on disk as npz instead of JSON edge lists
    streaming: bool = False


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("planar-tri", planar.stacked_triangulation,
               "stacked planar triangulation (Apollonian), mad < 6", True),
        Family("bounded-mad", sparse.random_degenerate_graph,
               "random k-degenerate graph, mad <= 2k", True),
        Family("forest-union", sparse.union_of_random_forests,
               "union of random spanning forests, arboricity <= a", True),
        Family("k-tree", sparse.random_k_tree,
               "random k-tree: maximal treewidth-k, (k+1)-clique witness", True),
        Family("power-law", sparse.preferential_attachment,
               "preferential attachment, heavy-tailed degrees, m-degenerate", True),
        Family("regular", classic.random_regular_graph,
               "random d-regular graph (configuration model)", True),
        Family("torus", surfaces.toroidal_triangular_grid,
               "6-regular toroidal triangular grid (Euler genus 2)", False),
        Family("klein", surfaces.klein_bottle_grid,
               "Klein-bottle grid of the lower-bound constructions", False),
        Family("grid", classic.grid_2d,
               "planar rectangular grid (bipartite, girth 4)", False),
        Family("path", classic.path, "path on n vertices", False),
        Family("empty", classic.empty_graph, "n isolated vertices", False),
        Family("stream-degenerate", streaming.stream_degenerate_graph,
               "streaming random k-degenerate graph (million-node tier)",
               True, True),
        Family("stream-forest", streaming.stream_forest_union,
               "streaming union of random spanning forests", True, True),
        Family("stream-k-tree", streaming.stream_k_tree,
               "streaming random k-tree (treewidth k)", True, True),
        Family("stream-power-law", streaming.stream_power_law,
               "streaming chunked preferential attachment", True, True),
        Family("stream-torus", streaming.stream_torus,
               "shuffled 6-regular toroidal grid, integer labels", False, True),
    )
}


@dataclass(frozen=True)
class InstanceSpec:
    """A generator family plus pinned parameters: one corpus instance.

    ``params`` are the builder's keyword arguments (the seed included, for
    seeded families).  The canonical ``name`` — ``family/k=v,...`` with
    keys sorted — is the corpus naming scheme documented in
    ``docs/verification.md``; ``spec_key`` is its SHA-256 prefix, used as
    the content address of the disk cache.
    """

    family: str
    params: tuple[tuple[str, Any], ...] = field(default=())

    @classmethod
    def of(cls, family: str, **params: Any) -> "InstanceSpec":
        if family not in FAMILIES:
            raise GeneratorError(
                f"unknown corpus family {family!r}; known: {sorted(FAMILIES)}"
            )
        return cls(family=family, params=tuple(sorted(params.items())))

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.family}/{inner}" if inner else self.family

    @property
    def spec_key(self) -> str:
        payload = json.dumps(
            {"family": self.family, "params": [[k, repr(v)] for k, v in self.params]},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def build(self) -> Graph:
        """Generate a fresh mutable graph for this spec."""
        return FAMILIES[self.family].builder(**dict(self.params))


def _decimal_lengths(x):
    """Digit count of every entry of a nonnegative int64 array."""
    lengths = np.ones(len(x), dtype=np.int64)
    if len(x) == 0:
        return lengths
    top = int(x.max())
    bound = 10
    while bound <= top:
        lengths += x >= bound
        bound *= 10
    return lengths


def _lex_composites(x, width):
    """Int64 keys whose numeric order equals the *string* order of ``str(x)``.

    ``str(a) < str(b)`` iff the zero-right-padded value of ``a`` (to
    ``width`` digits) is smaller, with digit count breaking the tie (the
    prefix rule: ``"1" < "10"``).  Both criteria packed into one int64 so
    string comparisons and sorts become integer ops — this is what makes
    the digest fast path fast.  Returns ``(composite, digit_lengths)``.
    """
    lengths = _decimal_lengths(x)
    padded = x * 10 ** (width - lengths)
    return padded * (width + 1) + lengths, lengths


def _pack_decimal_rows(prefix: int, seps, columns, lengths):
    """Concatenated ``prefix dec(col0) sep dec(col1) ...`` rows as uint8.

    Builds the exact byte stream the slow digest path would hash — decimal
    reprs of varying width — without creating a single Python string: row
    offsets come from a cumsum of digit counts and every digit position is
    one vectorized scatter.
    """
    rows = len(columns[0])
    row_w = np.full(rows, 1 + len(seps), dtype=np.int64)
    for col_lengths in lengths:
        row_w += col_lengths
    starts = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(row_w, out=starts[1:])
    buf = np.empty(int(starts[-1]), dtype=np.uint8)
    pos = starts[:-1].copy()
    buf[pos] = prefix
    pos += 1
    for index, (col, col_lengths) in enumerate(zip(columns, lengths)):
        if index:
            buf[pos] = seps[index - 1]
            pos += 1
        end = pos + col_lengths
        power = 1
        for d in range(int(col_lengths.max()) if rows else 0):
            mask = col_lengths > d
            digit = (col[mask] // power) % 10
            buf[end[mask] - 1 - d] = digit + 48  # ord("0")
            power *= 10
        pos = end
    return buf


def _csr_digest(graph: FrozenGraph) -> str:
    """Digest fast path: hash the CSR arrays of an identity-labelled graph.

    Byte-for-byte the same hash stream as the slow path — vertex reprs in
    lexicographic order, then per-edge ``min/max`` repr pairs in
    lexicographic pair order — but assembled with integer numpy passes
    (see :func:`_lex_composites`).  Only valid for identity labels, where
    ``repr(label) == str(index)``.
    """
    h = hashlib.sha256()
    n = len(graph)
    offsets, neighbors = graph.csr_arrays()
    width = len(str(n - 1)) if n else 1
    ids = np.arange(n, dtype=np.int64)
    vkeys, vlengths = _lex_composites(ids, width)
    order = np.argsort(vkeys)
    h.update(_pack_decimal_rows(ord("v"), (), [ids[order]], [vlengths[order]]))
    src = np.repeat(ids, np.diff(offsets))
    neighbors = np.asarray(neighbors)
    keep = src < neighbors  # each undirected edge once
    a, b = src[keep], neighbors[keep]
    akeys, alengths = _lex_composites(a, width)
    bkeys, blengths = _lex_composites(b, width)
    swap = bkeys < akeys  # string min/max, e.g. "10" < "2"
    lo = np.where(swap, b, a)
    hi = np.where(swap, a, b)
    lo_lengths = np.where(swap, blengths, alengths)
    hi_lengths = np.where(swap, alengths, blengths)
    order = np.lexsort(
        (np.where(swap, akeys, bkeys), np.where(swap, bkeys, akeys))
    )
    h.update(
        _pack_decimal_rows(
            ord("e"),
            (0x1F,),
            [lo[order], hi[order]],
            [lo_lengths[order], hi_lengths[order]],
        )
    )
    return h.hexdigest()[:16]


def graph_digest(graph) -> str:
    """Order-independent SHA-256 fingerprint of a graph's vertices and edges.

    Stable across vertex orderings, freezes and (de)serialization round
    trips — two graphs share a digest iff they have the same labelled
    vertex and edge sets.  This is the value the golden seed-stability
    tests pin per corpus instance.  Identity-labelled frozen graphs (the
    streaming families) take a vectorized CSR fast path that produces the
    identical hash stream.
    """
    if (
        isinstance(graph, FrozenGraph)
        and graph.identity_labels
        and len(graph) < 10**17  # composite sort keys must fit in int64
    ):
        return _csr_digest(graph)
    h = hashlib.sha256()
    for v in sorted(map(repr, graph.vertices())):
        h.update(b"v")
        h.update(v.encode())
    for u, v in sorted(
        tuple(sorted((repr(a), repr(b)))) for a, b in graph.edges()
    ):
        h.update(b"e")
        h.update(u.encode())
        h.update(b"\x1f")
        h.update(v.encode())
    return h.hexdigest()[:16]


def _roundtrippable(value: Any) -> bool:
    try:
        return ast.literal_eval(repr(value)) == value
    except (ValueError, SyntaxError):
        return False


def _encode_graph(spec: InstanceSpec, graph: Graph) -> dict[str, Any]:
    # name and metadata ride along so a warm-cache load is observably
    # identical to a cold generation (generators record certified bounds
    # like mad/arboricity in metadata); values that cannot survive the
    # repr/literal_eval round trip are dropped rather than corrupted
    return {
        "schema_version": 1,
        "spec": {"family": spec.family, "params": [[k, repr(v)] for k, v in spec.params]},
        "name": spec.name,
        "graph_name": graph.name,
        "metadata": {
            str(k): repr(v) for k, v in graph.metadata.items() if _roundtrippable(v)
        },
        "digest": graph_digest(graph),
        "vertices": sorted(map(repr, graph.vertices())),
        "edges": sorted(
            sorted((repr(a), repr(b))) for a, b in graph.edges()
        ),
    }


def _decode_graph(payload: Mapping[str, Any], name: str) -> Graph:
    graph = Graph(name=payload.get("graph_name", name))
    for encoded in payload["vertices"]:
        graph.add_vertex(ast.literal_eval(encoded))
    for encoded_u, encoded_v in payload["edges"]:
        graph.add_edge(ast.literal_eval(encoded_u), ast.literal_eval(encoded_v))
    for key, encoded in payload.get("metadata", {}).items():
        graph.metadata[key] = ast.literal_eval(encoded)
    return graph


class InstanceCorpus:
    """Lazy, memoizing, optionally disk-backed corpus of named instances.

    ``cache_dir`` enables the disk layer; it defaults to the
    ``REPRO_CORPUS_DIR`` environment variable and stays purely in-memory
    when neither is set.  Classic families cache one JSON edge list per
    spec (content-addressed by ``spec_key``); streaming families cache a
    memory-mappable npz per spec, named ``family-speckey-digest.npz`` so
    the content digest is readable without opening the file.  Cached files
    are validated against their content digest on load — a corrupted or
    stale file is silently regenerated, never trusted.

    ``max_bytes`` (default: the ``REPRO_CORPUS_MAX_BYTES`` environment
    variable) caps the on-disk footprint: after every store the least
    recently *used* files are evicted until the cache fits — loads touch
    mtimes, so hot instances survive.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_bytes: int | None = None,
    ):
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CORPUS_DIR") or None
        if max_bytes is None:
            raw = os.environ.get("REPRO_CORPUS_MAX_BYTES", "")
            max_bytes = int(raw) if raw.strip().isdigit() else None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_bytes = max_bytes
        self._frozen: dict[InstanceSpec, FrozenGraph] = {}

    # ------------------------------------------------------------------
    def build(self, spec: InstanceSpec) -> Graph:
        """A fresh *mutable* graph for the spec (cache-backed, never shared).

        Streaming specs have no mutable form — they return the (immutable)
        frozen view instead; mutation attempts raise ``GraphError``.
        """
        if FAMILIES[spec.family].streaming:
            return self.frozen(spec)
        cached = self._load(spec)
        if cached is not None:
            return cached
        graph = spec.build()
        self._store(spec, graph)
        return graph

    def frozen(self, spec: InstanceSpec) -> FrozenGraph:
        """The memoized frozen view of the spec (shared; treat as immutable)."""
        view = self._frozen.get(spec)
        if view is None:
            if FAMILIES[spec.family].streaming:
                view = self._load_npz(spec)
                if view is None:
                    view = spec.build()
                    self._store_npz(spec, view)
            else:
                view = freeze(self.build(spec))
            self._frozen[spec] = view
        return view

    def digest(self, spec: InstanceSpec) -> str:
        """The content digest of the spec's graph."""
        return graph_digest(self.frozen(spec))

    # ------------------------------------------------------------------
    def _path(self, spec: InstanceSpec) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.family}-{spec.spec_key}.json"

    def _ensure_cache_dir(self) -> bool:
        """Create the cache directory if needed; ``False`` degrades to no-disk.

        ``os.makedirs(exist_ok=True)`` is atomic against concurrent creators
        (two processes warming the same family race benignly); any *other*
        OSError — permissions, a file squatting on the path, a read-only
        filesystem — turns the disk layer off for this store instead of
        failing the generation that triggered it.
        """
        if self.cache_dir is None:
            return False
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            return True
        except OSError:
            return False

    def _load(self, spec: InstanceSpec) -> Graph | None:
        path = self._path(spec)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            graph = _decode_graph(payload, spec.name)
            if graph_digest(graph) != payload.get("digest"):
                return None  # corrupted or stale: fall through to regenerate
            _touch(path)
            return graph
        except (OSError, ValueError, KeyError, SyntaxError):
            return None

    def _store(self, spec: InstanceSpec, graph: Graph) -> None:
        path = self._path(spec)
        if path is None or not self._ensure_cache_dir():
            return
        payload = json.dumps(_encode_graph(spec, graph), sort_keys=True) + "\n"
        tmp = _tmp_name(path)
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)  # atomic: parallel workers race benignly
        except OSError:
            _discard(tmp)  # cache is best-effort; the graph is already built
            return
        self._enforce_cap()

    # ------------------------------------------------------------------
    # npz layer (streaming families)
    # ------------------------------------------------------------------
    def npz_path(self, spec: InstanceSpec) -> Path | None:
        """The existing npz cache file for a streaming spec, if any.

        Useful as the shared-memory fallback transport handed to
        :func:`repro.analysis.shared.publish`.
        """
        if self.cache_dir is None or not FAMILIES[spec.family].streaming:
            return None
        hits = sorted(self.cache_dir.glob(f"{spec.family}-{spec.spec_key}-*.npz"))
        return hits[0] if hits else None

    def _load_npz(self, spec: InstanceSpec) -> FrozenGraph | None:
        path = self.npz_path(spec)
        if path is None:
            return None
        try:
            graph = FrozenGraph.load_npz(path, mmap=True)
        except (OSError, ValueError, GraphError):
            return None
        expected = path.stem.rsplit("-", 1)[-1]
        if graph_digest(graph) != expected:
            return None  # stale or corrupted: regenerate
        _touch(path)
        return graph

    def _store_npz(self, spec: InstanceSpec, graph: FrozenGraph) -> None:
        if self.cache_dir is None or not isinstance(graph, FrozenGraph):
            return
        if not self._ensure_cache_dir():
            return
        digest = graph_digest(graph)
        path = self.cache_dir / f"{spec.family}-{spec.spec_key}-{digest}.npz"
        tmp = _tmp_name(path)
        try:
            graph.save_npz(tmp)
            os.replace(tmp, path)
        except (OSError, GraphError):
            _discard(tmp)
            return
        self._enforce_cap()

    # ------------------------------------------------------------------
    # size cap / LRU eviction
    # ------------------------------------------------------------------
    def cache_files(self) -> list[Path]:
        """Every cache file on disk (JSON edge lists and npz instances)."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        return sorted(
            p
            for p in self.cache_dir.iterdir()
            if p.is_file() and p.suffix in (".json", ".npz")
        )

    def cache_size_bytes(self) -> int:
        """Total on-disk footprint of the cache."""
        total = 0
        for path in self.cache_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def prune(self, max_bytes: int | None = None) -> list[Path]:
        """Evict least-recently-used files until the cache fits; returns them.

        ``max_bytes`` defaults to the corpus cap; ``0`` empties the cache.
        A corpus with no cap configured prunes nothing unless one is given.
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None:
            return []
        entries = []
        for path in self.cache_files():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
        total = sum(size for _, size, _ in entries)
        entries.sort(key=lambda e: (e[0], e[2].name))
        evicted: list[Path] = []
        for _mtime, size, path in entries:
            if total <= limit:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted.append(path)
        return evicted

    def _enforce_cap(self) -> None:
        if self.max_bytes is not None:
            self.prune()


def _touch(path: Path) -> None:
    """Best-effort LRU bookkeeping: a cache hit refreshes the file's mtime."""
    try:
        os.utime(path, None)
    except OSError:
        pass


_TMP_SERIAL = itertools.count()


def _tmp_name(path: Path) -> Path:
    """A collision-free temp sibling for the atomic-replace dance.

    The pid alone is not unique enough: the serving layer warms instances
    from executor threads, so one process can run two stores of the same
    spec concurrently — a per-process serial disambiguates them.
    """
    return path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SERIAL)}")


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


_DEFAULT: InstanceCorpus | None = None


def default_corpus() -> InstanceCorpus:
    """The process-wide corpus (honours ``REPRO_CORPUS_DIR``)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = InstanceCorpus()
    return _DEFAULT


#: The standard named set: small instances every suite draws identically.
#: Golden tests pin each instance's content digest *and* per-algorithm
#: results, so a substrate refactor that silently changes outputs fails.
STANDARD_INSTANCES: dict[str, InstanceSpec] = {
    "planar-tri-60-s3": InstanceSpec.of("planar-tri", n_vertices=60, seed=3),
    "bounded-mad-64-k2-s5": InstanceSpec.of("bounded-mad", n=64, degeneracy=2, seed=5),
    "forest-union-80-a2-s1": InstanceSpec.of("forest-union", n=80, arboricity=2, seed=1),
    "k-tree-48-k3-s2": InstanceSpec.of("k-tree", n=48, k=3, seed=2),
    "power-law-72-m2-s4": InstanceSpec.of("power-law", n=72, m=2, seed=4),
    "regular-40-d4-s7": InstanceSpec.of("regular", n=40, d=4, seed=7),
    "torus-6x8": InstanceSpec.of("torus", k=6, l=8),
    "grid-6x10": InstanceSpec.of("grid", rows=6, cols=10),
    "path-33": InstanceSpec.of("path", n=33),
    "single-vertex": InstanceSpec.of("empty", n=1),
    "empty-0": InstanceSpec.of("empty", n=0),
}


def standard_instance(name: str) -> InstanceSpec:
    """Look up a standard instance by its corpus name."""
    try:
        return STANDARD_INSTANCES[name]
    except KeyError:
        raise GeneratorError(
            f"unknown standard instance {name!r}; known: {sorted(STANDARD_INSTANCES)}"
        ) from None
