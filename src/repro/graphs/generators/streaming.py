"""Streaming edge-array generators: corpus families at n = 10^6 and beyond.

The classic generators in :mod:`repro.graphs.generators.sparse` build a
``dict[vertex, set]`` :class:`~repro.graphs.graph.Graph` one edge at a
time — fine at n = 10^4, hopeless at n = 10^6 (gigabytes of boxed ints and
hash tables).  The ``stream_*`` builders here never touch :class:`Graph`:
each produces a ``(m, 2)`` int64 edge ndarray in vectorized numpy chunks
and hands it to :meth:`FrozenGraph.from_edge_array`, which symmetrizes,
deduplicates and CSR-packs it in a few array passes.  Vertices are always
``0..n-1`` (identity labels).

The families mirror the corpus matrix where a streaming formulation
exists — k-degenerate graphs, forest unions, k-trees, preferential
attachment, and the 6-regular toroidal triangular grid (the bounded-degree
surface family the batched round engine runs on).  They are *separate*
corpus families ("stream-degenerate" etc.), not drop-in replacements: the
chunked constructions make different (equally certified) random choices
than their scalar counterparts, so their digests are pinned independently.

Every builder certifies the same structural bounds in ``metadata`` as its
scalar sibling (``degeneracy_upper_bound``, ``mad_upper_bound``, ...):
construction order proves the bound, duplicate edges dropped by
:meth:`from_edge_array` can only lower it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import GeneratorError
from repro.graphs.frozen import FrozenGraph

__all__ = [
    "stream_degenerate_graph",
    "stream_forest_union",
    "stream_k_tree",
    "stream_power_law",
    "stream_torus",
    "STREAMING_BUILDERS",
]

#: default generation chunk: big enough to amortize numpy call overhead,
#: small enough that per-chunk scratch stays in cache-friendly territory
_CHUNK = 1 << 18


def _empty_edges():
    return np.empty((0, 2), dtype=np.int64)


def _pairs(src, dst):
    return np.stack(
        [np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)],
        axis=1,
    )


# ---------------------------------------------------------------------------
# edge-array builders
# ---------------------------------------------------------------------------

def stream_degenerate_edges(n: int, degeneracy: int, seed: int, chunk: int = _CHUNK):
    """Edges of a random k-degenerate graph, built ``chunk`` vertices at a time.

    Vertices arrive in index order; the first ``min(n, k+1)`` form a
    clique, every later vertex draws ``k`` earlier neighbours uniformly
    (duplicates within a draw merge away downstream, which only lowers the
    degree).  Each vertex has back-degree <= k by construction, so the
    graph is k-degenerate and ``mad <= 2k``.
    """
    if n < 0 or degeneracy < 0:
        raise GeneratorError("need n >= 0 and degeneracy >= 0")
    k = degeneracy
    rng = np.random.default_rng(seed)
    parts = []
    head = min(n, k + 1)
    if head > 1:
        i, j = np.triu_indices(head, k=1)
        parts.append(_pairs(i, j))
    start = head
    while start < n and k > 0:
        stop = min(n, start + chunk)
        v = np.arange(start, stop, dtype=np.int64)
        targets = rng.integers(0, v[:, None], size=(stop - start, k))
        parts.append(_pairs(np.repeat(v, k), targets.reshape(-1)))
        start = stop
    if not parts:
        return _empty_edges()
    return np.concatenate(parts, axis=0)


def stream_forest_union_edges(n: int, arboricity: int, seed: int):
    """Edges of a union of ``arboricity`` uniformly random spanning forests.

    Per forest: a random vertex permutation, then every non-root position
    attaches to a uniform earlier position — one vectorized draw per
    forest.  Arboricity <= a and ``mad <= 2a`` by construction.
    """
    if n < 0 or arboricity < 0:
        raise GeneratorError("need n >= 0 and arboricity >= 0")
    if n < 2 or arboricity == 0:
        return _empty_edges()
    rng = np.random.default_rng(seed)
    positions = np.arange(1, n, dtype=np.int64)
    parts = []
    for _ in range(arboricity):
        perm = rng.permutation(n).astype(np.int64)
        parent_pos = rng.integers(0, positions)
        parts.append(_pairs(perm[parent_pos], perm[positions]))
    return np.concatenate(parts, axis=0)


def stream_k_tree_edges(n: int, k: int, seed: int):
    """Edges of a random k-tree (treewidth k, (k+1)-clique on ``0..k``).

    The face table (the k-cliques a new vertex may join) is one
    preallocated ``(F, k)`` int64 array and all face choices are drawn up
    front, so the per-vertex loop is pure index arithmetic.
    """
    if k < 1:
        raise GeneratorError("need k >= 1")
    if n <= k + 1:
        if n < 2:
            return _empty_edges()
        i, j = np.triu_indices(n, k=1)
        return _pairs(i, j)
    rng = np.random.default_rng(seed)
    grow = n - (k + 1)
    # face count before the t-th added vertex: (k+1) + t*k
    picks = rng.integers(0, (k + 1) + k * np.arange(grow, dtype=np.int64))
    faces = np.empty(((k + 1) + k * grow, k), dtype=np.int64)
    base = np.arange(k + 1, dtype=np.int64)
    for x in range(k + 1):
        faces[x] = np.delete(base, x)
    ci, cj = np.triu_indices(k + 1, k=1)
    total_edges = len(ci) + grow * k
    edges = np.empty((total_edges, 2), dtype=np.int64)
    edges[: len(ci), 0] = ci
    edges[: len(ci), 1] = cj
    eidx = len(ci)
    fc = k + 1
    diag = np.arange(k)
    for t in range(grow):
        v = k + 1 + t
        face = faces[picks[t]]
        edges[eidx : eidx + k, 0] = v
        edges[eidx : eidx + k, 1] = face
        eidx += k
        new_faces = faces[fc : fc + k]
        new_faces[:] = face  # k copies of the chosen face ...
        new_faces[diag, diag] = v  # ... each with one vertex swapped for v
        fc += k
    return edges


def stream_power_law_edges(n: int, m: int, seed: int, chunk: int = 4096):
    """Edges of a chunked preferential-attachment graph (m-degenerate).

    The endpoint urn is one preallocated int64 array; vertices attach in
    blocks of ``chunk``, sampling the urn as frozen at the block boundary
    (a block-granular approximation of classic preferential attachment —
    targets are always *earlier* vertices, so back-degree <= m certifies
    m-degeneracy exactly).
    """
    if m < 1:
        raise GeneratorError("need m >= 1")
    head = min(n, m + 1)
    if head < 2:
        return _empty_edges()
    rng = np.random.default_rng(seed)
    hi, hj = np.triu_indices(head, k=1)
    max_edges = len(hi) + (n - head) * m
    edges = np.empty((max_edges, 2), dtype=np.int64)
    urn = np.empty(2 * max_edges, dtype=np.int64)
    edges[: len(hi), 0] = hi
    edges[: len(hi), 1] = hj
    urn[: len(hi)] = hi
    urn[len(hi) : 2 * len(hi)] = hj
    eidx, uidx = len(hi), 2 * len(hi)
    start = head
    while start < n:
        stop = min(n, start + chunk)
        block = np.arange(start, stop, dtype=np.int64)
        targets = urn[rng.integers(0, uidx, size=(stop - start, m))].reshape(-1)
        src = np.repeat(block, m)
        count = len(src)
        edges[eidx : eidx + count, 0] = src
        edges[eidx : eidx + count, 1] = targets
        urn[uidx : uidx + count] = src
        urn[uidx + count : uidx + 2 * count] = targets
        eidx += count
        uidx += 2 * count
        start = stop
    return edges[:eidx]


def stream_torus_edges(rows: int, cols: int, shuffle_seed: int | None = None):
    """Edges of the 6-regular toroidal triangular grid on ``rows * cols``.

    Same surface as :func:`repro.graphs.generators.surfaces.
    toroidal_triangular_grid` but with integer labels and fully vectorized
    index arithmetic.  ``shuffle_seed`` applies a random vertex relabeling:
    with identity identifiers feeding the LOCAL round engines, sequential
    row-major labels would create Theta(rows + cols)-long decreasing-id
    chains, while shuffled labels keep greedy local-maxima rounds
    logarithmic.
    """
    if rows < 3 or cols < 3:
        raise GeneratorError("need rows >= 3 and cols >= 3")
    n = rows * cols
    v = np.arange(n, dtype=np.int64)
    i, j = v // cols, v % cols
    right = i * cols + (j + 1) % cols
    down = ((i + 1) % rows) * cols + j
    diag = ((i + 1) % rows) * cols + (j + 1) % cols
    edges = np.concatenate(
        [_pairs(v, right), _pairs(v, down), _pairs(v, diag)], axis=0
    )
    if shuffle_seed is not None:
        perm = np.random.default_rng(shuffle_seed).permutation(n).astype(np.int64)
        edges = perm[edges]
    return edges


# ---------------------------------------------------------------------------
# frozen-graph builders (the corpus family entry points)
# ---------------------------------------------------------------------------

def stream_degenerate_graph(n: int, degeneracy: int, seed: int) -> FrozenGraph:
    """Random k-degenerate graph as an identity-labelled :class:`FrozenGraph`."""
    return FrozenGraph.from_edge_array(
        n,
        stream_degenerate_edges(n, degeneracy, seed),
        name=f"stream_degenerate_{n}_{degeneracy}",
        metadata={
            "degeneracy_upper_bound": degeneracy,
            "mad_upper_bound": 2 * degeneracy,
            "streaming": True,
        },
    )


def stream_forest_union(n: int, arboricity: int, seed: int) -> FrozenGraph:
    """Union of random spanning forests as a :class:`FrozenGraph`."""
    return FrozenGraph.from_edge_array(
        n,
        stream_forest_union_edges(n, arboricity, seed),
        name=f"stream_forest_union_{n}_{arboricity}",
        metadata={
            "arboricity_upper_bound": arboricity,
            "mad_upper_bound": 2 * arboricity,
            "streaming": True,
        },
    )


def stream_k_tree(n: int, k: int, seed: int) -> FrozenGraph:
    """Random k-tree as a :class:`FrozenGraph` (clique witness ``0..k``)."""
    graph = FrozenGraph.from_edge_array(
        n,
        stream_k_tree_edges(n, k, seed),
        name=f"stream_k_tree_{n}_{k}",
        metadata={
            "treewidth": k,
            "degeneracy_upper_bound": k,
            "streaming": True,
        },
    )
    if n >= k + 1:
        graph.metadata["clique_witness"] = tuple(range(k + 1))
    return graph


def stream_power_law(n: int, m: int, seed: int) -> FrozenGraph:
    """Chunked preferential-attachment graph as a :class:`FrozenGraph`."""
    return FrozenGraph.from_edge_array(
        n,
        stream_power_law_edges(n, m, seed),
        name=f"stream_power_law_{n}_{m}",
        metadata={
            "degeneracy_upper_bound": m,
            "mad_upper_bound": 2 * m,
            "streaming": True,
        },
    )


def stream_torus(rows: int, cols: int, shuffle_seed: int = 0) -> FrozenGraph:
    """Shuffled 6-regular toroidal triangular grid as a :class:`FrozenGraph`."""
    return FrozenGraph.from_edge_array(
        rows * cols,
        stream_torus_edges(rows, cols, shuffle_seed=shuffle_seed),
        name=f"stream_torus_{rows}x{cols}",
        metadata={
            "surface": "torus",
            "euler_genus": 2,
            "max_degree": 6,
            "degeneracy_upper_bound": 6,
            "streaming": True,
        },
    )


#: builder registry mirrored by the corpus family matrix
STREAMING_BUILDERS: dict[str, Any] = {
    "stream-degenerate": stream_degenerate_graph,
    "stream-forest": stream_forest_union,
    "stream-k-tree": stream_k_tree,
    "stream-power-law": stream_power_law,
    "stream-torus": stream_torus,
}
