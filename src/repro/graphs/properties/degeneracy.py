"""Degeneracy, cores and degeneracy orderings.

A graph is *k-degenerate* if every subgraph has a vertex of degree at most
``k``.  The degeneracy is computed by the classical linear-time peeling
algorithm (repeatedly remove a vertex of minimum degree); the removal order
(reversed) is a *degeneracy ordering*, along which a greedy coloring uses at
most ``degeneracy + 1`` colors.  The paper's baseline bound
``ch(G) <= floor(mad(G)) + 1`` is exactly greedy coloring along such an
ordering.

All entry points accept either a mutable :class:`Graph` or a
:class:`~repro.graphs.frozen.FrozenGraph`.  Both are routed through the CSR
bucket peel of :meth:`FrozenGraph._peel` (O(n + m), no hashing, cached on
frozen inputs), so the two representations produce *identical* orderings;
the pre-CSR dict-of-sets implementation is kept as
:func:`_degeneracy_ordering_sets` as the benchmark baseline.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.graphs.frozen import FrozenGraph, GraphLike
from repro.graphs.graph import Graph, Vertex

__all__ = ["degeneracy", "degeneracy_ordering", "core_numbers", "k_core"]


def degeneracy_ordering(graph: GraphLike) -> tuple[int, list[Vertex]]:
    """Return ``(degeneracy, ordering)``.

    The ordering lists vertices in the order in which the peeling algorithm
    removes them; every vertex has at most ``degeneracy`` neighbours *after*
    it in the ordering.
    """
    frozen = FrozenGraph.from_graph(graph)
    return frozen.degeneracy_ordering()


def degeneracy(graph: GraphLike) -> int:
    """The degeneracy of ``graph`` (0 for the empty graph)."""
    return degeneracy_ordering(graph)[0]


def core_numbers(graph: GraphLike) -> dict[Vertex, int]:
    """Core number of every vertex (the largest k such that v is in the k-core)."""
    return FrozenGraph.from_graph(graph).core_numbers()


def k_core(graph: GraphLike, k: int) -> GraphLike:
    """The maximal subgraph in which every vertex has degree at least ``k``.

    The result has the same representation as the input (frozen in, frozen
    out).
    """
    cores = core_numbers(graph)
    return graph.subgraph([v for v, c in cores.items() if c >= k])


def greedy_color_along(
    graph: GraphLike, ordering: Sequence[Vertex]
) -> dict[Vertex, int]:
    """Greedy coloring along ``ordering`` *reversed* (later vertices first).

    Along the reverse of a degeneracy ordering every vertex sees at most
    ``degeneracy`` already-colored neighbours, so at most
    ``degeneracy + 1`` colors are used.
    """
    colors: dict[Vertex, int] = {}
    for v in reversed(list(ordering)):
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in used:
            color += 1
        colors[v] = color
    return colors


def _degeneracy_ordering_sets(graph: Graph) -> tuple[int, list[Vertex]]:
    """Pre-CSR heap-on-dict-of-sets peeling, kept as the benchmark baseline.

    The ``primitives`` scenario times this against the CSR bucket peel to record
    the speedup; it is also a handy independent oracle for parity tests.
    """
    degrees = graph.degrees()
    remaining: dict[Vertex, set[Vertex]] = {
        v: set(graph.neighbors(v)) for v in graph
    }
    current = dict(degrees)
    heap = [(d, repr(v), v) for v, d in degrees.items()]
    heapq.heapify(heap)
    ordering: list[Vertex] = []
    removed: set[Vertex] = set()
    degen = 0
    while heap:
        d, _key, v = heapq.heappop(heap)
        if v in removed or d != current[v]:
            continue  # stale heap entry
        removed.add(v)
        degen = max(degen, current[v])
        ordering.append(v)
        for u in remaining[v]:
            if u in removed:
                continue
            remaining[u].discard(v)
            current[u] -= 1
            heapq.heappush(heap, (current[u], repr(u), u))
        remaining[v] = set()
    return degen, ordering
