"""Verification of (list-)colorings.

Every algorithm in the library is checked against these predicates in the
test suite and at the end of each benchmark run: a coloring is accepted only
if it is *complete* (every vertex colored), *proper* (no monochromatic
edge) and, in the list setting, *respects the lists*.

On a :class:`~repro.graphs.frozen.FrozenGraph` the properness check runs
as one vectorized comparison over the CSR arrays (the per-edge loop is
kept for mutable graphs and for producing the exact offending edge in the
error message), and the list check reads the interned bitmasks of the
flat palette backend instead of materializing ``frozenset`` values.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.coloring.assignment import Color, ListAssignment
from repro.coloring.palette import FlatListAssignment
from repro.errors import ColoringError
from repro.graphs.frozen import FrozenGraph
from repro.graphs.graph import Graph, Vertex

__all__ = [
    "is_proper_coloring",
    "respects_lists",
    "is_complete",
    "verify_coloring",
    "verify_list_coloring",
    "number_of_colors",
]

#: below this size the vectorized properness check costs more than it saves
_VECTORIZE_MIN_VERTICES = 128


def is_complete(graph: Graph, coloring: Mapping[Vertex, Color]) -> bool:
    """Whether every vertex of ``graph`` has a color."""
    return all(v in coloring for v in graph)


def _proper_fast(graph, coloring) -> bool | None:
    """Vectorized properness check; ``None`` when the fast path is off.

    Colors are interned to dense codes (uncolored vertices get a sentinel
    that never matches), and the edge test is one gather-and-compare over
    the CSR arrays.
    """
    if not isinstance(graph, FrozenGraph) or len(graph) < _VECTORIZE_MIN_VERTICES:
        return None
    labels = graph.vertices()
    codes: dict[Color, int] = {}
    arr = np.empty(len(labels), dtype=np.int64)
    get = coloring.get
    for i, v in enumerate(labels):
        color = get(v)
        if color is None and v not in coloring:
            arr[i] = -1 - i  # unique sentinel: uncolored never conflicts
            continue
        code = codes.get(color)
        if code is None:
            code = len(codes)
            codes[color] = code
        arr[i] = code
    offsets, neighbors = graph.csr_arrays()
    degrees = np.diff(offsets)
    src = np.repeat(np.arange(len(labels), dtype=np.int64), degrees)
    return not bool((arr[src] == arr[neighbors]).any())


def is_proper_coloring(graph: Graph, coloring: Mapping[Vertex, Color]) -> bool:
    """Whether no edge of ``graph`` is monochromatic (uncolored vertices ignored)."""
    fast = _proper_fast(graph, coloring)
    if fast is not None:
        return fast
    for u, v in graph.edges():
        if u in coloring and v in coloring and coloring[u] == coloring[v]:
            return False
    return True


def respects_lists(
    coloring: Mapping[Vertex, Color], lists: ListAssignment
) -> bool:
    """Whether every colored vertex uses a color from its own list."""
    flat = _flat_of(lists)
    if flat is not None:
        get_index = flat.universe.get_index
        mask_of = flat.mask_of
        for v, color in coloring.items():
            if v not in flat:
                continue
            i = get_index(color)
            if i < 0 or not mask_of(v) >> i & 1:
                return False
        return True
    return all(color in lists.get(v) for v, color in coloring.items() if v in lists)


def _flat_of(lists) -> FlatListAssignment | None:
    if isinstance(lists, FlatListAssignment):
        return lists
    return getattr(lists, "flat", None)


def number_of_colors(coloring: Mapping[Vertex, Color]) -> int:
    """The number of distinct colors used."""
    return len(set(coloring.values()))


def verify_coloring(graph: Graph, coloring: Mapping[Vertex, Color]) -> None:
    """Raise :class:`ColoringError` unless ``coloring`` is complete and proper."""
    if not is_complete(graph, coloring):
        missing = [v for v in graph if v not in coloring][:5]
        raise ColoringError(f"coloring is incomplete; e.g. missing {missing!r}")
    if _proper_fast(graph, coloring):
        return  # the scan below only runs to name the offending edge
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            raise ColoringError(
                f"edge ({u!r}, {v!r}) is monochromatic with color {coloring[u]!r}"
            )


def verify_list_coloring(
    graph: Graph, coloring: Mapping[Vertex, Color], lists: ListAssignment
) -> None:
    """Raise unless the coloring is complete, proper, and within the lists."""
    verify_coloring(graph, coloring)
    flat = _flat_of(lists)
    if flat is not None:
        get_index = flat.universe.get_index
        mask_of = flat.mask_of
        for v, color in coloring.items():
            if v not in flat:
                continue
            i = get_index(color)
            if i >= 0 and mask_of(v) >> i & 1:
                continue
            raise ColoringError(
                f"vertex {v!r} uses color {color!r} outside its list "
                f"{sorted(map(repr, lists[v]))}"
            )
        return
    for v, color in coloring.items():
        if v in lists and color not in lists[v]:
            raise ColoringError(
                f"vertex {v!r} uses color {color!r} outside its list {sorted(map(repr, lists[v]))}"
            )
