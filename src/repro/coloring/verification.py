"""Verification of (list-)colorings.

Every algorithm in the library is checked against these predicates in the
test suite and at the end of each benchmark run: a coloring is accepted only
if it is *complete* (every vertex colored), *proper* (no monochromatic
edge) and, in the list setting, *respects the lists*.

On a :class:`~repro.graphs.frozen.FrozenGraph` the properness check runs
as one vectorized gather-compare over the CSR arrays (the per-edge loop is
kept for mutable graphs and for producing the exact offending edge in the
error message), and the list check reads the interned bitmasks of the
flat palette backend instead of materializing ``frozenset`` values.

A batched engine result (a :class:`~repro.local.simulator.LazyOutputs`
view) aligned with the graph's CSR is read as its ``int64`` color array:
completeness is one length test, properness the same gather-compare
without the interning loop, and :func:`number_of_colors` one
``np.unique``.  The oracles of :mod:`repro.verify.coloring` call these
predicates, so the gather-compare has this one copy.
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


def _aligned_colors(graph, coloring) -> np.ndarray | None:
    """The ``int64`` colors of a batched result aligned with ``graph``'s CSR.

    A result view whose ``graph`` *is* this ``graph`` object was built in
    its default node order, so its :attr:`colors` array holds one color per
    CSR vertex at that vertex's index; the checks below then read the array
    instead of the mapping.  ``None`` for anything else — dicts, list-valued
    views (``colors`` is ``None``), and views built on another graph object
    or in another order (whose positions are not this CSR's).
    """
    if getattr(coloring, "graph", None) is graph:
        return coloring.colors
    return None


def is_complete(graph: Graph, coloring: Mapping[Vertex, Color]) -> bool:
    """Whether every vertex of ``graph`` has a color."""
    colors = _aligned_colors(graph, coloring)
    if colors is not None:
        return len(colors) == len(graph)
    return all(v in coloring for v in graph)


def _color_codes(graph, coloring) -> np.ndarray | None:
    """Per-CSR-index color codes, or ``None`` when the fast path is off.

    An aligned view's colors are the codes as they stand.  Otherwise the
    colors are interned to dense codes (uncolored vertices get a sentinel
    that never matches); below ``_VECTORIZE_MIN_VERTICES`` that loop costs
    more than the per-edge scan it replaces.
    """
    colors = _aligned_colors(graph, coloring)
    if colors is not None:
        return colors
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
    return arr


def _proper_fast(graph, coloring) -> bool | None:
    """The properness kernel, one gather-compare over the CSR; ``None`` when off.

    Codes that all fit ``int16`` are compared as ``int16``, a quarter of
    the memory traffic; one code outside it (a color above 32,767, or the
    sentinel of an uncolored vertex past index 32,767) keeps them
    ``int64``.
    """
    codes = _color_codes(graph, coloring)
    if codes is None:
        return None
    narrow = np.iinfo(np.int16)
    if codes.size and narrow.min <= codes.min() and codes.max() <= narrow.max:
        codes = codes.astype(np.int16)
    offsets, neighbors = graph.csr_arrays()
    return not bool((np.repeat(codes, np.diff(offsets)) == codes[neighbors]).any())


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
    return _listed_count(coloring, lists) is not None


def _listed_count(
    coloring: Mapping[Vertex, Color], lists: ListAssignment
) -> int | None:
    """How many colored vertices have a list, or ``None`` at the first
    vertex whose color is outside its list.

    Only the skipped vertices (colored, with no list) are counted, so the
    accepting loop does no extra work per listed vertex.
    """
    skipped = 0
    flat = _flat_of(lists)
    if flat is not None:
        get_index = flat.universe.get_index
        mask_of = flat.mask_of
        for v, color in coloring.items():
            if v not in flat:
                skipped += 1
                continue
            i = get_index(color)
            if i < 0 or not mask_of(v) >> i & 1:
                return None
    else:
        for v, color in coloring.items():
            if v not in lists:
                skipped += 1
            elif color not in lists.get(v):
                return None
    return len(coloring) - skipped


def _flat_of(lists) -> FlatListAssignment | None:
    if isinstance(lists, FlatListAssignment):
        return lists
    return getattr(lists, "flat", None)


def number_of_colors(coloring: Mapping[Vertex, Color]) -> int:
    """The number of distinct colors used."""
    colors = getattr(coloring, "colors", None)
    if colors is not None:
        return int(np.unique(colors).size)
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
    if respects_lists(coloring, lists):
        return  # the scan below only runs to name the offending vertex
    for v, color in coloring.items():
        if v in lists and color not in lists[v]:
            raise ColoringError(
                f"vertex {v!r} uses color {color!r} outside its list {sorted(map(repr, lists[v]))}"
            )
