"""Exact (exponential-time) coloring solvers.

Two uses in the reproduction:

* the lower-bound experiments (Theorems 1.5, 2.5, 2.6) need exact chromatic
  numbers of small obstruction graphs (Klein-bottle grids, cycle powers);
* the constructive Borodin–ERT solver falls back to exhaustive list-coloring
  search in a rare residual case (2-connected block with tight, pairwise
  disjoint lists on every admissible vertex triple); Theorem 1.1 guarantees
  a solution exists, so the search always terminates with an answer.

Both solvers are branch-and-bound backtrackers with forward checking
(smallest-remaining-list-first variable order), which is plenty for graphs
with a few hundred vertices and small lists.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.coloring.assignment import Color, ListAssignment, uniform_lists
from repro.graphs.graph import Graph, Vertex

__all__ = [
    "list_coloring_search",
    "chromatic_number",
    "is_k_colorable",
]


def list_coloring_search(
    graph: Graph,
    lists: ListAssignment,
    partial: Mapping[Vertex, Color] | None = None,
    node_limit: int | None = None,
) -> dict[Vertex, Color] | None:
    """Find a proper list-coloring by backtracking, or ``None`` if none exists.

    Parameters
    ----------
    graph, lists:
        The instance.  Every vertex must have a list.
    partial:
        Optional pre-colored vertices (kept fixed).
    node_limit:
        Optional cap on the number of search nodes; ``None`` searches
        exhaustively.  When the cap is hit the function returns ``None``
        even though a coloring may exist — callers that rely on existence
        guarantees should leave it unset.
    """
    coloring: dict[Vertex, Color] = dict(partial or {})
    domains: dict[Vertex, set[Color]] = {}
    for v in graph:
        if v in coloring:
            continue
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        domains[v] = set(lists[v]) - used
        if not domains[v]:
            return None
    nodes_visited = 0

    def select() -> Vertex | None:
        best, best_size = None, None
        for v, dom in domains.items():
            if v in coloring:
                continue
            if best_size is None or len(dom) < best_size:
                best, best_size = v, len(dom)
                if best_size <= 1:
                    break
        return best

    def backtrack() -> bool:
        nonlocal nodes_visited
        nodes_visited += 1
        if node_limit is not None and nodes_visited > node_limit:
            return False
        v = select()
        if v is None:
            return True
        # order colors deterministically for reproducibility
        for color in sorted(domains[v], key=repr):
            coloring[v] = color
            removed: list[Vertex] = []
            feasible = True
            for u in graph.neighbors(v):
                if u in coloring or u not in domains:
                    continue
                if color in domains[u]:
                    domains[u].discard(color)
                    removed.append(u)
                    if not domains[u]:
                        feasible = False
            if feasible and backtrack():
                return True
            del coloring[v]
            for u in removed:
                domains[u].add(color)
        return False

    if backtrack():
        return coloring
    return None


def is_k_colorable(graph: Graph, k: int) -> bool:
    """Whether ``graph`` admits a proper coloring with ``k`` colors."""
    if k <= 0:
        return graph.number_of_vertices() == 0
    return list_coloring_search(graph, uniform_lists(graph, k)) is not None


def chromatic_number(graph: Graph, upper_bound: int | None = None) -> int:
    """The exact chromatic number (exponential time; use on small graphs).

    ``upper_bound`` short-circuits the search: the function never tests more
    than that many colors and raises if the bound is exceeded.
    """
    n = graph.number_of_vertices()
    if n == 0:
        return 0
    if graph.number_of_edges() == 0:
        return 1
    limit = upper_bound if upper_bound is not None else graph.max_degree() + 1
    for k in range(2, limit + 1):
        if is_k_colorable(graph, k):
            return k
    if upper_bound is not None:
        raise ValueError(
            f"chromatic number exceeds the supplied upper bound {upper_bound}"
        )
    return limit

