"""Corollary 2.1 and Theorem 6.1: Brooks-type list-coloring.

* **Corollary 2.1** — for a graph of maximum degree ``Δ >= 3`` and any
  Δ-list-assignment, either find an L-list-coloring or report that none
  exists (which happens exactly when some connected component is a
  ``K_{Δ+1}`` whose lists make the coloring impossible — in the uniform
  case, whenever a ``K_{Δ+1}`` component exists).  This follows from
  Theorem 1.3 with ``d = Δ`` because ``mad(G) <= Δ`` always holds.

* **Theorem 6.1** — *nice* list-assignments: every vertex ``v`` has
  ``|L(v)| >= d(v)``, except that vertices with ``d(v) <= 2`` or whose
  neighbourhood is a clique must have ``|L(v)| >= d(v) + 1``.  The same
  peeling/extension machinery applies with per-vertex budgets: every vertex
  is rich, and the slack witnesses are the vertices whose list is strictly
  larger than their current degree.

Both freeze their input once and run the same CSR peel-and-extend loop as
:func:`~repro.core.sparse_coloring.color_sparse_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coloring.assignment import Color, ListAssignment, uniform_lists
from repro.coloring.verification import verify_list_coloring
from repro.errors import ColoringError, ListAssignmentError
from repro.graphs.frozen import FrozenGraph, GraphLike, freeze
from repro.graphs.graph import Graph, Vertex
from repro.graphs.properties.cliques import is_clique
from repro.local.ledger import RoundLedger
from repro.core.sparse_coloring import (
    SparseColoringResult,
    _peel_and_extend,
    color_sparse_graph,
)

__all__ = [
    "brooks_list_coloring",
    "nice_list_coloring",
    "is_nice_list_assignment",
    "NiceListColoringResult",
]


def brooks_list_coloring(
    graph: Graph,
    max_degree: int | None = None,
    lists: ListAssignment | None = None,
    radius: int | None = None,
    verify: bool = True,
) -> SparseColoringResult:
    """Corollary 2.1: Δ-list-coloring of graphs of maximum degree Δ >= 3.

    Returns a :class:`SparseColoringResult`; when a ``K_{Δ+1}`` is present
    the result carries the clique instead of a coloring (with uniform lists
    this means no Δ-coloring exists; with general lists a coloring might
    still exist for that particular assignment, which the caller can check
    with the exact solver).
    """
    delta = graph.max_degree() if max_degree is None else max_degree
    if delta < 3:
        raise ValueError("Corollary 2.1 requires maximum degree at least 3")
    return color_sparse_graph(
        graph, d=delta, lists=lists, radius=radius, verify=verify, clique_check=True
    )


def is_nice_list_assignment(graph: Graph, lists: ListAssignment) -> bool:
    """Check the "nice" condition of Theorem 6.1.

    Every vertex ``v`` needs ``|L(v)| >= d(v)``; vertices of degree at most
    2 and vertices whose neighbourhood induces a clique need
    ``|L(v)| >= d(v) + 1``.
    """
    for v in graph:
        degree = graph.degree(v)
        needed = degree
        if degree <= 2 or is_clique(graph, graph.neighbors(v)):
            needed = degree + 1
        if len(lists.get(v)) < needed:
            return False
    return True


@dataclass
class NiceListColoringResult:
    """Outcome of the Theorem 6.1 algorithm."""

    coloring: dict[Vertex, Color]
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)


def nice_list_coloring(
    graph: GraphLike,
    lists: ListAssignment,
    radius: int | None = None,
    verify: bool = True,
    check_nice: bool = True,
) -> NiceListColoringResult:
    """Theorem 6.1: L-list-color a graph with a nice list-assignment.

    Runs the peeling/extension machinery with per-vertex budgets: all
    vertices are rich, the slack witnesses of an iteration are the vertices
    whose list is strictly larger than their degree in the current graph,
    and the stable partition uses ``Δ + 1`` classes.
    """
    graph = freeze(graph)
    if check_nice and not is_nice_list_assignment(graph, lists):
        raise ListAssignmentError(
            "the list assignment is not nice (Theorem 6.1's hypothesis)"
        )
    ledger = RoundLedger()
    if graph.number_of_vertices() == 0:
        return NiceListColoringResult({}, 0, ledger)
    delta = max(3, graph.max_degree())

    def slack_fn(current: FrozenGraph) -> set[Vertex]:
        return {v for v in current if len(lists[v]) > current.degree(v)}

    def rich_fn(current: FrozenGraph) -> set[Vertex]:
        return set(current.vertices())

    _peeling, coloring, _reports = _peel_and_extend(
        graph, lists, delta, radius, ledger, slack_fn=slack_fn, rich_fn=rich_fn
    )

    if verify:
        try:
            verify_list_coloring(graph, coloring, lists)
        except ColoringError as exc:
            raise ColoringError(
                f"Theorem 6.1 produced an invalid coloring: {exc}"
            ) from exc
    return NiceListColoringResult(
        coloring=coloring, rounds=ledger.total(), ledger=ledger
    )
