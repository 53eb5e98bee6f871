"""Corollary 1.4: 2a-list-coloring of graphs of arboricity ``a >= 2``.

A graph of arboricity ``a`` has at most ``a (n - 1)`` edges in every
subgraph, hence maximum average degree at most ``2a``, and it cannot
contain a clique on ``2a + 1`` vertices (such a clique would have
arboricity ``ceil((2a+1)/2) = a + 1 > a``).  Theorem 1.3 with ``d = 2a``
therefore colors it from lists of size ``2a`` in ``O(a^4 log^3 n)`` rounds.
This improves the ``floor((2+eps) a) + 1``-color bound of Barenboim–Elkin
by at least one color.

The ``a = 1`` case (forests) is excluded: Linial's lower bound shows that
2-coloring a path takes ``Omega(n)`` rounds, so no polylogarithmic
algorithm can achieve ``2a`` colors there.
"""

from __future__ import annotations

from repro.coloring.assignment import ListAssignment
from repro.graphs.graph import Graph
from repro.core.sparse_coloring import SparseColoringResult, color_sparse_graph

__all__ = ["color_bounded_arboricity_graph"]


def color_bounded_arboricity_graph(
    graph: Graph,
    arboricity: int,
    lists: ListAssignment | None = None,
    radius: int | None = None,
    verify: bool = True,
) -> SparseColoringResult:
    """Color a graph of arboricity ``a >= 2`` with ``2a`` (listed) colors.

    Parameters mirror :func:`repro.core.sparse_coloring.color_sparse_graph`;
    the color budget is ``d = 2 * arboricity``.  The clique check is kept
    on so that a violated promise (a graph of larger arboricity containing
    ``K_{2a+1}``) is reported as a clique rather than as a failure deep in
    the extension.
    """
    if arboricity < 2:
        raise ValueError(
            "Corollary 1.4 requires arboricity >= 2 "
            "(trees cannot be 2-colored in o(n) rounds; see Linial's bound)"
        )
    return color_sparse_graph(
        graph,
        d=2 * arboricity,
        lists=lists,
        radius=radius,
        verify=verify,
        clique_check=True,
    )
