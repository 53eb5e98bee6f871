"""Planarity testing and genus-related bounds.

Planarity testing delegates to networkx's Boyer–Myrvold style
``check_planarity``.  The module also exposes the density bounds that the
paper uses:

* Proposition 2.2: an n-vertex planar graph of girth at least ``g`` has
  ``mad < 2g / (g - 2)`` (so planar < 6, triangle-free planar < 4,
  girth >= 6 planar < 3);
* Heawood-type bound: a graph of Euler genus ``g >= 1`` has
  ``mad <= (5 + sqrt(24 g + 1)) / 2`` and hence choice number at most
  ``H(g) = floor((7 + sqrt(24 g + 1)) / 2)`` (Corollary 2.11).
"""

from __future__ import annotations

import math

import networkx as nx

from repro.graphs.graph import Graph

__all__ = [
    "is_planar",
    "mad_bound_from_girth",
    "heawood_mad_bound",
    "heawood_colors",
]


def is_planar(graph: Graph) -> bool:
    """Whether ``graph`` is planar (Boyer–Myrvold via networkx)."""
    ok, _ = nx.check_planarity(graph.to_networkx(), counterexample=False)
    return ok


def mad_bound_from_girth(girth: float) -> float:
    """Proposition 2.2: planar graphs of girth >= ``girth`` have mad < 2g/(g-2).

    For forests (infinite girth) the bound degenerates to 2.
    """
    if math.isinf(girth):
        return 2.0
    if girth <= 2:
        raise ValueError("girth must be at least 3")
    return 2.0 * girth / (girth - 2.0)


def heawood_mad_bound(euler_genus: int) -> float:
    """Heawood bound: graphs of Euler genus ``g >= 1`` have mad <= (5+sqrt(24g+1))/2."""
    if euler_genus < 1:
        raise ValueError("Euler genus must be at least 1 (use 6 for planar graphs)")
    return (5.0 + math.sqrt(24.0 * euler_genus + 1.0)) / 2.0


def heawood_colors(euler_genus: int) -> int:
    """``H(g) = floor((7 + sqrt(24 g + 1)) / 2)`` — the Heawood number."""
    if euler_genus < 0:
        raise ValueError("Euler genus must be non-negative")
    if euler_genus == 0:
        return 4  # the four colour theorem (not used algorithmically here)
    return int(math.floor((7.0 + math.sqrt(24.0 * euler_genus + 1.0)) / 2.0))

