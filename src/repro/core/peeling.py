"""Iterative peeling of happy-vertex sets (proof of Theorem 1.3, first half).

The driver of Theorem 1.3 repeatedly computes the happy set ``A_i`` of the
current graph ``G_i`` and removes it, producing ``G_{i+1} = G_i - A_i``.
Lemma 3.1 guarantees ``|A_i| >= |V(G_i)| / (3d)^3`` (and
``>= |V(G_i)| / (12d+1)`` when ``G_i`` has no poor vertex), so the number
of layers is ``O(d^3 log n)`` (respectively ``O(d log n)``); each layer
costs ``O(log n)`` rounds (one rich-ball collection).

At the small graph sizes a Python simulation can handle, the paper's
rich-ball radius ``c log2 n`` usually exceeds the diameter, which makes
*more* vertices happy than the worst-case analysis needs (happiness is
monotone in the radius).  When the caller requests a smaller radius (to
observe the locality/progress trade-off), the peeling may stall — no vertex
is happy at that radius even though the graph is non-empty.  In that case
the radius is doubled and the extra rounds are charged, which preserves
both correctness and a polylogarithmic total.

The input is frozen once, and each ``G_{i+1}`` is the induced CSR subgraph
of ``G_i`` on the vertices left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ColoringError
from repro.graphs.frozen import GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local.ledger import RoundLedger
from repro.core.happy import VertexClassification, classify_vertices, default_rich_ball_radius

__all__ = ["PeelingLayer", "PeelingResult", "peel_happy_layers"]


@dataclass
class PeelingLayer:
    """One peeling iteration: the classification of ``G_i`` and the removed set."""

    index: int
    classification: VertexClassification
    removed: set[Vertex]
    graph_size: int
    radius_used: int


@dataclass
class PeelingResult:
    """All peeling layers plus round accounting."""

    layers: list[PeelingLayer] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def number_of_layers(self) -> int:
        return len(self.layers)

    def happy_fractions(self) -> list[float]:
        """``|A_i| / |V(G_i)|`` for every layer (the Lemma 3.1 quantity)."""
        return [
            len(layer.removed) / layer.graph_size
            for layer in self.layers
            if layer.graph_size
        ]


def peel_happy_layers(
    graph: GraphLike,
    d: int,
    radius: int | None = None,
    slack_fn=None,
    rich_fn=None,
    max_layers: int | None = None,
) -> PeelingResult:
    """Peel happy sets until the graph is empty.

    Parameters
    ----------
    graph, d:
        The instance (``d >= max(3, mad(G))``), frozen on entry.
    radius:
        Initial rich-ball radius (defaults to the paper's constant).  If a
        peeling iteration finds no happy vertex, the radius is doubled and
        the iteration retried (see the module docstring).
    slack_fn, rich_fn:
        Optional callables ``(current_graph) -> set`` overriding the
        low-degree-witness and rich sets (used by Theorem 6.1).
    max_layers:
        Safety cap on the number of layers (defaults to ``4 n``).

    Returns
    -------
    PeelingResult
    """
    working = freeze(graph)
    n = working.number_of_vertices()
    result = PeelingResult()
    if n == 0:
        return result
    base_radius = radius if radius is not None else default_rich_ball_radius(n)
    cap = max_layers if max_layers is not None else 4 * n + 8
    index = 0
    while not working.is_empty():
        index += 1
        if index > cap:
            raise ColoringError(
                "peeling exceeded the layer cap; is d >= mad(G)?"
            )
        current_radius = base_radius
        while True:
            classification = classify_vertices(
                working,
                d,
                radius=current_radius,
                slack_vertices=slack_fn(working) if slack_fn else None,
                rich_vertices=rich_fn(working) if rich_fn else None,
            )
            result.ledger.charge(
                "Lemma 3.1: rich-ball collection",
                classification.ball_rounds,
                reference="happy-vertex detection",
            )
            if classification.happy:
                break
            if current_radius >= max(working.number_of_vertices(), 1):
                raise ColoringError(
                    "no happy vertex exists even with a whole-graph radius; "
                    "the promise d >= mad(G) (and no (d+1)-clique) is violated"
                )
            current_radius = min(
                max(2 * current_radius, 2), max(working.number_of_vertices(), 2)
            )
        layer = PeelingLayer(
            index=index,
            classification=classification,
            removed=set(classification.happy),
            graph_size=working.number_of_vertices(),
            radius_used=current_radius,
        )
        result.layers.append(layer)
        working = working.subgraph(set(working.vertices()) - classification.happy)
    return result
