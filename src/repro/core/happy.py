"""Rich, poor, happy and sad vertices (Section 3 of the paper).

Fix an integer ``d >= max(3, mad(G))`` and give every vertex a list of ``d``
colors.  The paper classifies the vertices of ``G`` as follows:

* a vertex is **rich** if its degree is at most ``d`` and **poor**
  otherwise (there are at most ``d n / (d+1)`` poor vertices);
* the **rich ball** of a rich vertex ``v`` is ``B_R(v)``, the ball of
  radius ``c log n`` around ``v`` *inside the subgraph induced by the rich
  vertices* (``c = 12 / log(6/5)``);
* a rich vertex is **happy** if its rich ball contains a vertex of degree
  at most ``d - 1`` (in ``G``) or induces a graph that is not a Gallai
  tree; the set of happy vertices is called ``A``;
* the remaining rich vertices are **sad** (set ``S``).

Lemma 3.1 shows ``|A| >= n / (3d)^3`` (and ``|A| >= n / (12 d + 1)`` when
there are no poor vertices), which drives the peeling of
:mod:`repro.core.peeling`.

Happiness is monotone in the radius (an induced subgraph of a Gallai tree
is a Gallai forest, and containing a low-degree vertex only gets easier),
so computing balls with a radius larger than the paper's constant never
hurts correctness; the classifier exploits this with a whole-component
shortcut for components that are certified sad.

:func:`classify_vertices` freezes its input and runs on the CSR arrays of
the rich subgraph.  The per-vertex ball walk it replaced is kept in the
test suite as the reference it is compared with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.graphs.frozen import GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.graphs.properties.gallai import is_gallai_forest

__all__ = [
    "paper_radius_constant",
    "default_rich_ball_radius",
    "VertexClassification",
    "classify_vertices",
]


def paper_radius_constant() -> float:
    """The constant ``c = 12 / log2(6/5)`` of Section 3."""
    return 12.0 / math.log2(6.0 / 5.0)


def default_rich_ball_radius(n: int) -> int:
    """The paper's rich-ball radius ``ceil(c log2 n)`` (at least 1)."""
    if n <= 1:
        return 1
    return max(1, math.ceil(paper_radius_constant() * math.log2(n)))


@dataclass
class VertexClassification:
    """The outcome of the rich/poor/happy/sad classification.

    Attributes
    ----------
    happy:
        The set ``A`` of happy vertices.
    sad:
        The set ``S`` of sad (rich but not happy) vertices.
    poor:
        The set ``P`` of vertices of degree greater than ``d``.
    rich:
        ``A ∪ S``.
    radius:
        The rich-ball radius used.
    ball_rounds:
        Rounds a LOCAL algorithm charges to perform the classification
        (collecting a ball of the given radius plus one round to learn
        neighbours' degrees).
    """

    happy: set[Vertex] = field(default_factory=set)
    sad: set[Vertex] = field(default_factory=set)
    poor: set[Vertex] = field(default_factory=set)
    radius: int = 0

    @property
    def rich(self) -> set[Vertex]:
        return self.happy | self.sad

    @property
    def ball_rounds(self) -> int:
        return self.radius + 1


def classify_vertices(
    graph: GraphLike,
    d: int,
    radius: int | None = None,
    slack_vertices: set[Vertex] | None = None,
    rich_vertices: set[Vertex] | None = None,
) -> VertexClassification:
    """Classify the vertices of ``graph`` for the parameter ``d``.

    A rich vertex whose rich ball contains a slack witness is exactly a
    vertex at distance at most ``radius`` from the slack set *inside the
    rich subgraph*, so one depth-limited multi-source BFS over the CSR
    arrays settles all of them at once.  The vertices it leaves (no slack
    witness in reach) take the exact Gallai test: a whole component
    without any witness is sad when it is a Gallai forest, and each other
    leftover vertex gets its own ball's Gallai check.

    Parameters
    ----------
    graph:
        The input graph (the *current* graph of the peeling iteration),
        frozen on entry.
    d:
        The color budget (Theorem 1.3's ``d``).
    radius:
        Rich-ball radius; defaults to the paper's ``ceil(c log2 n)``.
    slack_vertices:
        Overrides the set of "degree at most d-1" witnesses.  Theorem 6.1
        (nice list-assignments) passes the set of vertices whose list is
        strictly larger than their degree.
    rich_vertices:
        Overrides the rich set.  Theorem 6.1 passes all vertices.

    Returns
    -------
    VertexClassification
    """
    graph = freeze(graph)
    n = graph.number_of_vertices()
    if radius is None:
        radius = default_rich_ball_radius(n)
    degrees = graph.degrees()
    if rich_vertices is None:
        rich_vertices = {v for v, deg in degrees.items() if deg <= d}
    if slack_vertices is None:
        slack_vertices = {v for v, deg in degrees.items() if deg <= d - 1}
    poor = set(graph.vertices()) - rich_vertices

    classification = VertexClassification(poor=poor, radius=radius)
    rich_graph = graph.subgraph(rich_vertices)
    labels = rich_graph.vertices()
    index_of = rich_graph._index
    sources = sorted(
        index_of[v] for v in slack_vertices if v in index_of
    )
    reached = bytearray(len(labels))
    for frontier in rich_graph.multi_source_levels(sources, radius):
        for i in frontier:
            reached[i] = 1
    happy = classification.happy
    sad = classification.sad
    pending: set[Vertex] = set()
    for i, v in enumerate(labels):
        (happy if reached[i] else pending).add(v)
    if not pending:
        return classification
    for component in rich_graph.connected_components():
        leftover = component & pending
        if not leftover:
            continue
        component_graph = rich_graph.subgraph(component)
        has_slack = bool(component & slack_vertices)
        component_is_gallai: bool | None = None
        if not has_slack:
            component_is_gallai = is_gallai_forest(component_graph)
            if component_is_gallai:
                # certified-sad shortcut: every ball is an induced connected
                # subgraph of a Gallai tree with no slack vertex
                sad |= component
                continue
        component_size = len(component)
        for v in leftover:
            ball = component_graph.ball(v, radius)
            if len(ball) == component_size:
                gallai = component_is_gallai
                if gallai is None:
                    component_is_gallai = gallai = is_gallai_forest(component_graph)
            else:
                gallai = is_gallai_forest(component_graph.subgraph(ball))
            if not gallai:
                happy.add(v)
            else:
                sad.add(v)
    return classification
