"""Theorem 1.3: d-list-coloring graphs of maximum average degree at most d.

This is the paper's main result and the top-level entry point of the
library:

    **Theorem 1.3.**  There is a deterministic distributed algorithm that,
    given an n-vertex graph G and an integer ``d >= max(3, mad(G))``, either
    finds a ``(d+1)``-clique in G or finds a d-list-coloring of G in
    ``O(d^4 log^3 n)`` rounds (``O(d^2 log^3 n)`` if every vertex has degree
    at most d).

The driver composes the two halves proved in Sections 4 and 5:

1. **Peeling** (Lemma 3.1): repeatedly remove the happy set of the current
   graph — ``O(d^3 log n)`` layers, each costing one rich-ball collection.
2. **Extension** (Lemma 3.2): starting from the empty graph, re-insert the
   layers in reverse order, each time extending the current list-coloring
   to the re-inserted happy set with ruling forests, a (d+1) stable
   partition, layered tree coloring, and Theorem 1.1 on the root balls.

Rounds are charged to a :class:`~repro.local.ledger.RoundLedger` with one
entry per phase; the grand total is the algorithm's round complexity, which
the benchmarks compare against ``d^4 log^3 n``.

The input is frozen once, at the boundary, and the whole pipeline runs on
the CSR arrays and the flat palette substrate (interned color bitmasks,
CSR kernels, the batched round engine).  The per-vertex label pipeline it
replaced is kept in the test suite as the reference the parity suites
compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coloring.assignment import Color, ListAssignment, uniform_lists
from repro.coloring.verification import verify_list_coloring
from repro.errors import ColoringError
from repro.graphs.frozen import FrozenGraph, GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.graphs.properties.cliques import find_clique_of_size
from repro.local.ledger import RoundLedger
from repro.core.extension import ExtensionReport, extend_coloring_to_happy_set
from repro.core.peeling import PeelingResult, peel_happy_layers

__all__ = ["SparseColoringResult", "color_sparse_graph"]


@dataclass
class SparseColoringResult:
    """The outcome of Theorem 1.3 on one input.

    Exactly one of ``coloring`` / ``clique`` is non-``None``: either the
    algorithm produced a d-list-coloring, or it found a ``(d+1)``-clique
    (in which case no d-coloring exists at all and the promise of the
    theorem is the clique itself).
    """

    d: int
    coloring: dict[Vertex, Color] | None
    clique: tuple[Vertex, ...] | None
    rounds: int
    peeling: PeelingResult | None
    extensions: list[ExtensionReport] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def succeeded(self) -> bool:
        return self.coloring is not None

    def colors_used(self) -> int:
        if not self.coloring:
            return 0
        return len(set(self.coloring.values()))


def color_sparse_graph(
    graph: GraphLike,
    d: int,
    lists: ListAssignment | None = None,
    radius: int | None = None,
    verify: bool = True,
    clique_check: bool = True,
    backend: str = "flat",
) -> SparseColoringResult:
    """Run the Theorem 1.3 algorithm.

    Parameters
    ----------
    graph:
        The input graph, frozen on entry.  The promise is
        ``mad(graph) <= d``; it is the
        caller's responsibility (checking it exactly costs a max-flow; see
        :func:`repro.graphs.properties.mad.maximum_average_degree`).
    d:
        The color budget, at least 3.
    lists:
        A d-list-assignment; defaults to the uniform lists ``{1..d}`` (plain
        d-coloring).
    radius:
        Rich-ball radius override (defaults to the paper's ``c log2 n``).
    verify:
        Verify the final coloring (raises on any violation).
    clique_check:
        Search for a ``(d+1)``-clique first, exactly as the theorem's
        statement allows; disable when the caller already knows none exists.
    backend:
        Only ``"flat"``, the one pipeline; any other value raises
        ``ValueError``.

    Returns
    -------
    SparseColoringResult
    """
    if d < 3:
        raise ValueError("Theorem 1.3 requires d >= 3")
    if backend != "flat":
        raise ValueError(f"unknown backend {backend!r}; the only pipeline is 'flat'")
    graph = freeze(graph)
    ledger = RoundLedger()
    if lists is None:
        lists = uniform_lists(graph, d)
    else:
        lists.require_minimum(graph, d)

    if graph.number_of_vertices() == 0:
        return SparseColoringResult(
            d=d, coloring={}, clique=None, rounds=0, peeling=None, ledger=ledger
        )

    if clique_check:
        ledger.charge(
            "clique detection",
            2,
            reference="Theorem 1.3 (a (d+1)-clique is visible within 2 rounds)",
        )
        clique = find_clique_of_size(graph, d + 1)
        if clique is not None:
            return SparseColoringResult(
                d=d,
                coloring=None,
                clique=clique,
                rounds=ledger.total(),
                peeling=None,
                ledger=ledger,
            )

    peeling, coloring, extensions = _peel_and_extend(graph, lists, d, radius, ledger)

    if verify:
        try:
            verify_list_coloring(graph, coloring, lists)
        except ColoringError as exc:
            raise ColoringError(f"Theorem 1.3 produced an invalid coloring: {exc}") from exc

    return SparseColoringResult(
        d=d,
        coloring=coloring,
        clique=None,
        rounds=ledger.total(),
        peeling=peeling,
        extensions=extensions,
        ledger=ledger,
    )


def _peel_and_extend(
    graph: FrozenGraph,
    lists: ListAssignment,
    d: int,
    radius: int | None,
    ledger: RoundLedger,
    slack_fn=None,
    rich_fn=None,
) -> tuple[PeelingResult, dict[Vertex, Color], list[ExtensionReport]]:
    """Peel ``graph`` (Lemma 3.1), then extend the coloring back (Lemma 3.2).

    Rebuilds the graphs ``G_1 ⊇ G_2 ⊇ ...`` seen by the peeling and extends
    the coloring layer by layer, from the innermost (last removed) back to
    the full graph, charging every phase to ``ledger``.  ``slack_fn`` and
    ``rich_fn`` pass through to :func:`peel_happy_layers` (Theorem 6.1
    uses them).
    """
    peeling = peel_happy_layers(
        graph, d, radius=radius, slack_fn=slack_fn, rich_fn=rich_fn
    )
    ledger.extend(peeling.ledger)
    remaining = set(graph.vertices())
    graphs_per_layer: list[FrozenGraph] = []
    for layer in peeling.layers:
        graphs_per_layer.append(graph.subgraph(remaining))
        remaining -= layer.removed

    coloring: dict[Vertex, Color] = {}
    extensions: list[ExtensionReport] = []
    for layer, layer_graph in zip(reversed(peeling.layers), reversed(graphs_per_layer)):
        coloring, report = extend_coloring_to_happy_set(
            layer_graph,
            lists,
            happy=layer.classification.happy,
            rich=layer.classification.rich,
            coloring=coloring,
            radius=layer.radius_used,
            d=d,
            ledger=ledger,
        )
        extensions.append(report)
    return peeling, coloring, extensions
