"""The label pipeline of Theorem 1.3: the reference the CSR code is checked against.

``repro.core`` runs Lemma 3.1's peeling and Lemma 3.2's extension on the
CSR arrays of a frozen graph only.  This module keeps the per-vertex label
code those paths replaced, so the parity suites can compare the two:

* :func:`ruling_set` / :func:`ruling_forest` — the identifier-bit recursion
  with a label BFS for every distance probe, and FIFO tree growth over
  ``graph.neighbors``;
* :func:`classify_vertices` — one ball walk per rich vertex, with the
  whole-component Gallai shortcut;
* :func:`extend_coloring_to_happy_set` — the tree scan per (depth, stable
  class), first-free picks by ``min(available, key=repr)``, the per-node
  Linial stable partition, and Theorem 1.1 run root by root;
* :func:`peel_happy_layers` / :func:`color_sparse_graph` — the driver that
  composes them.

On a frozen input every function returns what the matching ``repro`` entry
point returns: the same sets, forests, colorings and ledger totals.
"""

from __future__ import annotations

from collections import deque

from baselines_reference import per_node_delta_plus_one
from repro.coloring.assignment import Color, ListAssignment, uniform_lists
from repro.coloring.borodin_ert import degree_list_coloring
from repro.core.extension import ExtensionReport
from repro.core.happy import VertexClassification, default_rich_ball_radius
from repro.core.peeling import PeelingLayer, PeelingResult
from repro.core.sparse_coloring import SparseColoringResult
from repro.distributed.ruling import RulingForest
from repro.errors import ColoringError
from repro.graphs.graph import Vertex
from repro.graphs.properties.cliques import find_clique_of_size
from repro.graphs.properties.gallai import is_gallai_forest
from repro.local.ledger import RoundLedger


# -- ruling sets and forests ------------------------------------------------


def distance_at_most(graph, sources, targets, limit) -> set:
    """The subset of ``targets`` within distance ``limit`` of ``sources``."""
    if not sources or not targets:
        return set()
    distances = {s: 0 for s in sources}
    queue = deque(sources)
    reached = set(sources) & targets
    while queue:
        u = queue.popleft()
        if distances[u] >= limit:
            continue
        for w in graph.neighbors(u):
            if w not in distances:
                distances[w] = distances[u] + 1
                if w in targets:
                    reached.add(w)
                queue.append(w)
    return reached


def ruling_set(graph, subset, alpha, identifiers=None, ledger=None):
    """The (alpha, alpha*ceil(log2 n))-ruling set, one label probe per merge."""
    ledger = ledger if ledger is not None else RoundLedger()
    if not subset:
        return set(), 0
    if identifiers is None:
        identifiers = {v: i + 1 for i, v in enumerate(graph.vertices())}
    bits = max(1, (max(identifiers[v] for v in subset)).bit_length())
    rounds = alpha * bits
    ledger.charge("ruling set: distance probes", rounds)

    def recurse(candidates, bit):
        if len(candidates) <= 1 or bit < 0:
            return set(candidates)
        zeros = {v for v in candidates if not (identifiers[v] >> bit) & 1}
        kept_zero = recurse(zeros, bit - 1)
        kept_one = recurse(candidates - zeros, bit - 1)
        close = distance_at_most(graph, kept_zero, kept_one, alpha - 1)
        return kept_zero | (kept_one - close)

    return recurse(set(subset), bits - 1), rounds


def grow_trees(graph, roots, beta):
    """Depth-bounded FIFO tree growth over label dicts."""
    parent = {r: None for r in roots}
    depth = {r: 0 for r in roots}
    tree_of = {r: r for r in roots}
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        if depth[u] >= beta:
            continue
        for w in graph.neighbors(u):
            if w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                tree_of[w] = tree_of[u]
                queue.append(w)
    return parent, depth, tree_of


def ruling_forest(graph, subset, alpha, identifiers=None) -> RulingForest:
    """The (alpha, alpha*ceil(log2 n))-ruling forest of ``subset``, over labels."""
    ledger = RoundLedger()
    roots_set, set_rounds = ruling_set(graph, subset, alpha, identifiers, ledger)
    roots = sorted(roots_set, key=repr)
    bits = max(1, (max(graph.number_of_vertices(), 2) - 1).bit_length())
    beta = alpha * bits
    parent, depth, tree_of = grow_trees(graph, roots, beta)
    # a subset vertex past the depth bound: grow level by level, charging
    # each extra level, exactly as repro.distributed.ruling does
    extra = 0
    while any(v not in parent for v in subset):
        extra += 1
        frontier = [v for v, dist in depth.items() if dist == beta + extra - 1]
        if not frontier:
            raise RuntimeError("ruling forest failed to cover the subset")
        for u in frontier:
            for w in graph.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    tree_of[w] = tree_of[u]
    beta += extra
    ledger.charge("ruling forest: BFS tree growth", beta)
    return RulingForest(
        roots=roots, parent=parent, depth=depth, tree_of=tree_of,
        alpha=alpha, beta=beta, rounds=set_rounds + beta, ledger=ledger,
    )


# -- Lemma 3.1: classification and peeling ------------------------------------


def classify_vertices(
    graph, d, radius=None, slack_vertices=None, rich_vertices=None
) -> VertexClassification:
    """Happy/sad/poor split by one ball walk per rich vertex."""
    if radius is None:
        radius = default_rich_ball_radius(graph.number_of_vertices())
    degrees = graph.degrees()
    if rich_vertices is None:
        rich_vertices = {v for v, deg in degrees.items() if deg <= d}
    if slack_vertices is None:
        slack_vertices = {v for v, deg in degrees.items() if deg <= d - 1}
    classification = VertexClassification(
        poor=set(graph.vertices()) - rich_vertices, radius=radius
    )
    rich_graph = graph.subgraph(rich_vertices)
    for component in rich_graph.connected_components():
        component_graph = rich_graph.subgraph(component)
        component_is_gallai = is_gallai_forest(component_graph)
        if not component & slack_vertices and component_is_gallai:
            # every ball is an induced connected subgraph of a Gallai tree
            # with no slack vertex: the whole component is sad
            classification.sad |= component
            continue
        for v in component:
            ball = component_graph.ball(v, radius)
            if ball & slack_vertices:
                happy = True
            elif len(ball) == len(component):
                happy = not component_is_gallai
            else:
                happy = not is_gallai_forest(component_graph.subgraph(ball))
            (classification.happy if happy else classification.sad).add(v)
    return classification


def peel_happy_layers(graph, d, radius=None, slack_fn=None, rich_fn=None) -> PeelingResult:
    """Remove the happy set until the graph is empty, doubling a stalled radius."""
    result = PeelingResult()
    n = graph.number_of_vertices()
    base_radius = radius if radius is not None else default_rich_ball_radius(n)
    working = graph
    while not working.is_empty():
        current_radius = base_radius
        while True:
            classification = classify_vertices(
                working, d, radius=current_radius,
                slack_vertices=slack_fn(working) if slack_fn else None,
                rich_vertices=rich_fn(working) if rich_fn else None,
            )
            result.ledger.charge("Lemma 3.1: rich-ball collection", classification.ball_rounds)
            if classification.happy:
                break
            if current_radius >= working.number_of_vertices():
                raise ColoringError("no happy vertex at a whole-graph radius")
            current_radius = min(
                max(2 * current_radius, 2), max(working.number_of_vertices(), 2)
            )
        result.layers.append(PeelingLayer(
            index=len(result.layers) + 1,
            classification=classification,
            removed=set(classification.happy),
            graph_size=working.number_of_vertices(),
            radius_used=current_radius,
        ))
        working = working.subgraph(set(working.vertices()) - classification.happy)
    return result


# -- Lemma 3.2: extension --------------------------------------------------------


def color_batch(graph, lists, coloring, batch) -> None:
    """Color a stable set of tree vertices greedily from their pruned lists."""
    for v in batch:
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        available = lists[v] - used
        if not available:
            raise ColoringError(f"layered tree coloring ran out of colors at {v!r}")
        coloring[v] = min(available, key=repr)


def extend_coloring_to_happy_set(
    graph, lists, happy, rich, coloring, radius, d, ledger=None
) -> tuple[dict[Vertex, Color], ExtensionReport]:
    """Lemma 3.2 over labels: ruling forest, stable partition, layers, root balls."""
    ledger = ledger if ledger is not None else RoundLedger()
    report = ExtensionReport(
        roots=0, tree_vertices=0, recolored_sad_vertices=0, rounds=0, ledger=ledger
    )
    if not happy:
        return dict(coloring), report
    rich_graph = graph.subgraph(rich)
    identifiers = {v: i + 1 for i, v in enumerate(graph.vertices())}
    forest = ruling_forest(rich_graph, set(happy), 2 * radius + 2, identifiers)
    ledger.charge("Lemma 3.2: ruling forest", forest.rounds)

    tree_vertices = forest.vertices()
    new_coloring = dict(coloring)
    for v in tree_vertices:
        if v not in happy and v in new_coloring:
            del new_coloring[v]
            report.recolored_sad_vertices += 1
    uncolored = set(tree_vertices)
    report.tree_vertices = len(tree_vertices)
    report.roots = len(forest.roots)

    stable = per_node_delta_plus_one(graph.subgraph(tree_vertices), max_degree=d)
    ledger.charge("Lemma 3.2: (d+1) stable partition of the trees", stable.rounds)

    max_depth = max(forest.depth.values(), default=0)
    layer_rounds = 0
    for depth in range(max_depth, 0, -1):
        for stable_class in range(d + 1):
            batch = [
                v
                for v in tree_vertices
                if forest.depth[v] == depth
                and stable.coloring.get(v) == stable_class
                and v in uncolored
            ]
            color_batch(graph, lists, new_coloring, batch)
            uncolored.difference_update(batch)
            layer_rounds += 1
    ledger.charge("Lemma 3.2: layered coloring of the trees", layer_rounds)

    for root in forest.roots:
        ball = rich_graph.ball(root, radius)
        for v in ball:
            if v in new_coloring:
                del new_coloring[v]
                if v not in happy:
                    report.recolored_sad_vertices += 1
        pruned = {
            v: lists[v] - {
                new_coloring[u]
                for u in graph.neighbors(v)
                if u in new_coloring and u not in ball
            }
            for v in ball
        }
        new_coloring.update(
            degree_list_coloring(graph.subgraph(ball), ListAssignment(pruned))
        )
        uncolored -= ball
    ledger.charge(
        "Lemma 3.2: Theorem 1.1 on the root balls", 2 * radius if forest.roots else 0
    )
    if uncolored:
        raise ColoringError(f"extension left {len(uncolored)} vertices uncolored")
    report.rounds = ledger.total()
    return new_coloring, report


# -- Theorem 1.3 ---------------------------------------------------------------------


def color_sparse_graph(graph, d, lists=None, radius=None) -> SparseColoringResult:
    """Theorem 1.3 over labels: clique check, peeling, extension layer by layer."""
    ledger = RoundLedger()
    lists = lists if lists is not None else uniform_lists(graph, d)
    if graph.number_of_vertices() == 0:
        return SparseColoringResult(d, {}, None, 0, None, ledger=ledger)
    ledger.charge("clique detection", 2)
    clique = find_clique_of_size(graph, d + 1)
    if clique is not None:
        return SparseColoringResult(d, None, clique, ledger.total(), None, ledger=ledger)
    peeling = peel_happy_layers(graph, d, radius=radius)
    ledger.extend(peeling.ledger)
    remaining = set(graph.vertices())
    graphs_per_layer = []
    for layer in peeling.layers:
        graphs_per_layer.append(graph.subgraph(remaining))
        remaining -= layer.removed
    coloring: dict[Vertex, Color] = {}
    extensions = []
    for layer, layer_graph in zip(reversed(peeling.layers), reversed(graphs_per_layer)):
        coloring, report = extend_coloring_to_happy_set(
            layer_graph, lists, layer.classification.happy, layer.classification.rich,
            coloring, layer.radius_used, d, ledger,
        )
        extensions.append(report)
    return SparseColoringResult(
        d, coloring, None, ledger.total(), peeling, extensions, ledger
    )
