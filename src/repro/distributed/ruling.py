"""(α, β)-ruling sets and ruling forests (Awerbuch, Goldberg, Luby, Plotkin).

Given a graph ``H`` and a vertex subset ``U``, an *(α, β)-ruling forest*
with respect to ``U`` is a family of vertex-disjoint rooted trees such that

1. every vertex of ``U`` belongs to some tree,
2. the roots are pairwise at distance at least ``α`` in ``H``, and
3. every tree has depth at most ``β``.

The paper (proof of Lemma 3.2) uses a ``(k, k log n)``-ruling forest with
``k = 2 c log n`` computed in ``O(k log n)`` rounds.  We implement the
classical deterministic construction based on identifier bits:

* split the candidate set by the highest identifier bit, recursively
  compute ruling sets for both halves, and keep a vertex of the second half
  only if it is at distance at least ``k`` from every kept vertex of the
  first half;
* each of the ``ceil(log2 n)`` recursion levels costs ``k`` communication
  rounds (a distance-``k`` probe), giving ``O(k log n)`` rounds in total and
  a domination radius of ``k * ceil(log2 n)``;
* every vertex of ``U`` then joins the tree of a nearest ruling vertex via
  a multi-source BFS of depth at most the domination radius.

The implementation is *phase-structured*: the computation itself is
centralized (it only uses information available within the probed radii)
and the rounds are charged to a :class:`~repro.local.ledger.RoundLedger`
following the analysis above: ``k`` rounds per identifier bit for the
ruling set (the merges of one bit run in parallel) plus the tree depth.

Both entry points freeze their input and run on its CSR index arrays.
The ruling set is decided one connected component at a time, which
changes nothing as probes never cross components.  A component of at
most ``k`` vertices keeps exactly its minimum-identifier candidate —
every probe inside it reaches every target, so the zero half wins each
merge — and only the candidates of larger components run the bit
recursion.  The per-vertex label version of both constructions is kept
in the test suite as the reference these are compared with.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.graphs.frozen import FrozenGraph, GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local.ledger import RoundLedger

__all__ = ["RulingForest", "ruling_set", "ruling_forest"]


@dataclass
class RulingForest:
    """The output of the ruling-forest construction.

    Attributes
    ----------
    roots:
        The ruling vertices (pairwise at distance >= ``alpha``).
    parent:
        Parent pointer of every tree vertex (roots map to ``None``).
    depth:
        Distance of every tree vertex from its root within its tree.
    tree_of:
        The root owning each tree vertex.
    alpha, beta:
        The parameters achieved by the construction.
    rounds:
        Rounds charged for building the forest.
    """

    roots: list[Vertex]
    parent: dict[Vertex, Vertex | None]
    depth: dict[Vertex, int]
    tree_of: dict[Vertex, Vertex]
    alpha: int
    beta: int
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    def vertices(self) -> set[Vertex]:
        return set(self.parent)

    def tree_members(self) -> dict[Vertex, list[Vertex]]:
        members: dict[Vertex, list[Vertex]] = {root: [] for root in self.roots}
        for v, root in self.tree_of.items():
            members[root].append(v)
        return members


def _component_info(graph: FrozenGraph) -> tuple[list[int], list[int]]:
    """Per-index component id plus per-component size (one O(n+m) sweep)."""
    offsets, neighbors = graph.csr_lists()
    n = len(graph)
    comp_id = [-1] * n
    sizes: list[int] = []
    for start in range(n):
        if comp_id[start] >= 0:
            continue
        cid = len(sizes)
        comp_id[start] = cid
        stack = [start]
        count = 0
        while stack:
            u = stack.pop()
            count += 1
            for k in range(offsets[u], offsets[u + 1]):
                w = neighbors[k]
                if comp_id[w] < 0:
                    comp_id[w] = cid
                    stack.append(w)
        sizes.append(count)
    return comp_id, sizes


def _make_csr_probe(graph: FrozenGraph, comp_id: list[int]):
    """The distance probe of the bit recursion, for one frozen graph.

    ``probe(sources, targets, limit)`` is the subset of ``targets`` within
    distance ``limit`` of ``sources``.  It answers per connected component
    (``comp_id`` from :func:`_component_info`): components without a
    source contribute nothing, and the others run a depth-bounded BFS over
    the CSR index arrays, with an early exit once all their targets are
    reached.
    """
    offsets, neighbors = graph.csr_lists()
    index = graph._index
    labels = graph.vertices()

    def probe(sources: set[Vertex], targets: set[Vertex], limit: int) -> set[Vertex]:
        if not sources or not targets:
            return set()
        targets_by_comp: dict[int, set[Vertex]] = {}
        for t in targets:
            targets_by_comp.setdefault(comp_id[index[t]], set()).add(t)
        sources_by_comp: dict[int, list[int]] = {}
        for s in sources:
            i = index[s]
            sources_by_comp.setdefault(comp_id[i], []).append(i)
        reached: set[Vertex] = set()
        for cid, comp_targets in targets_by_comp.items():
            comp_sources = sources_by_comp.get(cid)
            if comp_sources is None:
                continue
            # depth-bounded BFS, early exit on the last target
            missing = set(comp_targets)
            visited = set(comp_sources)
            frontier = sorted(comp_sources)
            for i in frontier:
                v = labels[i]
                if v in missing:
                    missing.discard(v)
                    reached.add(v)
            depth = 0
            while frontier and missing and depth < limit:
                depth += 1
                nxt = []
                for u in frontier:
                    for k in range(offsets[u], offsets[u + 1]):
                        w = neighbors[k]
                        if w not in visited:
                            visited.add(w)
                            nxt.append(w)
                            v = labels[w]
                            if v in missing:
                                missing.discard(v)
                                reached.add(v)
                frontier = nxt
        return reached

    return probe


def ruling_set(
    graph: GraphLike,
    subset: set[Vertex],
    alpha: int,
    identifiers: dict[Vertex, int] | None = None,
    ledger: RoundLedger | None = None,
) -> tuple[set[Vertex], int]:
    """Compute an (alpha, alpha*ceil(log2 n))-ruling set of ``subset``.

    Returns ``(ruling_vertices, rounds_charged)``.  Every vertex of
    ``subset`` is within ``alpha * ceil(log2 n)`` of the ruling set (in
    ``graph``), and ruling vertices are pairwise at distance >= ``alpha``.
    The merges of one identifier bit run in parallel, so the construction
    charges ``alpha`` rounds per bit, once, to ``ledger``.  The connected
    components are computed once and each is decided on its own, as the
    module docstring describes.
    """
    graph = freeze(graph)
    ledger = ledger if ledger is not None else RoundLedger()
    if not subset:
        return set(), 0
    if identifiers is None:
        identifiers = {v: i + 1 for i, v in enumerate(graph.vertices())}
    bits = max(1, (max(identifiers[v] for v in subset)).bit_length())
    rounds = alpha * bits
    ledger.charge(
        "ruling set: distance probes",
        rounds,
        reference="Awerbuch et al. [3], one level merge per identifier bit",
    )

    comp_id, comp_sizes = _component_info(graph)
    probe = _make_csr_probe(graph, comp_id)
    index = graph._index
    lowest: dict[int, int] = {}  # small component -> least identifier
    candidates: set[Vertex] = set()
    for v in subset:
        cid = comp_id[index[v]]
        if comp_sizes[cid] > alpha:
            candidates.add(v)
        elif cid not in lowest or identifiers[v] < lowest[cid]:
            lowest[cid] = identifiers[v]
    kept = {
        v for v in subset
        if v not in candidates and identifiers[v] == lowest[comp_id[index[v]]]
    }

    def recurse(candidates: set[Vertex], bit: int) -> set[Vertex]:
        if not candidates:
            return set()
        if len(candidates) == 1 or bit < 0:
            # all identifiers identical on the remaining bits: keep one per
            # connected cluster greedily (they are pairwise far by induction
            # except possibly duplicates, which cannot happen with unique IDs)
            return set(candidates)
        zeros = {v for v in candidates if not (identifiers[v] >> bit) & 1}
        ones = candidates - zeros
        kept_zero = recurse(zeros, bit - 1)
        kept_one = recurse(ones, bit - 1)
        close = probe(kept_zero, kept_one, alpha - 1)
        return kept_zero | (kept_one - close)

    return kept | recurse(candidates, bits - 1), rounds


def _grow_trees(
    graph: FrozenGraph, roots: list[Vertex], beta: int
) -> tuple[dict, dict, dict]:
    """Depth-bounded FIFO tree growth from ``roots`` (``beta`` levels).

    Runs the traversal (roots in order, neighbours in CSR order) on the
    index arrays and materializes the label dicts in discovery order.
    """
    offsets, neighbors = graph.csr_lists()
    labels = graph.vertices()
    index = graph._index
    n = len(labels)
    parent_idx = [-2] * n  # -2 unvisited, -1 root
    depth_idx = [0] * n
    tree_idx = [0] * n
    order: list[int] = []
    queue: deque[int] = deque()
    for r in roots:
        i = index[r]
        parent_idx[i] = -1
        tree_idx[i] = i
        order.append(i)
        queue.append(i)
    while queue:
        u = queue.popleft()
        du = depth_idx[u]
        if du >= beta:
            continue
        tu = tree_idx[u]
        for k in range(offsets[u], offsets[u + 1]):
            w = neighbors[k]
            if parent_idx[w] == -2:
                parent_idx[w] = u
                depth_idx[w] = du + 1
                tree_idx[w] = tu
                order.append(w)
                queue.append(w)
    parent = {
        labels[i]: (None if parent_idx[i] == -1 else labels[parent_idx[i]])
        for i in order
    }
    depth = {labels[i]: depth_idx[i] for i in order}
    tree_of = {labels[i]: labels[tree_idx[i]] for i in order}
    return parent, depth, tree_of


def ruling_forest(
    graph: GraphLike,
    subset: set[Vertex],
    alpha: int,
    identifiers: dict[Vertex, int] | None = None,
) -> RulingForest:
    """Compute an (alpha, alpha*ceil(log2 n))-ruling forest with respect to ``subset``.

    The roots form an ``alpha``-ruling set of ``subset``; every vertex of
    ``subset`` joins a BFS tree of a nearest root.  Trees may also contain
    vertices outside ``subset`` (the connecting paths), matching the usage
    in Lemma 3.2 where tree vertices of ``S`` get uncolored.
    """
    graph = freeze(graph)
    ledger = RoundLedger()
    roots_set, set_rounds = ruling_set(graph, subset, alpha, identifiers, ledger)
    roots = sorted(roots_set, key=repr)
    n = max(graph.number_of_vertices(), 2)
    bits = max(1, (n - 1).bit_length())
    beta = alpha * bits

    parent, depth, tree_of = _grow_trees(graph, roots, beta)
    uncovered = [v for v in subset if v not in parent]
    if uncovered:
        # The domination radius analysis guarantees coverage; growing the
        # BFS further (and charging the extra rounds) keeps the construction
        # total even in degenerate corner cases.
        extra = 0
        while uncovered:
            extra += 1
            frontier = [v for v, dist in depth.items() if dist == beta + extra - 1]
            progressed = False
            for u in frontier:
                for w in graph.neighbors(u):
                    if w not in parent:
                        parent[w] = u
                        depth[w] = depth[u] + 1
                        tree_of[w] = tree_of[u]
                        progressed = True
            uncovered = [v for v in subset if v not in parent]
            if not progressed and uncovered:
                raise RuntimeError(
                    "ruling forest failed to cover the subset; "
                    "is the subset contained in the graph?"
                )
        beta += extra
    tree_growth_rounds = beta
    ledger.charge(
        "ruling forest: BFS tree growth",
        tree_growth_rounds,
        reference="Lemma 3.2 (trees of depth k log n)",
    )
    total_rounds = set_rounds + tree_growth_rounds
    return RulingForest(
        roots=roots,
        parent=parent,
        depth=depth,
        tree_of=tree_of,
        alpha=alpha,
        beta=beta,
        rounds=total_rounds,
        ledger=ledger,
    )
