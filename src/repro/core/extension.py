"""Extending a partial list-coloring to the happy set (Lemma 3.2).

Given the graph ``G_i`` of a peeling iteration, its happy set ``A_i`` and a
list-coloring of ``G_i - A_i``, this module extends the coloring to all of
``G_i`` in ``O(d log^2 n)`` charged rounds, following the proof of
Lemma 3.2:

1. compute a ``(k, k log n)``-ruling forest of ``G_i[R_i]`` with respect to
   ``A_i`` (``k`` is twice the rich-ball radius, plus a small constant so
   that the rich balls of distinct roots are disjoint and non-adjacent);
2. let ``T`` be the union of the tree vertices; uncolor ``T ∩ S_i``; prune
   the list of every vertex of ``T`` by the colors of its neighbours
   outside ``T`` (Observation 5.1 keeps the lists at least as large as the
   uncolored degrees);
3. compute a proper ``(d+1)``-coloring of ``H = G_i[T]`` (the "stable
   partition" of the paper) with the distributed Linial + reduction
   subroutine;
4. color the tree vertices from the deepest layer towards the roots, one
   (depth, stable-class) pair at a time; every vertex still has its parent
   uncolored when its turn comes, so its pruned list has a free color;
5. the roots are happy: uncolor the whole rich ball of every root, prune
   lists by the colors outside the ball, and apply Theorem 1.1
   (:func:`repro.coloring.borodin_ert.degree_list_coloring`) to each ball —
   the ball contains a vertex with spare colors or is not a Gallai tree, so
   the constructive solver succeeds.

Every phase charges rounds to the shared ledger with a reference to the
paper's accounting.

The graph is frozen on entry and every phase runs on its CSR arrays: the
ruling forest, the batched Linial/color-reduction stable partition, and
bitmask pruning and tie-breaks over the interned palette.  Step 5 runs
for all roots in one pass: one multi-source BFS from the roots labels
every ball vertex with its root (two balls that meet or touch raise, as
the one pass needs them disjoint and non-adjacent), one sweep gives every
ball vertex its pruned list mask and its degree inside the ball, and
:func:`~repro.coloring.borodin_ert.greedy_towards_masks` colors each ball
towards its first slack vertex (``|L(v)| > d(v)``, in CSR order) — the
slack case of Theorem 1.1, which a single-vertex ball always takes.  Only
a ball without a slack vertex goes to ``degree_list_coloring`` itself.
The per-vertex label version of these steps, root by root, is kept in
the test suite as the reference this module is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coloring.assignment import Color, ListAssignment
from repro.coloring.borodin_ert import degree_list_coloring, greedy_towards_masks
from repro.coloring.palette import FlatListAssignment
from repro.errors import ColoringError, ListAssignmentError
from repro.graphs.frozen import FrozenGraph, GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local.ledger import RoundLedger
from repro.distributed.linial import delta_plus_one_coloring
from repro.distributed.ruling import ruling_forest

__all__ = ["ExtensionReport", "extend_coloring_to_happy_set"]


@dataclass
class ExtensionReport:
    """Bookkeeping of one extension step (useful for the Lemma 3.2 benchmarks)."""

    roots: int
    tree_vertices: int
    recolored_sad_vertices: int
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)


def extend_coloring_to_happy_set(
    graph: GraphLike,
    lists: ListAssignment,
    happy: set[Vertex],
    rich: set[Vertex],
    coloring: dict[Vertex, Color],
    radius: int,
    d: int,
    ledger: RoundLedger | None = None,
) -> tuple[dict[Vertex, Color], ExtensionReport]:
    """Extend ``coloring`` (defined on ``graph`` minus ``happy``) to all of ``graph``.

    Parameters
    ----------
    graph:
        The graph ``G_i`` of the peeling iteration, frozen on entry.
    lists:
        The full list assignment (size ``d`` lists, or nice lists).
    happy, rich:
        The sets ``A_i`` and ``R_i`` computed by the classification of the
        same iteration (with the same ``radius``).
    coloring:
        A proper list-coloring of ``graph`` restricted to ``V - happy``.
        The returned coloring may change the colors of some sad vertices,
        exactly as in the paper.
    radius:
        The rich-ball radius used by the classification.
    d:
        The color budget (only used for the size of the stable partition).

    Returns
    -------
    (new_coloring, report)
    """
    graph = freeze(graph)
    ledger = ledger if ledger is not None else RoundLedger()
    report = ExtensionReport(roots=0, tree_vertices=0, recolored_sad_vertices=0, rounds=0, ledger=ledger)
    if not happy:
        return dict(coloring), report

    rich_graph = graph.subgraph(rich)
    # Roots must be far enough apart that their rich balls are disjoint and
    # non-adjacent: distance >= 2*radius + 2 suffices.
    alpha = 2 * radius + 2
    identifiers = {v: i + 1 for i, v in enumerate(graph.vertices())}
    forest = ruling_forest(rich_graph, set(happy), alpha, identifiers=identifiers)
    ledger.charge(
        "Lemma 3.2: ruling forest",
        forest.rounds,
        reference="Awerbuch et al. (k, k log n)-ruling forest",
    )

    tree_vertices = forest.vertices()
    new_coloring = dict(coloring)
    uncolored = set(tree_vertices)
    for v in tree_vertices:
        if v not in happy and v in new_coloring:
            # sad vertex swept into a tree: uncolor it (the paper allows
            # recoloring vertices of S)
            del new_coloring[v]
            report.recolored_sad_vertices += 1
    report.tree_vertices = len(tree_vertices)
    report.roots = len(forest.roots)

    tree_graph = graph.subgraph(tree_vertices)

    # Stable partition of H = G[T] into at most d+1 classes.
    stable = delta_plus_one_coloring(tree_graph, max_degree=d)
    ledger.charge(
        "Lemma 3.2: (d+1) stable partition of the trees",
        stable.rounds,
        reference="Linial + color reduction (paper quotes GPS [17])",
    )

    # The coloring is tracked twice: the label dict (the public result) and
    # an interned color-index array over the CSR indices that the mask
    # kernels read and write.
    flat_state = _FlatColoringState(graph, lists.flat, new_coloring)

    # Layered coloring: deepest tree layer first, one stable class at a
    # time.  One grouping pass puts every tree vertex in its (depth, class)
    # batch.
    max_depth = max(forest.depth.values(), default=0)
    layer_rounds = 0
    buckets: dict[tuple[int, int], list[Vertex]] = {}
    for v in tree_vertices:
        buckets.setdefault((forest.depth[v], stable.coloring[v]), []).append(v)
    for depth in range(max_depth, 0, -1):
        for stable_class in range(d + 1):
            batch = buckets.get((depth, stable_class), [])
            if batch:
                flat_state.color_batch(new_coloring, batch)
                uncolored.difference_update(batch)
            layer_rounds += 1
    ledger.charge(
        "Lemma 3.2: layered coloring of the trees",
        layer_rounds,
        reference="depth x (d+1) greedy sweeps",
    )

    # Roots: uncolor the whole rich ball and apply Theorem 1.1.
    for ball_coloring in flat_state.color_root_balls(forest.roots, rich, radius):
        for v in ball_coloring:
            if v in new_coloring:
                del new_coloring[v]
                if v not in happy:
                    report.recolored_sad_vertices += 1
        new_coloring.update(ball_coloring)
        uncolored.difference_update(ball_coloring)
    ledger.charge(
        "Lemma 3.2: Theorem 1.1 on the root balls",
        2 * radius if forest.roots else 0,
        reference="Borodin / Erdős–Rubin–Taylor",
    )

    if uncolored:
        leftover = sorted(map(repr, uncolored))[:5]
        raise ColoringError(
            f"extension left {len(uncolored)} vertices uncolored, e.g. {leftover}"
        )
    report.rounds = ledger.total()
    return new_coloring, report


class _FlatColoringState:
    """Interned mirror of a partial coloring over a frozen graph's indices.

    Keeps ``color_index[i]`` (the palette-universe index of the color of
    the vertex at CSR index ``i``, or ``-1``) in sync with the label dict
    through the layered tree coloring, so the hot kernels — that coloring,
    and the Observation 5.1 pruning of the root balls that follows it —
    run as integer mask ops over the CSR arrays instead of per-vertex set
    algebra.  Tie-breaks read the lowest set bit, which by the universe's
    repr-sorted interning is ``min(available, key=repr)``.
    """

    __slots__ = ("graph", "lists", "universe", "color_index",
                 "_offsets", "_neighbors", "_index")

    def __init__(
        self,
        graph: FrozenGraph,
        lists: FlatListAssignment,
        coloring: dict[Vertex, Color],
    ):
        self.graph = graph
        self.lists = lists
        self.universe = lists.universe
        self._offsets, self._neighbors = graph.csr_lists()
        self._index = graph._index
        get_index = self.universe.get_index
        self.color_index = [-1] * len(graph)
        for v, color in coloring.items():
            i = self._index.get(v)
            if i is not None:
                self.color_index[i] = get_index(color)

    def _used_mask(self, i: int) -> int:
        """OR of the color bits of ``i``'s colored neighbours."""
        used = 0
        color_index = self.color_index
        neighbors = self._neighbors
        for k in range(self._offsets[i], self._offsets[i + 1]):
            c = color_index[neighbors[k]]
            if c >= 0:
                used |= 1 << c
        return used

    def color_batch(
        self, coloring: dict[Vertex, Color], batch: list[Vertex]
    ) -> None:
        """Color a stable set of tree vertices from their pruned lists.

        Each vertex takes the first color of its list that no colored
        neighbour holds.  The batch is a stable set, so the used masks of
        all members are independent and the picks go through the palette's
        :meth:`~repro.coloring.palette.FlatListAssignment.first_free_colors`
        batch kernel in one call.
        """
        index = self._index
        indices = [index[v] for v in batch]
        used = [self._used_mask(i) for i in indices]
        try:
            picks = self.lists.first_free_colors(batch, used)
        except ListAssignmentError as exc:
            raise ColoringError(
                f"layered tree coloring ran out of colors ({exc}); "
                "this indicates a violated invariant of Lemma 3.2"
            ) from exc
        get_index = self.universe.get_index
        for v, i, color in zip(batch, indices, picks):
            coloring[v] = color
            self.color_index[i] = get_index(color)

    def color_root_balls(
        self, roots: list[Vertex], rich: set[Vertex], radius: int
    ) -> list[dict[Vertex, Color]]:
        """Theorem 1.1 on the rich ball of every root, in one pass.

        Each ball gets the colors that Theorem 1.1, run on that ball
        alone, would give it:

        1. one multi-source BFS from all roots through the rich vertices,
           to depth ``radius``, records each vertex's root.  The one pass
           relies on the ruling forest keeping the balls disjoint and
           non-adjacent, so an edge between two balls raises;
        2. one sweep over the ball vertices in CSR order gives each its
           Observation 5.1 mask (its list minus the colors of its
           neighbours outside the ball) and its degree inside the ball,
           and finds each ball's first slack vertex (``|L(v)| > d(v)``);
        3. :func:`~repro.coloring.borodin_ert.greedy_towards_masks` colors
           every ball that has one towards it, exactly as
           :func:`~repro.coloring.borodin_ert.degree_list_coloring` would;
           a ball without a slack vertex, or with a vertex whose list is
           shorter than its degree, goes to ``degree_list_coloring``
           itself, which colors it or raises.

        Returns one coloring per root, in ``roots`` order, each in the
        order the per-root solver produces it.
        """
        offsets, neighbors = self._offsets, self._neighbors
        index = self._index
        labels = self.graph.vertices()
        # owner[i]: position in ``roots`` of the ball holding i, -1 for a
        # rich vertex outside every ball, -2 for a vertex that is not rich
        owner = [-2] * len(labels)
        for v in rich:
            owner[index[v]] = -1
        frontier = []
        for position, root in enumerate(roots):
            i = index[root]
            owner[i] = position
            frontier.append(i)
        members = list(frontier)
        for _ in range(radius):
            nxt = []
            for i in frontier:
                position = owner[i]
                for k in range(offsets[i], offsets[i + 1]):
                    j = neighbors[k]
                    if owner[j] == -1:
                        owner[j] = position
                        nxt.append(j)
            if not nxt:
                break
            members += nxt
            frontier = nxt

        color_index = self.color_index
        mask_of = self.lists.mask_of
        masks: dict[int, int] = {}
        ball_members: list[list[int]] = [[] for _ in roots]
        # per ball: its first slack vertex, -1 while none is found, -2 once
        # a list is shorter than its degree (degree_list_coloring refuses it)
        slack = [-1] * len(roots)
        members.sort()
        for i in members:
            position = owner[i]
            used = 0
            degree = 0
            for k in range(offsets[i], offsets[i + 1]):
                j = neighbors[k]
                other = owner[j]
                if other == position:
                    degree += 1
                elif other >= 0:
                    raise ColoringError(
                        f"the rich balls of roots {roots[position]!r} and "
                        f"{roots[other]!r} meet or touch; the ruling forest "
                        "must keep them disjoint and non-adjacent"
                    )
                elif color_index[j] >= 0:
                    used |= 1 << color_index[j]
            mask = mask_of(labels[i]) & ~used
            masks[i] = mask
            ball_members[position].append(i)
            size = mask.bit_count()
            if size < degree:
                slack[position] = -2
            elif size > degree and slack[position] == -1:
                slack[position] = i

        order, picks = greedy_towards_masks(
            offsets, neighbors, labels, masks, [t for t in slack if t >= 0]
        )
        greedy_order: list[list[int]] = [[] for _ in roots]
        for i in order:
            greedy_order[owner[i]].append(i)
        colors = self.universe.colors
        balls: list[dict[Vertex, Color]] = []
        for position, root in enumerate(roots):
            try:
                if slack[position] < 0:
                    ball = [labels[i] for i in ball_members[position]]
                    ball_lists = FlatListAssignment.from_masks(
                        self.universe, ball,
                        [masks[i] for i in ball_members[position]],
                    )
                    ball_coloring = degree_list_coloring(
                        self.graph.subgraph(ball), ListAssignment(ball_lists)
                    )
                else:
                    ball_coloring = {}
                    for i in greedy_order[position]:
                        if picks[i] < 0:
                            raise ColoringError(
                                f"greedy-towards ran out of colors at {labels[i]!r}; "
                                "the slack-vertex promise was violated"
                            )
                        ball_coloring[labels[i]] = colors[picks[i]]
            except ColoringError as exc:
                raise ColoringError(
                    f"Theorem 1.1 extension failed on the rich ball of root {root!r}: {exc}"
                ) from exc
            balls.append(ball_coloring)
        return balls
