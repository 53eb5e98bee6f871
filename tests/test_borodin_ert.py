"""Tests for the constructive Theorem 1.1 solver (Borodin / Erdős–Rubin–Taylor)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.assignment import ListAssignment, uniform_lists
from repro.coloring.borodin_ert import (
    _greedy_towards,
    degree_list_coloring,
    extend_partial_coloring,
    greedy_towards_masks,
    is_degree_choosable_instance,
)
from repro.coloring.palette import PaletteUniverse
from repro.coloring.verification import verify_list_coloring
from repro.errors import ColoringError
from repro.graphs.generators import classic, planar
from repro.graphs.graph import Graph


def degree_lists(graph, palette_offset=0):
    """Every vertex gets exactly d(v) colors {1..d(v)} (shifted by offset)."""
    return ListAssignment(
        {
            v: frozenset(range(1 + palette_offset, graph.degree(v) + 1 + palette_offset))
            for v in graph
        }
    )


# -- slack case ----------------------------------------------------------------

def test_slack_vertex_greedy_on_path():
    p = classic.path(30)
    lists = uniform_lists(p, 2)  # endpoints have slack (degree 1 < 2)
    coloring = degree_list_coloring(p, lists)
    verify_list_coloring(p, coloring, lists)


def test_slack_vertex_greedy_on_tree():
    t = classic.random_tree(30, seed=1)
    # lists of size exactly d(v), except one slack vertex with d(v)+1 colors
    lists_dict = {v: frozenset(range(1, t.degree(v) + 1)) for v in t}
    slack = max(t.vertices(), key=t.degree)
    lists_dict[slack] = frozenset(range(1, t.degree(slack) + 2))
    lists = ListAssignment(lists_dict)
    coloring = degree_list_coloring(t, lists)
    verify_list_coloring(t, coloring, lists)


def test_single_vertex_and_empty():
    g = Graph(vertices=["x"])
    coloring = degree_list_coloring(g, ListAssignment({"x": {5}}))
    assert coloring == {"x": 5}
    assert degree_list_coloring(Graph(), ListAssignment({})) == {}


def test_rejects_too_small_lists():
    g = classic.cycle(4)
    with pytest.raises(ColoringError):
        degree_list_coloring(g, ListAssignment({v: {1} for v in g}))


# -- even cycles ----------------------------------------------------------------

def test_even_cycle_equal_lists():
    g = classic.cycle(8)
    lists = uniform_lists(g, 2)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_even_cycle_different_lists():
    g = classic.cycle(6)
    lists = ListAssignment(
        {0: {1, 2}, 1: {2, 3}, 2: {3, 4}, 3: {4, 5}, 4: {5, 6}, 5: {6, 1}}
    )
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


# -- 2-connected non-Gallai blocks ------------------------------------------------

def test_theta_graph_with_tight_lists():
    g = classic.theta_graph([2, 2, 2])
    lists = degree_lists(g)
    assert is_degree_choosable_instance(g, lists)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_complete_bipartite_with_tight_lists():
    g = classic.complete_bipartite(3, 3)
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_grid_with_degree_lists():
    g = classic.grid_2d(3, 4)
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_disjoint_lists_fallback():
    """Force the residual case: the two branches of a theta have disjoint palettes."""
    g = classic.theta_graph([2, 2, 2])
    lists = {}
    for v in g:
        if v in ("a", "b"):
            lists[v] = {1, 2, 3}
        else:
            lists[v] = None
    path_vertices = sorted(v for v in g if v not in ("a", "b"))
    palettes = [{1, 4}, {2, 5}, {3, 6}]
    for v, palette in zip(path_vertices, palettes):
        lists[v] = palette
    assignment = ListAssignment(lists)
    coloring = degree_list_coloring(g, assignment)
    verify_list_coloring(g, coloring, assignment)


# -- block-tree peeling -----------------------------------------------------------

def test_clique_attached_to_even_cycle():
    g = classic.cycle(6)
    g.add_edges([(0, "k1"), (0, "k2"), ("k1", "k2")])
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


def test_gallai_tree_with_slack_vertex():
    """A Gallai tree is fine as long as one vertex has slack."""
    g = classic.gallai_tree([("clique", 4), ("odd_cycle", 5)])
    lists = {v: frozenset(range(1, g.degree(v) + 1)) for v in g}
    slack_vertex = next(iter(g))
    lists[slack_vertex] = frozenset(range(1, g.degree(slack_vertex) + 2))
    assignment = ListAssignment(lists)
    coloring = degree_list_coloring(g, assignment)
    verify_list_coloring(g, coloring, assignment)


def test_gallai_tree_tight_lists_unsolvable_raises():
    """K_4 with identical 3-lists everywhere has no coloring — a clear error."""
    g = classic.complete_graph(4)
    with pytest.raises(ColoringError):
        degree_list_coloring(g, uniform_lists(g, 3))


def test_odd_cycle_tight_equal_lists_raises():
    g = classic.cycle(5)
    with pytest.raises(ColoringError):
        degree_list_coloring(g, uniform_lists(g, 2))


def test_gallai_tree_tight_but_lucky_lists_still_solved():
    """A Gallai tree with tight lists that happen to admit a coloring."""
    g = classic.cycle(5)
    lists = ListAssignment({0: {1, 2}, 1: {2, 3}, 2: {3, 1}, 3: {1, 2}, 4: {2, 3}})
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


# -- extension helper --------------------------------------------------------------

def test_extend_partial_coloring():
    g = classic.grid_2d(3, 3)
    lists = uniform_lists(g, 4)
    partial = {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    uncolored = {v for v in g if v not in partial}
    full = extend_partial_coloring(g, lists, partial, uncolored)
    verify_list_coloring(g, full, lists)
    assert all(full[v] == c for v, c in partial.items())


# -- randomized / property-based ----------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_non_gallai_graphs_with_degree_lists(seed):
    """Random 2-degenerate-ish graphs containing an even cycle are degree-choosable."""
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    g = classic.cycle(n if n % 2 == 0 else n + 1)  # even cycle core
    m = g.number_of_vertices()
    for extra in range(rng.randint(1, 5)):
        u = rng.randrange(m)
        g.add_edge(("x", extra), u)
        g.add_edge(("x", extra), (u + 1) % m)
    lists = ListAssignment(
        {v: frozenset(rng.sample(range(1, 10), g.degree(v))) for v in g}
    )
    if not is_degree_choosable_instance(g, lists):
        return
    try:
        coloring = degree_list_coloring(g, lists)
    except ColoringError:
        # allowed only if genuinely unsolvable, which the promise excludes
        raise
    verify_list_coloring(g, coloring, lists)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_planar_triangulations_with_degree_lists(seed):
    g = planar.stacked_triangulation(12, seed=seed)
    lists = degree_lists(g)
    coloring = degree_list_coloring(g, lists)
    verify_list_coloring(g, coloring, lists)


# -- the mask kernel of the slack case ------------------------------------------

# colors whose repr order differs from their numeric or insertion order
MASK_COLORS = [1, 2, 10, "1", "red", "blue", (0, 1), ("x",), -3, None, 2.5, 3, 20, "b"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_greedy_towards_masks_matches_greedy_towards(seed):
    """Disjoint components colored in one call get the colors, in the
    order, that ``_greedy_towards`` gives each of them alone."""
    rng = random.Random(seed)
    g = Graph()
    components = []
    for c in range(rng.randint(1, 4)):
        tree = classic.random_tree(rng.randint(1, 10), seed=seed + c)
        # gappy integer labels, so repr order is not numeric order
        label = {v: 7 * v + 100 * c for v in tree}
        g.add_vertices(label.values())
        for u, v in tree.edges():
            g.add_edge(label[u], label[v])
        members = list(label.values())
        for _ in range(rng.randint(0, 3) if len(members) > 2 else 0):
            u, v = rng.sample(members, 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        components.append(members)
    lists = {v: frozenset(rng.sample(MASK_COLORS, g.degree(v))) for v in g}
    targets = {}
    for c, members in enumerate(components):
        if c == 0 or rng.random() < 0.8:  # the others stay uncolored
            target = rng.choice(members)
            lists[target] = frozenset(rng.sample(MASK_COLORS, g.degree(target) + 1))
            targets[c] = target
    frozen = g.freeze()
    offsets, neighbors = frozen.csr_lists()
    labels = frozen.vertices()
    universe = PaletteUniverse(MASK_COLORS)
    masks = {frozen.index_of(v): universe.encode(lists[v]) for v in frozen}

    order, picks = greedy_towards_masks(
        offsets, neighbors, labels, masks,
        [frozen.index_of(t) for t in targets.values()],
    )
    assert len(order) == sum(len(components[c]) for c in targets)
    for c, target in targets.items():
        members = set(components[c])
        alone = _greedy_towards(
            frozen.subgraph(members),
            ListAssignment({v: lists[v] for v in members}),
            target,
        )
        mine = [i for i in order if labels[i] in members]
        assert [labels[i] for i in mine] == list(alone)
        assert [universe.color_of(picks[i]) for i in mine] == list(alone.values())


def test_greedy_towards_masks_reports_an_empty_mask():
    # path a - b colored towards a: b first takes bit 0, then a has none left
    order, picks = greedy_towards_masks(
        [0, 1, 2], [1, 0], ["a", "b"], {0: 0b1, 1: 0b1}, [0]
    )
    assert order == [1, 0]
    assert picks == {1: 0, 0: -1}
