"""FrozenGraph <-> Graph parity (property-based) and CSR-specific behavior.

The central invariant of the CSR core: freezing never changes the answer of
any read query.  The parity tests run both representations over >= 100
random instances (plus structured families) and compare degrees, edges,
balls, BFS distances, components, subgraphs and the degeneracy machinery.
Hub instances push BFS frontiers past ``FrozenGraph._VECTORIZE_FRONTIER``,
so both level expansions (scalar and vectorized) are compared as well.
"""

import pickle
import random

import pytest

from repro.errors import GraphError
from repro.graphs import FrozenGraph, Graph, freeze
from repro.graphs.generators import classic, sparse
from repro.graphs.properties.degeneracy import (
    _degeneracy_ordering_sets,
    core_numbers,
    degeneracy_ordering,
)
from repro.graphs.properties.mad import mad_lower_bound_greedy, maximum_average_degree


def random_instance(seed: int) -> Graph:
    """A random graph; the family varies with the seed."""
    rng = random.Random(seed)
    family = seed % 4
    if family == 0:  # G(n, p)
        n = rng.randrange(1, 36)
        p = rng.choice([0.05, 0.1, 0.25, 0.5])
        g = Graph(vertices=range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    g.add_edge(i, j)
        return g
    if family == 1:
        return sparse.union_of_random_forests(rng.randrange(2, 40), rng.randrange(1, 4), seed=seed)
    if family == 2:
        return sparse.random_degenerate_graph(rng.randrange(1, 40), rng.randrange(0, 4), seed=seed)
    # disconnected union with tuple labels
    g = Graph()
    for c in range(rng.randrange(1, 4)):
        size = rng.randrange(1, 10)
        vertices = [(c, i) for i in range(size)]
        g.add_vertices(vertices)
        for i in range(1, size):
            g.add_edge(vertices[rng.randrange(i)], vertices[i])
    return g


def as_edge_set(graph):
    return {frozenset(e) for e in graph.edges()}


def test_parity_on_100_random_instances():
    """Acceptance: identical degrees, balls, components, degeneracy order."""
    checked = 0
    for seed in range(100):
        g = random_instance(seed)
        f = g.freeze()
        assert len(f) == len(g)
        assert set(f.vertices()) == set(g.vertices())
        assert f.degrees() == g.degrees()
        assert f.number_of_edges() == g.number_of_edges()
        assert as_edge_set(f) == as_edge_set(g)
        assert sorted(map(frozenset, f.connected_components())) == sorted(
            map(frozenset, g.connected_components())
        )
        rng = random.Random(seed + 1000)
        for v in g:
            assert set(f.neighbors(v)) == set(g.neighbors(v))
            radius = rng.randrange(0, 4)
            assert f.ball(v, radius) == g.ball(v, radius)
        # identical degeneracy ordering through the public entry point
        assert degeneracy_ordering(f) == degeneracy_ordering(g)
        checked += 1
    assert checked == 100


def test_parity_bfs_subgraph_has_edge():
    for seed in range(40):
        g = random_instance(seed)
        f = g.freeze()
        rng = random.Random(seed)
        vertices = g.vertices()
        for v in vertices:
            assert f.bfs_distances(v) == g.bfs_distances(v)
            assert f.bfs_distances(v, radius=2) == g.bfs_distances(v, radius=2)
        for _ in range(20):
            u, v = rng.choice(vertices), rng.choice(vertices)
            assert f.has_edge(u, v) == g.has_edge(u, v)
        keep = [v for v in vertices if rng.random() < 0.5]
        fs, gs = f.subgraph(keep), g.subgraph(keep)
        assert isinstance(fs, FrozenGraph)
        assert fs.degrees() == gs.degrees()
        assert as_edge_set(fs) == as_edge_set(gs)


def test_parity_degeneracy_oracles():
    """CSR peel agrees with the legacy heap implementation and is valid."""
    for seed in range(30):
        g = random_instance(seed)
        f = g.freeze()
        degen_legacy, order_legacy = _degeneracy_ordering_sets(g)
        degen, order = f.degeneracy_ordering()
        assert degen == degen_legacy
        assert sorted(map(repr, order)) == sorted(map(repr, order_legacy))
        position = {v: i for i, v in enumerate(order)}
        for v in g:
            later = sum(1 for u in g.neighbors(v) if position[u] > position[v])
            assert later <= degen
        cores = core_numbers(f)
        assert max(cores.values(), default=0) == degen
        if g.number_of_edges():
            lower = mad_lower_bound_greedy(f)
            exact = maximum_average_degree(g)
            assert exact / 2 - 1e-9 <= lower <= exact + 1e-9


def test_all_balls_matches_per_vertex():
    for seed in range(20):
        g = random_instance(seed)
        f = g.freeze()
        for radius in (0, 1, 2, 7):
            assert f.all_balls(radius) == {v: g.ball(v, radius) for v in g}


def hub_instances() -> list[Graph]:
    """Graphs with a hub of degree above ``FrozenGraph._VECTORIZE_FRONTIER``.

    A star whose leaves each carry a pendant vertex, and random degenerate
    graphs with a hub joined to 300 of their vertices plus a separate small
    component.
    """
    star = Graph(name="star-with-pendants")
    for leaf in range(1, 301):
        star.add_edge(0, leaf)
        star.add_edge(leaf, leaf + 300)
    graphs = [star]
    for seed in range(5):
        g = sparse.random_degenerate_graph(400 + 20 * seed, 1 + seed % 3, seed=seed)
        hub = len(g)
        rng = random.Random(seed)
        for v in rng.sample(g.vertices(), 300):
            g.add_edge(hub, v)
        g.add_edges([(("tail", i), ("tail", i + 1)) for i in range(3)])
        graphs.append(g)
    return graphs


def graph_levels(g: Graph, sources, radius) -> list[set]:
    """BFS frontiers of ``Graph`` from a source set, as label sets."""
    distance: dict = {}
    for s in sources:
        for v, d in g.bfs_distances(s, radius).items():
            distance[v] = min(d, distance.get(v, d))
    levels: list[set] = [set() for _ in range(max(distance.values(), default=-1) + 1)]
    for v, d in distance.items():
        levels[d].add(v)
    return levels


def test_vectorized_bfs_levels_match_graph():
    """Frontiers of 256+ vertices take ``_expand_frontier_np``; the answers
    must not change (balls, distances, components, multi-source levels)."""
    for g in hub_instances():
        f = g.freeze()
        hub = max(g.vertices(), key=g.degree)
        frontier_sizes = [len(level) for level in f.multi_source_levels([f.index_of(hub)])]
        assert max(frontier_sizes) >= FrozenGraph._VECTORIZE_FRONTIER
        rng = random.Random(len(g))
        probes = [hub] + rng.sample(g.vertices(), 12)
        for v in probes:
            assert f.bfs_distances(v) == g.bfs_distances(v)
            assert f.bfs_distances(v, radius=2) == g.bfs_distances(v, radius=2)
            for radius in (0, 1, 2, 3):
                assert f.ball(v, radius) == g.ball(v, radius)
        assert set(map(frozenset, f.connected_components())) == set(
            map(frozenset, g.connected_components())
        )
        for radius in (None, 1, 2, 3):
            sources = probes[:4] + probes[:1]  # a duplicate source is ignored
            levels = f.multi_source_levels([f.index_of(v) for v in sources], radius)
            assert levels[0] == list(dict.fromkeys(f.index_of(v) for v in sources))
            assert [{f.label_of(i) for i in level} for level in levels] == graph_levels(
                g, sources, radius
            )


def test_freeze_thaw_round_trip():
    for seed in range(10):
        g = random_instance(seed)
        f = g.freeze()
        assert f.thaw() == g
        assert f == g  # cross-representation equality
        assert freeze(f) is f  # idempotent
        assert f.freeze() is f
        assert f.copy() is f


def test_frozen_graph_is_immutable():
    f = classic.cycle(4).freeze()
    with pytest.raises(GraphError):
        f.add_edge(0, 2)
    with pytest.raises(GraphError):
        f.add_vertex(99)
    with pytest.raises(GraphError):
        f.remove_vertex(0)
    with pytest.raises(GraphError):
        f.remove_edge(0, 1)


def test_frozen_graph_errors_on_missing_vertex():
    f = classic.path(3).freeze()
    with pytest.raises(GraphError):
        f.neighbors(99)
    with pytest.raises(GraphError):
        f.degree(99)
    with pytest.raises(GraphError):
        f.bfs_distances(99)
    assert not f.has_edge(0, 99)


def test_frozen_graph_stats_and_metadata():
    g = sparse.union_of_random_forests(30, 2, seed=1)
    f = g.freeze()
    assert f.max_degree() == g.max_degree()
    assert f.min_degree() == g.min_degree()
    assert f.average_degree() == pytest.approx(g.average_degree())
    assert f.metadata == g.metadata
    assert f.name == g.name
    assert not f.is_empty()
    assert Graph().freeze().is_empty()
    assert Graph().freeze().degeneracy_ordering() == (0, [])
    assert Graph().freeze().all_balls(3) == {}


def test_frozen_graph_pickle_round_trip():
    g = random_instance(3)
    f = g.freeze()
    f2 = pickle.loads(pickle.dumps(f))
    assert f2 == f
    assert f2.degrees() == f.degrees()
    assert f2.degeneracy_ordering() == f.degeneracy_ordering()


def test_zero_copy_neighbor_slice():
    f = classic.cycle(5).freeze()
    i = f.index_of(0)
    sl = f.neighbor_slice(i)
    assert sorted(f.label_of(int(j)) for j in sl) == sorted(f.neighbors(0))


def test_pipeline_parity_graph_vs_frozen():
    """Theorem 1.3 end to end: a mutable input is frozen on entry, so it
    must get the same layers, rounds and coloring as its frozen copy."""
    from repro.core.peeling import peel_happy_layers
    from repro.core.sparse_coloring import color_sparse_graph

    g = sparse.union_of_random_forests(60, 2, seed=7)
    peel_graph = peel_happy_layers(g, 4)
    peel_frozen = peel_happy_layers(g.freeze(), 4)
    assert [
        (layer.removed, layer.graph_size, layer.radius_used)
        for layer in peel_graph.layers
    ] == [
        (layer.removed, layer.graph_size, layer.radius_used)
        for layer in peel_frozen.layers
    ]
    assert peel_graph.ledger.total() == peel_frozen.ledger.total()

    res_graph = color_sparse_graph(g, 4)
    res_frozen = color_sparse_graph(g.freeze(), 4)  # verify=True checks propriety
    assert res_graph.succeeded and res_frozen.succeeded
    assert [layer.removed for layer in res_graph.peeling.layers] == [
        layer.removed for layer in res_frozen.peeling.layers
    ]
    assert res_graph.rounds == res_frozen.rounds
    assert res_graph.coloring == res_frozen.coloring
    assert set(res_frozen.coloring) == set(g.vertices())
    assert res_frozen.colors_used() <= 4


def test_frozen_subgraph_of_frozen_stays_frozen_and_correct():
    g = classic.grid_2d(5, 5)
    f = g.freeze()
    sub = f.subgraph([v for v in g if sum(v) % 2 == 0])
    assert isinstance(sub, FrozenGraph)
    expected = g.subgraph([v for v in g if sum(v) % 2 == 0])
    assert sub.degrees() == expected.degrees()
    assert sub.thaw() == expected
