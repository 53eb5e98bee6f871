"""Tests for structural properties: degeneracy, girth, blocks, Gallai trees, cliques."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import classic, planar, sparse
from repro.graphs.properties.blocks import (
    biconnected_components,
    block_cut_tree,
    blocks_and_cut_vertices,
    cut_vertices,
    is_biconnected,
    leaf_blocks,
)
from repro.graphs.properties.cliques import find_clique_of_size, is_clique, max_clique_greedy
from repro.graphs.properties.degeneracy import (
    core_numbers,
    degeneracy,
    degeneracy_ordering,
    greedy_color_along,
    k_core,
)
from repro.graphs.properties.gallai import (
    block_is_clique,
    block_is_odd_cycle,
    is_gallai_forest,
    is_gallai_tree,
    non_gallai_blocks,
)
from repro.graphs.properties.girth import girth, has_triangle, shortest_cycle_through
from repro.verify import CliqueWitnessOracle


# -- degeneracy -------------------------------------------------------------

def test_degeneracy_of_basic_graphs():
    assert degeneracy(classic.path(10)) == 1
    assert degeneracy(classic.cycle(10)) == 2
    assert degeneracy(classic.complete_graph(5)) == 4
    assert degeneracy(classic.random_tree(30, seed=1)) == 1


def test_degeneracy_of_planar_triangulation():
    g = planar.stacked_triangulation(30, seed=2)
    assert degeneracy(g) == 3  # planar 3-trees are exactly 3-degenerate


def test_degeneracy_ordering_property():
    g = planar.delaunay_triangulation(40, seed=3)
    degen, order = degeneracy_ordering(g)
    position = {v: i for i, v in enumerate(order)}
    for v in g:
        later = sum(1 for u in g.neighbors(v) if position[u] > position[v])
        assert later <= degen


def test_greedy_color_along_degeneracy_order():
    g = planar.stacked_triangulation(40, seed=4)
    degen, order = degeneracy_ordering(g)
    coloring = greedy_color_along(g, order)
    assert len(set(coloring.values())) <= degen + 1
    assert all(coloring[u] != coloring[v] for u, v in g.edges())


def test_core_numbers_and_k_core():
    g = classic.complete_graph(4)
    g.add_edge(0, "pendant")
    cores = core_numbers(g)
    assert cores["pendant"] == 1
    assert cores[1] == 3
    assert set(k_core(g, 3).vertices()) == {0, 1, 2, 3}


# -- girth ------------------------------------------------------------------

def test_girth_values():
    assert girth(classic.cycle(7)) == 7
    assert girth(classic.complete_graph(4)) == 3
    assert math.isinf(girth(classic.random_tree(20, seed=5)))
    assert girth(classic.grid_2d(3, 3)) == 4


def test_has_triangle():
    assert has_triangle(classic.complete_graph(3))
    assert not has_triangle(classic.grid_2d(4, 4))
    assert not has_triangle(classic.random_tree(10, seed=6))


def test_shortest_cycle_through():
    g = classic.cycle(8)
    assert shortest_cycle_through(g, 0) == 8
    g.add_edge(0, 4)
    assert shortest_cycle_through(g, 0) == 5
    assert math.isinf(shortest_cycle_through(classic.path(5), 2))


# -- blocks -----------------------------------------------------------------

def test_blocks_of_a_tree_are_edges():
    t = classic.random_tree(15, seed=7)
    blocks = biconnected_components(t)
    assert all(len(b) == 2 for b in blocks)
    assert len(blocks) == 14


def test_blocks_and_cut_vertices_of_two_triangles():
    g = classic.gallai_tree([("clique", 3), ("clique", 3)])
    blocks, cuts = blocks_and_cut_vertices(g)
    assert len(blocks) == 2
    assert len(cuts) == 1


def test_isolated_vertex_is_singleton_block():
    from repro.graphs import Graph

    g = Graph(vertices=[1, 2], edges=[])
    blocks = biconnected_components(g)
    assert sorted(len(b) for b in blocks) == [1, 1]


def test_is_biconnected():
    assert is_biconnected(classic.cycle(5))
    assert is_biconnected(classic.complete_graph(4))
    assert not is_biconnected(classic.path(4))
    assert not is_biconnected(classic.gallai_tree([("clique", 3), ("clique", 3)]))


def test_block_cut_tree_shape():
    g = classic.gallai_tree([("clique", 3), ("odd_cycle", 5), ("clique", 4)])
    tree, membership, blocks = block_cut_tree(g)
    assert len(blocks) == 3
    # the block-cut tree of a path of blocks is itself a path: b - c - b - c - b
    assert tree.number_of_vertices() == 5
    assert tree.number_of_edges() == 4
    cut_count = len(cut_vertices(g))
    assert cut_count == 2
    assert all(len(membership[v]) >= 1 for v in g)


def test_leaf_blocks():
    g = classic.gallai_tree([("clique", 3), ("odd_cycle", 5), ("clique", 4)])
    leaves = leaf_blocks(g)
    assert len(leaves) == 2


# -- Gallai trees ------------------------------------------------------------

def test_trees_and_cliques_and_odd_cycles_are_gallai():
    assert is_gallai_tree(classic.random_tree(20, seed=8))
    assert is_gallai_tree(classic.complete_graph(5))
    assert is_gallai_tree(classic.cycle(7))
    assert is_gallai_tree(classic.gallai_tree([("clique", 4), ("odd_cycle", 3)]))


def test_even_cycles_and_theta_graphs_are_not_gallai():
    assert not is_gallai_tree(classic.cycle(6))
    assert not is_gallai_tree(classic.theta_graph([2, 2, 2]))
    assert not is_gallai_tree(classic.grid_2d(2, 3))


def test_gallai_forest_vs_tree():
    from repro.graphs import Graph

    two_triangles = Graph(edges=[(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert is_gallai_forest(two_triangles)
    assert not is_gallai_tree(two_triangles)  # disconnected
    assert not is_gallai_tree(Graph())


def test_non_gallai_blocks_identified():
    g = classic.gallai_tree([("clique", 3)])
    # attach an even (4-)cycle sharing one vertex
    g.add_edges([(0, 100), (100, 101), (101, 102), (102, 0)])
    bad = non_gallai_blocks(g)
    assert len(bad) == 1
    assert len(bad[0]) == 4


def test_block_predicates():
    g = classic.cycle(5)
    block = frozenset(g.vertices())
    assert block_is_odd_cycle(g, block)
    assert not block_is_clique(g, block)
    k4 = classic.complete_graph(4)
    assert block_is_clique(k4, frozenset(k4.vertices()))


# -- cliques ----------------------------------------------------------------

def test_find_clique_of_size():
    g = planar.stacked_triangulation(20, seed=9)
    assert find_clique_of_size(g, 4) is not None  # planar 3-trees contain K4
    assert find_clique_of_size(g, 5) is None      # but no K5 (planar)
    assert find_clique_of_size(classic.complete_graph(6), 6) is not None
    assert find_clique_of_size(classic.cycle(8), 3) is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(3, 5),
    # below size - 1 the search returns at once; from size - 1 up it runs
    degeneracy=st.integers(1, 5),
    plant=st.booleans(),
    frozen=st.booleans(),
)
def test_find_clique_of_size_agrees_with_networkx(seed, size, degeneracy, plant, frozen):
    rng = random.Random(seed)
    g = sparse.random_degenerate_graph(rng.randint(size, 40), degeneracy, seed=seed)
    if plant:
        for u, v in combinations(rng.sample(g.vertices(), size), 2):
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    graph = g.freeze() if frozen else g
    found = find_clique_of_size(graph, size)
    exists = any(len(c) >= size for c in nx.find_cliques(g.to_networkx()))
    assert (found is None) == (not exists)
    if found is not None:
        CliqueWitnessOracle().check(
            graph=graph, clique=found, size=size
        ).raise_if_failed()


def test_find_clique_small_sizes():
    g = classic.path(3)
    assert find_clique_of_size(g, 1) is not None
    assert find_clique_of_size(g, 2) is not None
    from repro.graphs import Graph

    assert find_clique_of_size(Graph(), 1) is None


def test_is_clique_and_greedy():
    g = classic.complete_graph(5)
    assert is_clique(g, [0, 1, 2, 3])
    assert len(max_clique_greedy(g)) == 5
    assert not is_clique(classic.cycle(5), [0, 1, 2])
