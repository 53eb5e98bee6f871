"""Integration tests for Theorem 1.3 and its corollaries (the paper's main results)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.coloring.assignment import random_lists, uniform_lists
from repro.coloring.verification import verify_list_coloring
from repro.core import (
    color_bounded_arboricity_graph,
    color_high_girth_planar_graph,
    color_planar_graph,
    color_sparse_graph,
    color_triangle_free_planar_graph,
)
from repro.core.extension import _FlatColoringState, extend_coloring_to_happy_set
from repro.core.happy import classify_vertices
from repro.errors import ColoringError
from repro.graphs.generators import classic, planar, sparse


# -- Theorem 1.3, uniform lists ---------------------------------------------------

@pytest.mark.parametrize("maker,kwargs,d", [
    (sparse.union_of_random_forests, {"n": 60, "arboricity": 2, "seed": 1}, 4),
    (sparse.random_degenerate_graph, {"n": 60, "degeneracy": 2, "seed": 2}, 4),
    (classic.random_regular_graph, {"n": 40, "d": 4, "seed": 3}, 4),
    (planar.stacked_triangulation, {"n_vertices": 50, "seed": 4}, 6),
    (planar.outerplanar_fan, {"n": 40}, 4),
    (classic.grid_2d, {"rows": 6, "cols": 7}, 4),
])
def test_theorem_1_3_colors_within_budget(maker, kwargs, d):
    g = maker(**kwargs)
    result = color_sparse_graph(g, d=d)
    assert result.succeeded
    assert result.colors_used() <= d
    verify_list_coloring(g, result.coloring, uniform_lists(g, d))
    assert result.rounds > 0


def test_theorem_1_3_rejects_small_d():
    with pytest.raises(ValueError):
        color_sparse_graph(classic.cycle(5), d=2)


def test_theorem_1_3_finds_clique():
    g = classic.complete_graph(5)
    # embed the K5 into a sparse context
    for i in range(10):
        g.add_edge(0, ("leaf", i))
    result = color_sparse_graph(g, d=4, verify=False)
    assert not result.succeeded
    assert result.clique is not None
    assert len(result.clique) == 5


def test_theorem_1_3_empty_graph():
    from repro.graphs import Graph

    result = color_sparse_graph(Graph(), d=3)
    assert result.succeeded
    assert result.coloring == {}


def test_theorem_1_3_with_list_assignments():
    g = sparse.union_of_random_forests(50, 2, seed=5)
    lists = random_lists(g, 4, palette_size=9, seed=5)
    result = color_sparse_graph(g, d=4, lists=lists)
    assert result.succeeded
    verify_list_coloring(g, result.coloring, lists)


def test_theorem_1_3_d_regular_with_lists():
    """The hardest regime: d-regular graphs (no slack vertices anywhere)."""
    g = classic.random_regular_graph(36, 4, seed=6)
    lists = random_lists(g, 4, palette_size=8, seed=6)
    result = color_sparse_graph(g, d=4, lists=lists)
    assert result.succeeded
    verify_list_coloring(g, result.coloring, lists)


def test_theorem_1_3_small_radius_variant():
    """Correctness is preserved with a smaller (practical) radius."""
    g = planar.stacked_triangulation(40, seed=7)
    result = color_sparse_graph(g, d=6, radius=3)
    assert result.succeeded
    assert result.colors_used() <= 6


def test_theorem_1_3_round_accounting_structure():
    g = sparse.union_of_random_forests(40, 2, seed=8)
    result = color_sparse_graph(g, d=4)
    phases = result.ledger.by_phase()
    assert any("Lemma 3.1" in phase for phase in phases)
    assert any("Lemma 3.2" in phase for phase in phases)
    assert result.rounds == result.ledger.total()


def test_theorem_1_3_uses_at_most_floor_mad_colors_vs_greedy():
    """On planar triangulations the greedy bound is 7 colors; Theorem 1.3 gives 6."""
    g = planar.stacked_triangulation(60, seed=9)
    result = color_planar_graph(g)
    assert result.colors_used() <= 6


# -- Lemma 3.2 in isolation ---------------------------------------------------------

def test_extension_step_extends_partial_coloring():
    g = planar.stacked_triangulation(40, seed=10)
    d = 6
    lists = uniform_lists(g, d)
    cls = classify_vertices(g, d=d, radius=4)
    rest = [v for v in g if v not in cls.happy]
    base = {}
    from repro.coloring.greedy import greedy_list_coloring
    from repro.graphs.properties.degeneracy import degeneracy_ordering

    sub = g.subgraph(rest)
    _, order = degeneracy_ordering(sub)
    base = greedy_list_coloring(sub, lists.restrict(rest), list(reversed(order)))
    coloring, report = extend_coloring_to_happy_set(
        g, lists, happy=cls.happy, rich=cls.rich, coloring=base, radius=4, d=d
    )
    verify_list_coloring(g, coloring, lists)
    assert report.roots >= 1
    assert report.rounds > 0


@pytest.mark.parametrize("roots", [[0, 3], [0, 2]])
def test_flat_root_balls_refuse_balls_that_meet_or_touch(roots):
    """The one-pass ball coloring needs the ruling forest's guarantee that
    root balls are disjoint and non-adjacent; on a path, radius-1 balls
    around roots 3 apart touch and around roots 2 apart meet."""
    g = classic.path(6).freeze()
    state = _FlatColoringState(g, uniform_lists(g, 3).flat, {})
    with pytest.raises(ColoringError, match=f"roots {roots[0]} and {roots[1]}"):
        state.color_root_balls(roots, set(g.vertices()), radius=1)


def test_extension_with_no_happy_vertices_is_identity():
    g = classic.cycle(6)
    lists = uniform_lists(g, 3)
    coloring = {v: 1 + (v % 2) for v in g}
    new, report = extend_coloring_to_happy_set(
        g, lists, happy=set(), rich=set(g.vertices()), coloring=coloring, radius=2, d=3
    )
    assert new == coloring
    assert report.roots == 0


# Theorem 6.1 and one Lemma 3.2 step on a string-labelled graph and on its
# frozen copy: prints [coloring digest, rounds] of both calls per input
_HASH_ORDER_PROBE = """
import json
from repro.coloring.assignment import ListAssignment, uniform_lists
from repro.coloring.greedy import greedy_list_coloring
from repro.core import (
    classify_vertices, extend_coloring_to_happy_set, is_nice_list_assignment,
    nice_list_coloring,
)
from repro.graphs.generators import sparse
from repro.graphs.graph import Graph
from repro.graphs.properties.degeneracy import degeneracy_ordering
from repro.verify.parity import coloring_digest

base = sparse.random_degenerate_graph(80, 2, seed=0)
graph = Graph(vertices=[f"v{v}" for v in base.vertices()])
for u, w in base.edges():
    graph.add_edge(f"v{u}", f"v{w}")
frozen = graph.freeze()
nice = ListAssignment({
    v: frozenset(range(1, graph.degree(v) + 1 + (graph.degree(v) <= 2)))
    for v in graph
})
assert is_nice_list_assignment(graph, nice)
out = {}
for name, g in (("unfrozen", graph), ("frozen", frozen)):
    result = nice_list_coloring(g, nice)
    out[name] = [coloring_digest(result.coloring), result.rounds]
lists = uniform_lists(frozen, 4)
cls = classify_vertices(frozen, 4, radius=2)
rest = [v for v in frozen if v not in cls.happy]
sub = frozen.subgraph(rest)
_, order = degeneracy_ordering(sub)
base_coloring = greedy_list_coloring(sub, lists.restrict(rest), list(reversed(order)))
for name, g in (("unfrozen", graph), ("frozen", frozen)):
    coloring, report = extend_coloring_to_happy_set(
        g, lists, cls.happy, cls.rich, base_coloring, radius=2, d=4
    )
    out[name] += [coloring_digest(coloring), report.rounds]
print(json.dumps(out))
"""


@pytest.mark.parametrize("hash_seed", ["0", "2"])
def test_unfrozen_input_colors_as_its_frozen_copy(hash_seed):
    """Regression: an unfrozen input took identifiers and BFS order from
    ``Graph.subgraph``'s sets, so on string labels Theorem 6.1 and the
    Lemma 3.2 step colored differently from the frozen copy, and
    differently under each ``PYTHONHASHSEED``.  Every entry point now
    freezes its input, which numbers vertices in insertion order."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", _HASH_ORDER_PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(run.stdout)
    assert out["frozen"] == ["0d1be460520d905f", 9113, "005ba9d7d7e373cf", 157]
    assert out["unfrozen"] == out["frozen"]


# -- Corollary 2.3 (planar) -----------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_corollary_2_3_planar_six_colors(seed):
    g = planar.delaunay_triangulation(60, seed=seed)
    result = color_planar_graph(g)
    assert result.succeeded and result.colors_used() <= 6


def test_corollary_2_3_triangle_free_four_colors():
    g = planar.triangle_free_planar(60, seed=2)
    result = color_triangle_free_planar_graph(g)
    assert result.succeeded and result.colors_used() <= 4


def test_corollary_2_3_high_girth_three_colors():
    g = planar.high_girth_planar(80, seed=3)
    result = color_high_girth_planar_graph(g)
    assert result.succeeded and result.colors_used() <= 3


def test_corollary_2_3_planarity_check_flag():
    from repro.errors import GraphError

    k5 = classic.complete_graph(5)
    with pytest.raises(GraphError):
        color_planar_graph(k5, check_planarity=True)


def test_corollary_2_3_with_lists():
    g = planar.stacked_triangulation(40, seed=4)
    lists = random_lists(g, 6, palette_size=12, seed=4)
    result = color_planar_graph(g, lists=lists)
    assert result.succeeded
    verify_list_coloring(g, result.coloring, lists)


def test_planar_color_budget():
    from repro.core import planar_color_budget

    assert planar_color_budget(planar.stacked_triangulation(20, seed=5)) == 6
    assert planar_color_budget(planar.grid_graph(4, 4)) == 4
    assert planar_color_budget(planar.hexagonal_lattice(2, 2)) == 3


# -- Corollary 1.4 (arboricity) --------------------------------------------------------

@pytest.mark.parametrize("a", [2, 3])
def test_corollary_1_4_two_a_colors(a):
    g = sparse.union_of_random_forests(60, a, seed=a)
    result = color_bounded_arboricity_graph(g, arboricity=a)
    assert result.succeeded
    assert result.colors_used() <= 2 * a


def test_corollary_1_4_rejects_trees():
    with pytest.raises(ValueError):
        color_bounded_arboricity_graph(classic.random_tree(20, seed=6), arboricity=1)


def test_corollary_1_4_beats_barenboim_elkin_palette():
    """2a colors vs floor((2+eps)a)+1 for the baseline."""
    from repro.distributed import barenboim_elkin_coloring

    a = 2
    g = sparse.union_of_random_forests(80, a, seed=7)
    ours = color_bounded_arboricity_graph(g, arboricity=a)
    baseline = barenboim_elkin_coloring(g, arboricity=a, epsilon=1.0)
    assert ours.colors_used() <= 2 * a < baseline.palette_size
