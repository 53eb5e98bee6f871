"""The array path of the coloring checks gives the dict path's verdicts.

A batched engine result is a :class:`~repro.local.simulator.LazyOutputs`
view over the program's ``int64`` color register.  When the view is
aligned with the checked graph's CSR, the predicates of
:mod:`repro.coloring.verification` and the coloring oracles read that array
(one length test, one gather-compare, one ``np.unique``) instead of
scanning a mapping.  ``tests/test_verify_oracles.py`` pins the dict path;
this module pins the array path to it:

* a hypothesis property over random sparse, planar and torus graphs, with
  integer, string and tuple labels, for batched greedy, randomized Δ+1 and
  wave results and for corrupted copies of their colors;
* a memory pin: checking and digesting a 10^5-vertex view leaves less
  traced memory behind than one ``{label: color}`` dict of it, and an
  identity-labelled graph's network and views share its label ``range``.

The list-coloring oracle accepts through ``respects_lists``; a test pins
its ``checked`` count to the per-vertex scan's.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.assignment import ListAssignment, uniform_lists
from repro.coloring.verification import (
    is_complete,
    is_proper_coloring,
    number_of_colors,
    verify_coloring,
)
from repro.distributed.greedy_baseline import (
    BatchGreedyLocalMaximaAlgorithm,
    greedy_distributed_coloring,
)
from repro.distributed.randomized import randomized_delta_plus_one_coloring
from repro.distributed.wave import BatchWaveTwoColoring
from repro.errors import ColoringError
from repro.graphs.frozen import FrozenGraph
from repro.graphs.generators import planar, sparse, streaming
from repro.graphs.graph import Graph
from repro.local import Network, SynchronousSimulator
from repro.local.simulator import LazyOutputs
from repro.verify import (
    ListColoringOracle,
    PaletteBudgetOracle,
    ProperColoringOracle,
    coloring_digest,
)

seeds = st.integers(min_value=0, max_value=2**20)


def _relabel(graph, label):
    """``graph`` frozen under the labels ``label(v)``, in the same vertex order."""
    vertices = [label(v) for v in graph.vertices()]
    edges = [(label(u), label(v)) for u, v in graph.edges()]
    return Graph(vertices=vertices, edges=edges).freeze()


@st.composite
def frozen_graphs(draw):
    """Random frozen graphs: forest unions, planar triangulations, tori.

    Tori come from ``FrozenGraph.from_edge_array`` (identity labels); the
    others are relabelled to strings or tuples half of the time.
    """
    family = draw(st.sampled_from(["forests", "planar", "torus"]))
    seed = draw(seeds)
    if family == "torus":
        rows = draw(st.integers(min_value=3, max_value=12))
        cols = draw(st.integers(min_value=3, max_value=12))
        return streaming.stream_torus(rows, cols, shuffle_seed=seed)
    n = draw(st.integers(min_value=3, max_value=180))
    if family == "forests":
        graph = sparse.union_of_random_forests(n, 2, seed=seed)
    else:
        graph = planar.stacked_triangulation(n, seed=seed)
    labels = draw(st.sampled_from(["int", "str", "tuple"]))
    if labels == "str":
        return _relabel(graph, lambda v: f"v{v}")
    if labels == "tuple":
        return _relabel(graph, lambda v: (v % 7, f"{v}"))
    return graph.freeze()


def _batched_results(graph, seed):
    """``(view, palette budget)`` of batched greedy, randomized Δ+1 and the wave."""
    greedy = greedy_distributed_coloring(graph)
    randomized = randomized_delta_plus_one_coloring(graph, seed=seed)
    root = graph.vertices()[0]
    # no round cap is hit, but a wave on a non-bipartite graph ends improper
    # and one on a disconnected graph leaves vertices at -1
    wave = SynchronousSimulator(Network(graph)).run(
        BatchWaveTwoColoring, inputs={root: 1}, max_rounds=len(graph) + 2
    )
    return [
        (greedy.coloring, greedy.palette_size),
        (randomized.coloring, randomized.palette_size),
        (wave.outputs, 2),
    ]


def _verify_outcome(graph, coloring):
    try:
        verify_coloring(graph, coloring)
    except ColoringError as exc:
        return str(exc)
    return None


def _assert_same_verdicts(graph, view, budget, checked_graph=None):
    """Every check gives equal verdicts on ``view`` and ``dict(view.items())``.

    The view is checked against ``checked_graph`` (default ``graph``), the
    dict against ``graph``.
    """
    subject = graph if checked_graph is None else checked_graph
    plain = dict(view.items())
    lists = uniform_lists(graph, max(budget, 1))
    assert ProperColoringOracle().check(
        graph=subject, coloring=view
    ) == ProperColoringOracle().check(graph=graph, coloring=plain)
    assert ProperColoringOracle().check(
        graph=subject, coloring=view, require_complete=False
    ) == ProperColoringOracle().check(
        graph=graph, coloring=plain, require_complete=False
    )
    assert ListColoringOracle().check(
        graph=subject, coloring=view, lists=lists
    ) == ListColoringOracle().check(graph=graph, coloring=plain, lists=lists)
    assert is_proper_coloring(subject, view) == is_proper_coloring(graph, plain)
    assert is_complete(subject, view) == is_complete(graph, plain)
    assert _verify_outcome(subject, view) == _verify_outcome(graph, plain)
    used = number_of_colors(plain)
    assert number_of_colors(view) == used
    for cap in (budget, used - 1):
        assert PaletteBudgetOracle().check(
            coloring=view, budget=cap
        ) == PaletteBudgetOracle().check(coloring=plain, budget=cap)


def _corrupted_views(graph, view, budget):
    """Views over copies of the colors: one monochromatic edge, one color past the budget."""
    offsets, neighbors = graph.csr_arrays()
    copies = []
    with_edges = np.flatnonzero(np.diff(offsets))
    if with_edges.size:
        u = int(with_edges[0])
        mono = view.colors.copy()
        mono[u] = mono[int(neighbors[offsets[u]])]
        copies.append(mono)
    over = view.colors.copy()
    over[-1] = budget + 1
    copies.append(over)
    index = {v: i for i, v in enumerate(view.labels)}
    return [LazyOutputs(view.labels, colors, view.graph, index) for colors in copies]


@given(frozen_graphs(), seeds)
@settings(max_examples=30, deadline=None)
def test_array_path_gives_dict_path_verdicts(graph, seed):
    for view, budget in _batched_results(graph, seed):
        assert isinstance(view, LazyOutputs)
        assert view.graph is graph and view.colors is not None
        plain = dict(view.items())
        assert view == plain and plain == view
        assert list(view) == graph.vertices() == list(plain)
        assert all(type(c) is int for c in view.values())
        assert all(type(view[v]) is int for v in graph.vertices()[:5])
        assert coloring_digest(view) == coloring_digest(plain)
        _assert_same_verdicts(graph, view, budget)
        for corrupted in _corrupted_views(graph, view, budget):
            _assert_same_verdicts(graph, corrupted, budget)

        # same labels and CSR, another graph object: the dict path runs
        other = FrozenGraph(graph.vertices(), *graph.csr_arrays())
        _assert_same_verdicts(graph, view, budget, checked_graph=other)

        missing = ("absent", len(graph))
        assert missing not in view
        assert view.get(missing, "default") == "default"
        with pytest.raises(KeyError):
            view[missing]
        with pytest.raises(KeyError):
            view[len(graph) + 3]


def test_properness_narrows_codes_only_when_every_code_fits_int16():
    """Codes 65,536 apart are equal as ``int16``: one wide code keeps ``int64``."""
    n = 65_540
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    # a chord between vertices 1 and 65,537, which stay uncolored below
    graph = FrozenGraph.from_edge_array(
        n, np.concatenate([path, [[1, 65_537]]]), name="path+chord"
    )
    index = {v: i for i, v in enumerate(graph.vertices())}
    colors = 1 + np.arange(n, dtype=np.int64) % 2
    colors[65_537] = 3
    view = LazyOutputs(graph.vertices(), colors, graph, index)
    assert is_proper_coloring(graph, view)
    colors[1] = 1 + 65_536  # next to vertex 0's color 1
    assert is_proper_coloring(graph, view)
    colors[1] = 1
    assert not is_proper_coloring(graph, view)
    # a dict coloring interns its colors; an uncolored vertex's sentinel
    # code is -1 - index, so the chord joins codes -2 and -65,538
    partial = {v: int(colors[i]) for v, i in index.items() if i not in (1, 65_537)}
    assert is_proper_coloring(graph, partial)


def test_view_over_another_identifier_order_is_not_aligned():
    """Positions of a shuffled-order network are not the CSR's: dict path."""
    graph = sparse.union_of_random_forests(150, 2, seed=4).freeze()
    order = graph.vertices()[::-1]
    network = Network(graph, identifier_order=order)
    delta = graph.max_degree()
    run = SynchronousSimulator(network).run(
        BatchGreedyLocalMaximaAlgorithm, inputs=[delta] * len(order),
        max_rounds=len(order) + 2, strict=True,
    )
    view = run.outputs
    assert view.graph is None and view.colors is not None
    assert list(view) == order
    assert all(view[v] == c for v, c in view.items())
    _assert_same_verdicts(graph, view, delta + 1)


def test_view_owns_its_colors():
    """A program that keeps running cannot change a returned result."""
    graph = sparse.union_of_random_forests(60, 2, seed=2).freeze()
    network = Network(graph)
    delta = graph.max_degree()
    programs = []

    def factory():
        programs.append(BatchGreedyLocalMaximaAlgorithm())
        return programs[-1]

    run = SynchronousSimulator(network).run(
        factory, inputs=[delta] * len(graph), max_rounds=len(graph) + 2, strict=True
    )
    before = dict(run.outputs.items())
    programs[-1].colors[:] = 99
    assert dict(run.outputs.items()) == before


def test_checking_a_batched_coloring_builds_no_vertex_dict():
    """Oracles, digest and color count leave less than one dict of the view behind.

    An earlier view cached its ``{label: color}`` dict on first read; at
    n = 10^6 that raised the benchmark's peak RSS by about 33 MiB, because
    each result stays alive while the next job runs.
    """
    graph = streaming.stream_torus(317, 317, shuffle_seed=3)
    delta = graph.max_degree()
    run = SynchronousSimulator(Network(graph)).run(
        BatchGreedyLocalMaximaAlgorithm, inputs=[delta] * len(graph),
        max_rounds=len(graph) + 2, strict=True,
    )
    view = run.outputs
    tracemalloc.start()
    try:
        assert ProperColoringOracle().check(graph=graph, coloring=view).ok
        assert PaletteBudgetOracle().check(coloring=view, budget=delta + 1).ok
        coloring_digest(view)
        assert len(set(view.values())) <= delta + 1
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < sys.getsizeof(dict(view.items()))


def test_identity_labelled_network_lends_its_label_range():
    """No ``list(range(n))`` copy: 38 MiB at n = 10^6, held by every view."""
    graph = streaming.stream_torus(30, 40)
    network = Network(graph)
    assert isinstance(network.labels, range)
    assert network.labels == range(len(graph))
    delta = graph.max_degree()
    view = SynchronousSimulator(network).run(
        BatchGreedyLocalMaximaAlgorithm, inputs=[delta] * len(graph),
        max_rounds=len(graph) + 2, strict=True,
    ).outputs
    assert view.labels is network.labels
    assert list(view) == graph.vertices()
    _assert_same_verdicts(graph, view, delta + 1)


def test_list_oracle_accept_counts_every_listed_colored_vertex():
    """The ``respects_lists`` accept gives the per-vertex scan's ``checked``."""
    graph = sparse.union_of_random_forests(60, 2, seed=2).freeze()
    coloring = dict(greedy_distributed_coloring(graph, batched=True).coloring.items())
    vertices = graph.vertices()
    palette = sorted(set(coloring.values()))
    lists = ListAssignment({v: palette for v in vertices[1:]})  # vertices[0]: none
    del coloring[vertices[2]]
    proper = ProperColoringOracle().check(
        graph=graph, coloring=coloring, require_complete=False
    )
    oracle = ListColoringOracle()
    verdict = oracle.check(
        graph=graph, coloring=coloring, lists=lists, require_complete=False
    )
    assert verdict.ok
    assert verdict.checked == proper.checked + len(coloring) - 1
    coloring[vertices[3]] = "not-a-color"
    rejected = oracle.check(
        graph=graph, coloring=coloring, lists=lists, require_complete=False
    )
    assert not rejected.ok and rejected.checked == verdict.checked
    assert rejected.diagnostics == [
        f"vertex {vertices[3]!r} uses color 'not-a-color' outside its list "
        f"{sorted(map(repr, palette))}"
    ]
