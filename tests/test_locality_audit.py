"""Locality audits: the round engine's node programs are locality-faithful.

Theorem 1.5's indistinguishability argument says an r-round LOCAL
algorithm's output at a node is a function of its radius-r ball.  The
auditor of :mod:`repro.verify.locality` re-runs programs on r-ball
truncations (original identifiers, original announced ``n``) and asserts
per-node outputs are invariant.  This suite runs the audit over random
sparse and planar corpus instances for all four ported algorithm families
— Cole–Vishkin, Linial (+ color reduction), the greedy baseline and
Barenboim–Elkin's slot selection — on both the per-node and the batched
engines, so a "vectorization" that quietly reads global structure can
never land.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import default_corpus
from repro.distributed import h_partition
from repro.distributed.barenboim_elkin import BatchSlotColorSelection
from repro.distributed.cole_vishkin import (
    BatchColeVishkinForestColoring,
    ColeVishkinForestColoring,
)
from repro.distributed.greedy_baseline import (
    BatchGreedyLocalMaximaAlgorithm,
    GreedyLocalMaximaAlgorithm,
)
from repro.distributed.linial import (
    BatchColorReductionAlgorithm,
    BatchLinialColoringAlgorithm,
    ColorReductionAlgorithm,
    LinialColoringAlgorithm,
    delta_plus_one_coloring,
)
from repro.graphs.generators import classic, planar, sparse
from repro.local.network import Network
from repro.verify import audit_locality


def _instance(seed: int):
    """A random sparse or planar instance (frozen)."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        n = rng.randint(24, 60)
        return sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    n = rng.randint(20, 50)
    return planar.stacked_triangulation(n, seed=seed).freeze()


def _sample(graph, seed: int, k: int = 4):
    rng = random.Random(seed)
    vertices = graph.vertices()
    return vertices if len(vertices) <= k else rng.sample(vertices, k)


def _bfs_parents(graph):
    parents = {}
    for v in graph:
        if v in parents:
            continue
        parents[v] = None
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w not in parents:
                    parents[w] = u
                    queue.append(w)
    return parents


def _assert_audit(graph, factory, inputs, vertices, network=None):
    report = audit_locality(
        graph, factory, inputs, vertices=vertices, network=network
    )
    assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Cole–Vishkin (per-node and batched) on BFS forests of the instances
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cole_vishkin_locality(seed):
    graph = _instance(seed)
    forest = classic.empty_graph(0)
    for v in graph:
        forest.add_vertex(v)
    parents = _bfs_parents(graph)
    forest.add_edges((v, p) for v, p in parents.items() if p is not None)
    frozen = forest.freeze()
    network = Network(frozen)
    inputs = {
        v: None if p is None else network.identifier_of[p]
        for v, p in parents.items()
    }
    audited = _sample(frozen, seed)
    _assert_audit(frozen, ColeVishkinForestColoring, inputs, audited, network)
    _assert_audit(frozen, BatchColeVishkinForestColoring, inputs, audited, network)


def test_cole_vishkin_locality_long_path():
    """A path much longer than the CV round count: balls are genuine
    truncations (29 vertices of 400), not the whole graph."""
    graph = classic.path(400).freeze()
    network = Network(graph)
    inputs = {
        v: None if v == 0 else network.identifier_of[v - 1] for v in graph
    }
    for factory in (ColeVishkinForestColoring, BatchColeVishkinForestColoring):
        report = audit_locality(
            graph, factory, inputs, vertices=[0, 57, 200, 399], network=network
        )
        assert report.ok, report.violations
        assert report.rounds + 1 < 400  # the audit really truncated


# ---------------------------------------------------------------------------
# greedy baseline (per-node and batched)
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_greedy_locality(seed):
    graph = _instance(seed)
    delta = max(1, graph.max_degree())
    inputs = {v: delta for v in graph}
    audited = _sample(graph, seed)
    _assert_audit(graph, GreedyLocalMaximaAlgorithm, inputs, audited)
    _assert_audit(graph, BatchGreedyLocalMaximaAlgorithm, inputs, audited)


# ---------------------------------------------------------------------------
# Linial + color reduction (per-node and batched)
# ---------------------------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_linial_locality(seed):
    # n >= 150 so the Linial schedule is non-empty (below ~q^2 the
    # identifier space is already small enough and zero rounds run)
    n = 150 + (seed % 80)
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    delta = max(1, graph.max_degree())
    inputs = {v: delta for v in graph}
    audited = _sample(graph, seed)
    _assert_audit(graph, LinialColoringAlgorithm, inputs, audited)
    _assert_audit(graph, BatchLinialColoringAlgorithm, inputs, audited)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_color_reduction_locality(seed):
    graph = _instance(seed)
    network = Network(graph)
    n = len(graph)
    delta = max(1, graph.max_degree())
    # identifiers form a proper n-coloring: the reduction's legal input
    inputs = {
        v: (network.identifier_of[v] - 1, n, delta) for v in graph
    }
    audited = _sample(graph, seed)
    _assert_audit(graph, ColorReductionAlgorithm, inputs, audited, network)
    _assert_audit(graph, BatchColorReductionAlgorithm, inputs, audited, network)


# ---------------------------------------------------------------------------
# Barenboim–Elkin slot selection (the batched engine's coloring phase)
# ---------------------------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_barenboim_elkin_slot_selection_locality(seed):
    pytest.importorskip("numpy")
    rng = random.Random(seed)
    n = rng.randint(30, 70)
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    partition = h_partition(graph, arboricity=2)
    palette_size = 7  # floor((2+1)*2) + 1

    slot_of = {}
    slot_counts = [1] * len(partition.classes)
    for class_index in range(len(partition.classes) - 1, -1, -1):
        members = partition.classes[class_index]
        slots = delta_plus_one_coloring(graph.subgraph(members))
        slot_counts[class_index] = max(slots.coloring.values(), default=0) + 1
        for v in members:
            slot_of[v] = (class_index, slots.coloring[v])
    announced = tuple(slot_counts)
    inputs = {
        v: (class_index, slot, palette_size, announced)
        for v, (class_index, slot) in slot_of.items()
    }
    _assert_audit(graph, BatchSlotColorSelection, inputs, _sample(graph, seed))


def test_corpus_standard_instances_greedy_locality():
    """Named corpus instances pass the audit for the greedy baseline (the
    cheapest sweep across the generator matrix)."""
    from repro.corpus import standard_instance

    corpus = default_corpus()
    for name in ("planar-tri-60-s3", "forest-union-80-a2-s1",
                 "k-tree-48-k3-s2", "power-law-72-m2-s4", "grid-6x10"):
        graph = corpus.frozen(standard_instance(name))
        delta = max(1, graph.max_degree())
        inputs = {v: delta for v in graph}
        _assert_audit(
            graph, BatchGreedyLocalMaximaAlgorithm, inputs, _sample(graph, 1)
        )
