"""Parity suite for the fused round kernels (:mod:`repro.local.kernels`).

Three layers of pinning:

* kernel unit tests — every kernel against a naive per-slot loop;
* ``reverse_slot`` of the array-first fabric builds (the frozen CSR fast
  path, the relabelled general path and the flat fault rebuilds) against
  the per-slot binary search;
* engine parity properties (hypothesis over generator seeds) — the fused
  batched engine, the unfused three-pass reference (``reference_exchange``),
  the flat per-node engine and the frozen seed engine must agree on
  outputs, rounds, total and per-round message counts for Cole–Vishkin,
  the greedy baseline, randomized Δ+1 (a broadcast that names its
  senders, also through pass-through round hooks), color reduction (on
  palettes with empty classes, also through hooks that drop messages)
  and the wave 2-coloring, on graphs with isolated vertices too;
* width-free palettes — the batched coloring programs at 63 to 131 colors
  against their per-node twins, and Barenboim–Elkin against the per-vertex
  sweep of ``baselines_reference``.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import baselines_reference
from repro.distributed.barenboim_elkin import barenboim_elkin_coloring
from repro.distributed.cole_vishkin import (
    BatchColeVishkinForestColoring,
    ColeVishkinForestColoring,
    cole_vishkin_iterations,
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
)
from repro.distributed.randomized import (
    BatchRandomizedDeltaPlusOne,
    RandomizedDeltaPlusOne,
    default_round_cap,
)
from repro.distributed.wave import BatchWaveTwoColoring, WaveTwoColoring
from repro.errors import SimulationError
from repro.faults import PerturbableNetwork
from repro.graphs.generators import classic, sparse
from repro.graphs.graph import Graph
from repro.local import Network, ReferenceSimulator, SynchronousSimulator
from repro.local import kernels
from repro.local.network import _reverse_slots_python
from repro.local.simulator import LazyOutputs
from repro.verify import assert_simulation_parity

seeds = st.integers(min_value=0, max_value=2**20)


# ---------------------------------------------------------------------------
# kernel unit tests
# ---------------------------------------------------------------------------


def _random_fabric(seed: int, n: int = 30):
    rng = random.Random(seed)
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    order = graph.vertices()
    rng.shuffle(order)
    return Network(graph, identifier_order=order).fabric


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_gather_matches_loop(seed):
    fabric = _random_fabric(seed)
    endpoints = fabric.endpoints_np
    node_values = np.arange(len(fabric.offsets_np) - 1, dtype=np.int64) * 7
    expected = np.array([node_values[e] for e in endpoints], dtype=np.int64)
    assert (kernels.gather(node_values, endpoints) == expected).all()
    out = np.empty(endpoints.shape[0], dtype=np.int64)
    got = kernels.gather(node_values, endpoints, out=out)
    assert got is out and (got == expected).all()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_compact_segments_matches_slices(seed):
    fabric = _random_fabric(seed)
    offsets = fabric.offsets_np
    n = offsets.shape[0] - 1
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(rng.integers(0, 2, size=n))
    slots, compact_offsets = kernels.compact_segments(offsets, active)
    expected = np.concatenate(
        [np.arange(offsets[i], offsets[i + 1]) for i in active]
    ) if active.size else np.empty(0, dtype=np.int64)
    assert (slots == expected).all()
    for j, i in enumerate(active):
        lo, hi = compact_offsets[j], compact_offsets[j + 1]
        assert hi - lo == offsets[i + 1] - offsets[i]
        assert (slots[lo:hi] == np.arange(offsets[i], offsets[i + 1])).all()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_fusion_identity(seed):
    """The load-bearing identity: sources[reverse_slot] == endpoints."""
    fabric = _random_fabric(seed)
    sources = fabric.sources_np()
    assert (sources[fabric.reverse_np] == fabric.endpoints_np).all()
    node_values = np.arange(len(fabric.offsets_np) - 1, dtype=np.int64) * 3 + 1
    assert (
        kernels.reference_broadcast(node_values, sources, fabric.reverse_np)
        == kernels.gather(node_values, fabric.endpoints_np)
    ).all()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_deliver_broadcast_from_matches_loop(seed):
    fabric = _random_fabric(seed)
    endpoints = fabric.endpoints_np
    n = fabric.offsets_np.shape[0] - 1
    rng = np.random.default_rng(seed)
    node_values = rng.integers(-9, 10, size=n, dtype=np.int64)
    senders = np.flatnonzero(rng.integers(0, 2, size=n))
    m = endpoints.shape[0]
    inbox, delivered = kernels.deliver_broadcast_from(
        node_values, senders, endpoints,
        inbox_out=np.empty(m, dtype=np.int64),
        delivered_out=np.empty(m, dtype=np.bool_),
    )
    speaking = set(senders.tolist())
    for k in range(m):
        assert inbox[k] == node_values[endpoints[k]]
        assert delivered[k] == (int(endpoints[k]) in speaking)


# ---------------------------------------------------------------------------
# reverse_slot of the array-first fabric builds
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw, min_n=0):
    """Random simple graphs: isolated vertices, an optional star hub, shuffled labels."""
    n = draw(st.integers(min_value=min_n, max_value=40))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    if n > 2 and draw(st.booleans()):
        hub = draw(vertex)
        edges |= {(min(hub, v), max(hub, v)) for v in range(n) if v != hub}
    labels = draw(st.permutations(range(n)))
    return Graph(
        vertices=labels, edges=[(labels[u], labels[v]) for u, v in sorted(edges)]
    )


def _assert_reverse_slot(fabric):
    reverse = fabric.reverse_np
    expected = _reverse_slots_python(
        fabric.offsets_np.tolist(), fabric.endpoints_np.tolist()
    )
    assert reverse.tolist() == expected
    assert (reverse[reverse] == np.arange(fabric.num_slots)).all()
    assert (fabric.endpoints_np[reverse] == fabric.sources_np()).all()


def _assert_ports_by_identifier(network):
    """Each node's ports list its neighbours by increasing identifier."""
    fabric = network.fabric
    index = {v: i for i, v in enumerate(network.labels)}
    for i, v in enumerate(network.labels):
        start, stop = fabric.offsets[i], fabric.offsets[i + 1]
        assert fabric.endpoints[start:stop] == sorted(
            index[u] for u in network.graph.neighbors(v)
        )


@given(small_graphs(), seeds)
@example(Graph(), 0)
@example(Graph(vertices=[7]), 0)
@example(classic.star(30), 0)
@settings(max_examples=60, deadline=None)
def test_csr_fast_path_reverse_slot(graph, seed):
    frozen = graph.freeze()
    fabric = Network(frozen).fabric
    offsets, neighbors = frozen.csr_arrays()
    assert fabric.offsets_np.tolist() == offsets.tolist()
    assert fabric.endpoints_np.tolist() == neighbors.tolist()
    _assert_reverse_slot(fabric)
    # the general path (mutable graphs, custom identifier orders) builds
    # its CSR by relabelling and goes through the same builder
    order = frozen.vertices()
    random.Random(seed).shuffle(order)
    for network in (Network(graph), Network(frozen, identifier_order=order)):
        _assert_ports_by_identifier(network)
        _assert_reverse_slot(network.fabric)


@given(
    small_graphs(min_n=1),
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 39), st.integers(0, 39)),
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_flat_fault_rebuild_reverse_slot(graph, edits):
    pnet = PerturbableNetwork(graph, backend="flat")
    labels = pnet.labels
    for insert, a, b in edits:
        u, v = labels[a % len(labels)], labels[b % len(labels)]
        if insert:
            pnet.insert_edge(u, v)
        else:
            pnet.delete_edge(u, v)
        fabric = pnet._flat_fabric()
        _assert_reverse_slot(fabric)
        reference = pnet._dict_fabric()
        assert fabric.offsets_np.tolist() == reference.offsets
        assert fabric.endpoints_np.tolist() == reference.endpoints
    _assert_reverse_slot(pnet._flat_fabric())


# ---------------------------------------------------------------------------
# cross-engine parity: fused == unfused reference == per-node == seed
# ---------------------------------------------------------------------------


def _random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    graph.add_vertex(0)
    for i in range(1, n):
        graph.add_edge(rng.randrange(i), i)
    return graph


def _four_engines(net, per_node, batched, inputs, max_rounds, strict=True):
    """Run all four data planes on one instance; return the results."""
    fused = SynchronousSimulator(net).run(
        batched, inputs=inputs, max_rounds=max_rounds, strict=strict
    )
    unfused = SynchronousSimulator(net).run(
        batched, inputs=inputs, max_rounds=max_rounds, strict=strict,
        reference_exchange=True,
    )
    flat = SynchronousSimulator(net).run(
        per_node, inputs=inputs, max_rounds=max_rounds, strict=strict
    )
    seed_result = ReferenceSimulator(net).run(
        per_node, inputs=inputs, max_rounds=max_rounds, strict=strict
    )
    return fused, unfused, flat, seed_result


def _assert_all_match(fused, unfused, flat, seed_result):
    assert_simulation_parity(fused, unfused, labels=("fused", "reference"))
    assert_simulation_parity(fused, flat, labels=("fused", "per-node"))
    assert_simulation_parity(fused, seed_result, labels=("fused", "seed"))
    assert fused.per_round_messages == seed_result.per_round_messages


@given(seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_cole_vishkin_engine_parity(seed, n):
    graph = _random_tree(n, seed).freeze()
    net = Network(graph)
    parent = {0: None}
    for v in graph.vertices():
        for u in graph.neighbors(v):
            if u > v:
                parent[u] = net.identifier_of[v]
    inputs = {v: parent.get(v) for v in graph.vertices()}
    max_rounds = 10 * cole_vishkin_iterations(n) + 30
    _assert_all_match(*_four_engines(
        net, ColeVishkinForestColoring, BatchColeVishkinForestColoring,
        inputs, max_rounds,
    ))


@given(seeds, st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_greedy_engine_parity(seed, n):
    graph = sparse.union_of_random_forests(n, 2, seed=seed).freeze()
    order = graph.vertices()
    random.Random(seed).shuffle(order)
    net = Network(graph, identifier_order=order)
    delta = max(1, graph.max_degree())
    inputs = {v: delta for v in graph.vertices()}
    _assert_all_match(*_four_engines(
        net, GreedyLocalMaximaAlgorithm, BatchGreedyLocalMaximaAlgorithm,
        inputs, n + 2,
    ))


@st.composite
def _graphs_with_isolated_vertices(draw):
    """``(graph, identifier order)``: a forest union plus isolated vertices.

    The isolated vertices sit anywhere in the vertex order, and one is
    always last (a trailing empty segment); the identifiers are shuffled.
    """
    seed = draw(seeds)
    n = draw(st.integers(min_value=2, max_value=40))
    isolated = draw(st.integers(min_value=1, max_value=5))
    rng = random.Random(seed)
    edges = sparse.union_of_random_forests(n, 2, seed=seed).edges()
    vertices = list(range(n + isolated - 1))
    rng.shuffle(vertices)
    graph = Graph(vertices=vertices + [n + isolated - 1], edges=edges).freeze()
    order = graph.vertices()
    rng.shuffle(order)
    return graph, order


class _PassThroughHooks:
    """Round hooks that edit nothing; they record each round's delivered mask."""

    def __init__(self):
        self.delivered = []

    def before_round(self, round_number, nodes):
        return None

    def edit_inbox(self, inbox, delivered):
        self.delivered.append(delivered)
        return delivered, 0

    def after_round(self, round_number, nodes, messages):
        return False


def _assert_named_senders_parity(net, seed):
    """Randomized Δ+1 on all four engines, and through pass-through hooks."""
    n = len(net.labels)
    delta = max(1, net.graph.max_degree())
    inputs = {v: (seed, delta) for v in net.labels}
    results = _four_engines(
        net, RandomizedDeltaPlusOne, BatchRandomizedDeltaPlusOne, inputs,
        default_round_cap(n),
    )
    _assert_all_match(*results)
    hooks = _PassThroughHooks()
    hooked = SynchronousSimulator(net).run(
        BatchRandomizedDeltaPlusOne, inputs=inputs,
        max_rounds=default_round_cap(n), strict=True, hooks=hooks,
    )
    assert_simulation_parity(results[0], hooked, labels=("fused", "hooked"))
    # the hooked run took the unfused path: a delivered mask every round
    assert len(hooks.delivered) == hooked.rounds
    assert all(mask is not None for mask in hooks.delivered)


@given(_graphs_with_isolated_vertices(), seeds)
@settings(max_examples=20, deadline=None)
def test_randomized_named_senders_parity(instance, seed):
    graph, order = instance
    _assert_named_senders_parity(Network(graph, identifier_order=order), seed)


@given(seeds)
@settings(max_examples=5, deadline=None)
def test_randomized_named_senders_parity_on_two_block_palettes(seed):
    # Δ + 1 = 71 colors span two uint64 blocks per palette row, 141 three
    for leaves in (70, 140):
        graph = classic.star(leaves).freeze()
        order = graph.vertices()
        random.Random(seed).shuffle(order)
        _assert_named_senders_parity(Network(graph, identifier_order=order), seed)


@given(_graphs_with_isolated_vertices())
@settings(max_examples=20, deadline=None)
def test_greedy_counted_eligibility_matches_per_node(instance):
    graph, order = instance
    net = Network(graph, identifier_order=order)
    inputs = {v: max(1, graph.max_degree()) for v in graph.vertices()}
    _assert_all_match(*_four_engines(
        net, GreedyLocalMaximaAlgorithm, BatchGreedyLocalMaximaAlgorithm,
        inputs, len(graph) + 2,
    ))


@st.composite
def _reduction_instances(draw):
    """``(network, inputs, palette)``: a proper coloring on a wider palette.

    A first-fit coloring of a graph with isolated vertices, each class
    moved to a distinct random color below ``palette``, so some of the
    classes that color reduction retires are empty and some are not.
    """
    graph, order = draw(_graphs_with_isolated_vertices())
    delta = max(1, graph.max_degree())
    palette = delta + 1 + draw(st.integers(min_value=0, max_value=12))
    first_fit = {}
    for v in graph.vertices():
        used = {first_fit.get(u) for u in graph.neighbors(v)}
        first_fit[v] = min(c for c in range(delta + 1) if c not in used)
    classes = draw(st.permutations(range(palette)))
    inputs = {v: (classes[c], palette, delta) for v, c in first_fit.items()}
    return Network(graph, identifier_order=order), inputs, palette


class _DropOddRounds:
    """Round hooks that drop every message of the odd rounds, on either engine."""

    def before_round(self, round_number, nodes):
        self.drop = round_number % 2 == 1
        return None

    def edit_received(self, payloads, received):
        if not self.drop:
            return 0
        lost = sum(len(slots) for slots in received)
        for slots in received:
            slots.clear()
        return -lost

    def edit_inbox(self, inbox, delivered):
        if not self.drop:
            return delivered, 0
        lost = len(inbox) if delivered is None else int(delivered.sum())
        return np.zeros(len(inbox), dtype=np.bool_), -lost

    def after_round(self, round_number, nodes, messages):
        return False


@given(_reduction_instances())
@settings(max_examples=25, deadline=None)
def test_color_reduction_engine_parity(instance):
    """The target class's slots, fused and unfused, against the per-node run.

    The fused run decides in ``receive_broadcast``, the unfused and hooked
    runs in ``receive_batch``; a silent slot holds no color on both
    engines.
    """
    net, inputs, palette = instance
    _assert_all_match(*_four_engines(
        net, ColorReductionAlgorithm, BatchColorReductionAlgorithm,
        inputs, palette + 5,
    ))
    hooked = [
        SynchronousSimulator(net).run(
            program, inputs=inputs, max_rounds=palette + 5, strict=True,
            hooks=_DropOddRounds(),
        )
        for program in (BatchColorReductionAlgorithm, ColorReductionAlgorithm)
    ]
    assert_simulation_parity(*hooked, labels=("batched", "per-node"))


@st.composite
def _wave_instances(draw):
    """``(n, edges, roots)``: a random tree, up to three chords, 1-3 roots.

    Chords and extra roots let an uncolored node hear several frontier
    nodes in one round, which exercises the lowest-port tie-break.
    """
    seed = draw(seeds)
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    roots = draw(st.lists(vertex, min_size=1, max_size=3))
    edges = _random_tree(n, seed).edges()
    edges += [(u, v) for u, v in chords if u != v]
    return n, edges, roots


def _wave_graph(n, edges):
    graph = Graph()
    graph.add_vertices(range(n))
    graph.add_edges(edges)
    return graph.freeze()


@given(_wave_instances())
# the 4-cycle rooted at 0: vertex 2 hears both 1 and 3 in round 2
@example((4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0]))
@settings(max_examples=120, deadline=None)
def test_wave_engine_parity(instance):
    n, edges, roots = instance
    graph = _wave_graph(n, edges)
    net = Network(graph)
    inputs = {v: v in roots for v in graph.vertices()}
    fused, unfused, flat, seed_result = _four_engines(
        net, WaveTwoColoring, BatchWaveTwoColoring, inputs, n + 2
    )
    _assert_all_match(fused, unfused, flat, seed_result)
    if len(set(roots)) == 1 and graph.number_of_edges() == n - 1:
        # one root on a tree: colors are distance parity, so every edge
        # is bichromatic
        outputs = fused.outputs
        for v in graph.vertices():
            for u in graph.neighbors(v):
                assert outputs[u] != outputs[v]


def test_wave_rootless_component_never_finishes():
    """A component without a root stays uncolored on all four engines."""
    graph = _wave_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    net = Network(graph)
    inputs = {v: v == 0 for v in graph.vertices()}
    results = _four_engines(
        net, WaveTwoColoring, BatchWaveTwoColoring, inputs, 8, strict=False
    )
    assert not any(result.finished for result in results)
    _assert_all_match(*results)
    fused = results[0]
    assert fused.rounds == 8
    assert [fused.outputs[v] for v in range(6)] == [0, 1, 0, -1, -1, -1]


def test_wave_path_lower_bound_signature():
    """On a rooted path the wave spends exactly n rounds, 2(n-1) messages."""
    for n in (1, 2, 5, 37):
        graph = classic.path(n).freeze()
        inputs = {v: v == 0 for v in graph.vertices()}
        result = SynchronousSimulator(Network(graph)).run(
            BatchWaveTwoColoring, inputs=inputs, max_rounds=n + 2, strict=True
        )
        assert result.rounds == n
        assert result.messages_sent == 2 * (n - 1)


def test_active_mode_charges_frontier_messages():
    """The sparse exchange charges len(slots), not num_slots."""
    n = 12
    graph = classic.path(n).freeze()
    inputs = {v: v == 0 for v in graph.vertices()}
    result = SynchronousSimulator(Network(graph)).run(
        BatchWaveTwoColoring, inputs=inputs, max_rounds=n + 2, strict=True
    )
    # round 1: the root broadcasts on its single port; interior rounds: the
    # frontier node broadcasts on both ports; the far endpoint speaks last
    assert result.per_round_messages[0] == 1
    assert result.per_round_messages[-1] == 1
    assert all(m == 2 for m in result.per_round_messages[1:-1])


def test_sparse_exchange_refuses_round_hooks():
    """A program that defines receive_active builds no inbox to edit."""
    graph = classic.path(4).freeze()
    inputs = {v: v == 0 for v in graph.vertices()}
    with pytest.raises(SimulationError, match="round hooks"):
        SynchronousSimulator(Network(graph)).run(
            BatchWaveTwoColoring, inputs=inputs, hooks=object()
        )


# ---------------------------------------------------------------------------
# width-free batched programs: 63- to 131-color palettes stay batched
# ---------------------------------------------------------------------------


@st.composite
def _hub_graphs(draw):
    """A hub of degree 62-130 plus random edges among the other vertices."""
    hub_degree = draw(st.integers(min_value=62, max_value=130))
    n = hub_degree + 1 + draw(st.integers(min_value=0, max_value=40))
    rng = random.Random(draw(seeds))
    graph = Graph(vertices=range(n), edges=[(0, v) for v in range(1, hub_degree + 1)])
    for _ in range(n):
        u, v = rng.randrange(1, n), rng.randrange(1, n)
        if u != v:
            graph.add_edge(u, v)
    return graph.freeze()


def _batched_matches_per_node(network, batched, per_node, inputs, max_rounds):
    run = SynchronousSimulator(network).run(
        batched, inputs=inputs, max_rounds=max_rounds, strict=True
    )
    # only the batched loop returns LazyOutputs: no per-node run stood in
    assert isinstance(run.outputs, LazyOutputs)
    reference = SynchronousSimulator(network).run(
        per_node, inputs=inputs, max_rounds=max_rounds, strict=True
    )
    assert_simulation_parity(run, reference, labels=("batched", "per-node"))
    return run


@given(_hub_graphs(), seeds, st.integers(min_value=21, max_value=44))
@settings(max_examples=8, deadline=None)
def test_wide_palettes_run_batched(graph, seed, arboricity):
    network = Network(graph)
    n = len(graph)
    delta = graph.max_degree()
    _batched_matches_per_node(
        network, BatchGreedyLocalMaximaAlgorithm, GreedyLocalMaximaAlgorithm,
        [delta] * n, n + 2,
    )
    _batched_matches_per_node(
        network, BatchRandomizedDeltaPlusOne, RandomizedDeltaPlusOne,
        [(seed, delta)] * n, default_round_cap(n),
    )
    linial = _batched_matches_per_node(
        network, BatchLinialColoringAlgorithm, LinialColoringAlgorithm,
        [delta] * n, 10_000,
    )
    colors = [linial.outputs[v] for v in network.labels]
    palette = max(p for _c, p in colors)
    _batched_matches_per_node(
        network, BatchColorReductionAlgorithm, ColorReductionAlgorithm,
        [(c, palette, delta) for c, _p in colors], palette + 5,
    )
    # floor(3a) + 1 >= 64 colors: the batched slot phase runs, with no downgrade
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = barenboim_elkin_coloring(graph, arboricity)
    reference = baselines_reference.barenboim_elkin_coloring(graph, arboricity)
    assert flat.palette_size == reference.palette_size >= 64
    assert flat.coloring == reference.coloring
    assert flat.rounds == reference.rounds
