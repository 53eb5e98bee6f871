"""Parity property tests: flat-array engine == seed engine, batched == per-node.

The flat-array :class:`~repro.local.simulator.SynchronousSimulator` must
return an *identical* :class:`~repro.local.simulator.SimulationResult`
(rounds, outputs, messages_sent, per_round_messages, finished) to the seed
dict-routed engine (:mod:`repro.local.reference`) for every node algorithm
in the library, across random sparse and planar graphs — and the batched
ports of Cole–Vishkin and the greedy baseline, which their coloring
functions run, must match their per-node twins exactly.  Greedy, randomized Δ+1 and the
wave also match when a run is cut short by its round cap.
"""

from collections import deque

import pytest

from repro.distributed.barenboim_elkin import BatchSlotColorSelection
from repro.distributed.cole_vishkin import (
    BatchColeVishkinForestColoring,
    ColeVishkinForestColoring,
    color_rooted_forest,
)
from repro.distributed.greedy_baseline import (
    BatchGreedyLocalMaximaAlgorithm,
    GreedyLocalMaximaAlgorithm,
    greedy_distributed_coloring,
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
)
from repro.distributed.stabilizing import (
    BatchMinPlusOneRecoloring,
    BatchStabilizingGreedy,
)
from repro.distributed.wave import BatchWaveTwoColoring, WaveTwoColoring
from repro.graphs.generators import classic, planar, sparse
from repro.local import (
    BallCollectionAlgorithm,
    Network,
    NodeAlgorithm,
    ReferenceSimulator,
    SynchronousSimulator,
    run_node_algorithm,
)
from repro.verify import ColoringParityOracle, assert_simulation_parity


def _graphs():
    """Random sparse / planar instances plus deterministic topologies."""
    cases = [
        ("path_9", classic.path(9)),
        ("cycle_12", classic.cycle(12)),
        ("star_6", classic.star(6)),
        ("grid_4x5", classic.grid_2d(4, 5)),
    ]
    for seed in range(3):
        cases.append(
            (f"forest_union_{seed}", sparse.union_of_random_forests(40, 2, seed=seed))
        )
        cases.append(
            (f"planar_{seed}", planar.stacked_triangulation(30, seed=seed))
        )
    return cases


GRAPHS = _graphs()


def _bfs_parents(graph):
    """Parent pointers of a BFS forest covering every component."""
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


def _delta_inputs(graph, network):
    delta = max(1, max((graph.degree(v) for v in graph), default=1))
    return {v: delta for v in graph}


def _per_node_greedy(graph):
    """The per-node greedy program under greedy_distributed_coloring's inputs and cap."""
    network = Network(graph.freeze())
    return SynchronousSimulator(network).run(
        GreedyLocalMaximaAlgorithm, inputs=_delta_inputs(graph, network),
        max_rounds=len(graph) + 2, strict=True,
    )


def _ball_inputs(graph, network):
    return {v: 3 for v in graph}


def _reduction_inputs(graph, network):
    # a proper coloring from identifiers (always proper, palette n)
    n = graph.number_of_vertices()
    delta = max(1, max((graph.degree(v) for v in graph), default=1))
    return {v: (network.identifier_of[v] - 1, n, delta) for v in graph}


# every per-node algorithm in the library: (factory, inputs_fn, max_rounds_fn)
ALGORITHMS = [
    ("ball-collection", BallCollectionAlgorithm, _ball_inputs, lambda g: 5),
    ("greedy", GreedyLocalMaximaAlgorithm, _delta_inputs, lambda g: len(g) + 2),
    ("linial", LinialColoringAlgorithm, _delta_inputs, lambda g: 10_000),
    ("color-reduction", ColorReductionAlgorithm, _reduction_inputs,
     lambda g: len(g) + 5),
]


# the shared parity oracle (repro.verify.parity): rounds, outputs,
# message totals, per-round series and the finished flag must all match
_assert_identical = assert_simulation_parity


@pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("algo_name,factory,inputs_fn,rounds_fn", ALGORITHMS,
                         ids=[a[0] for a in ALGORITHMS])
def test_flat_engine_matches_seed_engine(
    graph_name, graph, algo_name, factory, inputs_fn, rounds_fn
):
    network = Network(graph.freeze())
    inputs = inputs_fn(graph, network)
    flat = SynchronousSimulator(network).run(
        factory, inputs=inputs, max_rounds=rounds_fn(graph), strict=True
    )
    seed = ReferenceSimulator(network).run(
        factory, inputs=inputs, max_rounds=rounds_fn(graph), strict=True
    )
    _assert_identical(flat, seed)


@pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_cole_vishkin_parity_all_three_engines(graph_name, graph):
    """CV on a BFS forest of the graph: seed == flat per-node == batched."""
    forest_edges = [
        (v, p) for v, p in _bfs_parents(graph).items() if p is not None
    ]
    forest = classic.empty_graph(0)
    for v in graph:
        forest.add_vertex(v)
    forest.add_edges(forest_edges)
    parents = _bfs_parents(forest)
    network = Network(forest.freeze())
    inputs = {
        v: None if p is None else network.identifier_of[p]
        for v, p in parents.items()
    }
    flat = SynchronousSimulator(network).run(
        ColeVishkinForestColoring, inputs=inputs, max_rounds=200, strict=True
    )
    seed = ReferenceSimulator(network).run(
        ColeVishkinForestColoring, inputs=inputs, max_rounds=200, strict=True
    )
    batch = SynchronousSimulator(network).run(
        BatchColeVishkinForestColoring, inputs=inputs, max_rounds=200, strict=True
    )
    _assert_identical(flat, seed)
    _assert_identical(batch, flat)
    for u, p in parents.items():
        if p is not None:
            assert flat.outputs[u] != flat.outputs[p]
        assert 0 <= flat.outputs[u] < 3


@pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_greedy_batched_matches_per_node(graph_name, graph):
    per_node = _per_node_greedy(graph)
    batched = greedy_distributed_coloring(graph)
    ColoringParityOracle().check(
        coloring_a=per_node.outputs, coloring_b=batched.coloring,
        rounds_a=per_node.rounds, rounds_b=batched.rounds,
        labels=("per-node", "batched"),
    ).raise_if_failed()
    assert batched.messages == per_node.messages_sent
    assert batched.palette_size == max(1, graph.max_degree()) + 1
    for u, v in graph.edges():
        assert batched.coloring[u] != batched.coloring[v]


@pytest.mark.parametrize("max_rounds", [1, 2, 3])
@pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_unfinished_runs_match_per_node(graph_name, graph, max_rounds):
    """A run cut by its round cap reports the same partial outputs on both loops.

    Uncolored vertices read 0 for greedy and randomized Δ+1 and -1 for the
    wave, per node and batched alike.
    """
    network = Network(graph.freeze())
    n = len(network.labels)
    delta = max(1, graph.max_degree())
    root = network.labels[0]
    cases = [
        (GreedyLocalMaximaAlgorithm, BatchGreedyLocalMaximaAlgorithm, [delta] * n),
        (RandomizedDeltaPlusOne, BatchRandomizedDeltaPlusOne, [(7, delta)] * n),
        (WaveTwoColoring, BatchWaveTwoColoring, {root: 1}),
    ]
    for per_node, batched, inputs in cases:
        reference = SynchronousSimulator(network).run(
            per_node, inputs=inputs, max_rounds=max_rounds
        )
        run = SynchronousSimulator(network).run(
            batched, inputs=inputs, max_rounds=max_rounds
        )
        assert_simulation_parity(reference, run, labels=("per-node", "batched"))


def test_parity_with_shuffled_identifier_order():
    """Custom identifier orders route through the general fabric path."""
    graph = sparse.union_of_random_forests(50, 2, seed=11).freeze()
    order = graph.vertices()
    order.reverse()
    network = Network(graph, identifier_order=order)
    inputs = _delta_inputs(graph, network)
    flat = SynchronousSimulator(network).run(
        GreedyLocalMaximaAlgorithm, inputs=inputs, max_rounds=60, strict=True
    )
    seed = ReferenceSimulator(network).run(
        GreedyLocalMaximaAlgorithm, inputs=inputs, max_rounds=60, strict=True
    )
    _assert_identical(flat, seed)


def test_segment_reduce_trailing_empty_segments():
    """A trailing degree-0 segment must not truncate the last real one."""
    numpy = pytest.importorskip("numpy")
    from repro.local import segment_reduce

    out = segment_reduce(
        numpy.bitwise_or,
        numpy.array([1, 2, 4], dtype=numpy.int64),
        numpy.array([0, 3, 3], dtype=numpy.int64),
        empty=0,
    )
    assert out.tolist() == [7, 0]
    out = segment_reduce(
        numpy.maximum,
        numpy.array([5, 9, 1, 8], dtype=numpy.int64),
        numpy.array([0, 0, 2, 4, 4, 4], dtype=numpy.int64),
        empty=-1,
    )
    assert out.tolist() == [-1, 9, 8, -1, -1]


def test_batched_cole_vishkin_with_trailing_isolated_vertex():
    """Isolated vertex after a branching vertex: the segment_reduce shape
    that once truncated the last non-empty neighbourhood."""
    forest = classic.empty_graph(9)
    parents = {0: None, 3: 0, 4: 0, 5: 3, 7: 4, 2: 7, 1: 7, 6: 1, 8: None}
    forest.add_edges((v, p) for v, p in parents.items() if p is not None)
    network = Network(forest.freeze())
    inputs = {
        v: None if p is None else network.identifier_of[p]
        for v, p in parents.items()
    }
    batch = SynchronousSimulator(network).run(
        BatchColeVishkinForestColoring, inputs=inputs, max_rounds=200, strict=True
    )
    per_node = SynchronousSimulator(network).run(
        ColeVishkinForestColoring, inputs=inputs, max_rounds=200, strict=True
    )
    _assert_identical(batch, per_node)
    for v, p in parents.items():
        if p is not None:
            assert batch.outputs[v] != batch.outputs[p]


def test_batched_greedy_with_trailing_isolated_vertex():
    graph = classic.star(5)
    graph.add_vertex("isolated")
    per_node = _per_node_greedy(graph)
    batched = greedy_distributed_coloring(graph)
    assert batched.coloring == per_node.outputs
    assert batched.rounds == per_node.rounds


def test_greedy_coloring_refuses_batched_false():
    with pytest.raises(ValueError, match="batched=False"):
        greedy_distributed_coloring(classic.star(5), batched=False)


def test_color_rooted_forest_equals_per_node():
    graph = sparse.union_of_random_forests(60, 1, seed=5)
    parents = _bfs_parents(graph)
    network = Network(graph.freeze())
    inputs = {
        v: None if p is None else network.identifier_of[p]
        for v, p in parents.items()
    }
    per_node = SynchronousSimulator(network).run(
        ColeVishkinForestColoring, inputs=inputs, max_rounds=200, strict=True
    )
    _assert_identical(color_rooted_forest(graph, parents), per_node)


@pytest.mark.parametrize(
    "program, inputs",
    [
        (BatchLinialColoringAlgorithm, [3, 3, 4, 3]),
        (BatchColorReductionAlgorithm, [(0, 4, 2), (1, 4, 2), (2, 5, 2), (3, 4, 2)]),
        (BatchSlotColorSelection, [(0, 0, 7, (1,))] * 3 + [(0, 0, 7, (2,))]),
        (BatchMinPlusOneRecoloring, [(3, 1), (3, 2), (4, 1), (3, 2)]),
        (BatchStabilizingGreedy, [(3, 1), (3, 2), (4, 1), (3, 2)]),
    ],
)
def test_batch_program_refuses_non_uniform_announced_constants(program, inputs):
    from repro.errors import SimulationError

    with pytest.raises(SimulationError, match=program.__name__):
        run_node_algorithm(classic.path(4), program, inputs=inputs)


def test_wide_palette_greedy_falls_back():
    """A 71-color palette runs batched and matches the per-node run."""
    graph = classic.star(70)  # center degree 70
    per_node = _per_node_greedy(graph)
    batched = greedy_distributed_coloring(graph)
    assert batched.coloring == per_node.outputs
    assert batched.rounds == per_node.rounds


class _MonotoneCountdown(NodeAlgorithm):
    """Finishes after ``input`` rounds; exercises the engine's active set."""

    def initialize(self, context):
        super().initialize(context)
        self.remaining = int(context.input)

    def send(self, round_number):
        if self.remaining <= 0:
            return {}
        return {p: "tick" for p in range(self.context.degree)}

    def receive(self, round_number, messages):
        if self.remaining > 0:
            self.remaining -= 1

    def is_finished(self):
        return self.remaining <= 0


def test_staggered_termination_parity():
    """Nodes finishing at different rounds: active-set bookkeeping == seed."""
    graph = classic.grid_2d(5, 5)
    network = Network(graph.freeze())
    inputs = {v: (i % 7) for i, v in enumerate(graph)}
    flat = SynchronousSimulator(network).run(
        _MonotoneCountdown, inputs=inputs, max_rounds=20, strict=True
    )
    seed = ReferenceSimulator(network).run(
        _MonotoneCountdown, inputs=inputs, max_rounds=20, strict=True
    )
    _assert_identical(flat, seed)
