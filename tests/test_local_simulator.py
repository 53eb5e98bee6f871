"""Tests for the LOCAL-model simulator: network, engine, ball collection, ledger."""

import random
import tracemalloc

import pytest

from repro.distributed.greedy_baseline import greedy_distributed_coloring
from repro.errors import NonTerminationError, SimulationError
from repro.graphs.generators import classic, sparse, streaming
from repro.graphs.graph import Graph
from repro.local import (
    BallCollectionAlgorithm,
    Network,
    NodeAlgorithm,
    RoundLedger,
    SynchronousSimulator,
    collect_balls,
    collect_balls_distributed,
    run_node_algorithm,
)


# -- network -------------------------------------------------------------------

def test_network_identifiers_are_1_to_n():
    g = classic.cycle(5)
    net = Network(g)
    assert sorted(net.identifier_of.values()) == [1, 2, 3, 4, 5]
    assert all(net.vertex_of[net.identifier_of[v]] == v for v in g)


def test_network_ports_consistent():
    g = classic.star(4)
    net = Network(g)
    for v in g:
        for port in range(net.degree(v)):
            u = net.neighbor_on_port(v, port)
            assert net.neighbor_on_port(u, net.port_towards(u, v)) == v


def test_network_identifier_order_override():
    g = classic.path(3)
    net = Network(g, identifier_order=[2, 1, 0])
    assert net.identifier_of[2] == 1
    with pytest.raises(ValueError):
        Network(g, identifier_order=[0, 1])


# -- lazy views: same values as the eager definitions ---------------------------

def _graph_of_kind(kind):
    if kind == "identity":
        return streaming.stream_torus(4, 5)  # labels are range(n)
    graph = sparse.union_of_random_forests(24, 2, seed=5)
    # string labels in a shuffled insertion order, so labels != CSR indices
    names = [f"v{i}" for i in graph.vertices()]
    random.Random(5).shuffle(names)
    relabel = dict(zip(graph.vertices(), names))
    labelled = Graph(
        vertices=names, edges=[(relabel[u], relabel[v]) for u, v in graph.edges()]
    )
    return labelled.freeze() if kind == "frozen" else labelled


def _network_paths(graph):
    """(network, expected vertex -> identifier) for the three identifier paths."""
    labels = graph.vertices()
    shuffled = list(labels)
    random.Random(11).shuffle(shuffled)
    sparse_ids = {v: 3 * k + 2 for k, v in enumerate(shuffled)}
    return {
        "default": (Network(graph), {v: i + 1 for i, v in enumerate(labels)}),
        "identifier_order": (
            Network(graph, identifier_order=shuffled),
            {v: i + 1 for i, v in enumerate(shuffled)},
        ),
        "identifiers": (
            Network(graph, identifiers=sparse_ids, declared_n=max(sparse_ids.values())),
            sparse_ids,
        ),
    }


@pytest.mark.parametrize("path", ["default", "identifier_order", "identifiers"])
@pytest.mark.parametrize("kind", ["frozen", "mutable", "identity"])
def test_lazy_network_maps_match_eager_definitions(kind, path):
    graph = _graph_of_kind(kind)
    net, ids = _network_paths(graph)[path]
    order = sorted(ids, key=ids.__getitem__)
    assert list(net.labels) == order
    assert net.identifier_of == ids
    assert net.vertex_of == {i: v for v, i in ids.items()}
    assert net.identifiers_list == [ids[v] for v in order]
    assert net.identifiers_np.tolist() == net.identifiers_list
    for v in graph:
        ports = sorted(graph.neighbors(v), key=ids.__getitem__)
        assert net.degree(v) == len(ports) == graph.degree(v)
        assert [net.neighbor_on_port(v, p) for p in range(len(ports))] == ports
        with pytest.raises(IndexError):
            net.neighbor_on_port(v, len(ports))
    values = [10 * k for k in range(len(order))]
    assert net.translate_inputs(values) == dict(zip(order, values))
    first = order[0]
    assert net.translate_inputs({first: "x"}) == {
        v: "x" if v == first else None for v in graph
    }


@pytest.mark.parametrize("path", ["default", "identifier_order", "identifiers"])
@pytest.mark.parametrize("kind", ["frozen", "mutable", "identity"])
def test_fabric_list_views_match_arrays(kind, path):
    net, _ = _network_paths(_graph_of_kind(kind))[path]
    fabric = net.fabric
    views = {
        "offsets": (fabric.offsets, fabric.offsets_np),
        "endpoints": (fabric.endpoints, fabric.endpoints_np),
        "reverse_slot": (fabric.reverse_slot, fabric.reverse_np),
        "degrees": (fabric.degrees, fabric.degrees_np),
    }
    for name, (view, array) in views.items():
        assert type(view) is list, name
        assert view == array.tolist(), name
        # the per-node engine hands these to node programs: plain Python ints
        assert all(type(x) is int for x in view), name
        assert getattr(fabric, name) is view, name  # cached


# Peak traced allocation per directed edge slot while building the fabric of
# an identity-labelled torus and running batched greedy on it.  Arrays alone
# peak at about 53 bytes per slot: the int64 tables (reverse_slot, which the
# fabric sorts in place as packed keys, and sources; endpoints is the
# graph's own) plus the engine's per-slot temporaries.  One eager Python
# list over the slots adds about 40 bytes per slot (an 8-byte pointer, a
# 28-byte int object and the list's slack), which lifts the peak to about
# 93; the fully eager build (two such lists and three vertex-keyed dicts)
# peaks higher still.  The bound sits about halfway between the two, so
# one eager list (reading ``net.fabric.endpoints`` in the traced region)
# fails the test.
MAX_PEAK_BYTES_PER_SLOT = 75


def test_fabric_and_batched_greedy_stay_array_only():
    graph = streaming.stream_torus(200, 200)
    assert graph.identity_labels
    tracemalloc.start()
    try:
        net = Network(graph)
        slots = net.fabric.num_slots
        result = greedy_distributed_coloring(graph, batched=True, network=net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.coloring) == len(graph)
    assert peak / slots < MAX_PEAK_BYTES_PER_SLOT, (
        f"peak {peak / slots:.1f} bytes per slot (bound {MAX_PEAK_BYTES_PER_SLOT})"
    )


# -- simple node programs --------------------------------------------------------

class EchoDegree(NodeAlgorithm):
    """One-round algorithm: learn the identifiers of all neighbours."""

    def initialize(self, context):
        super().initialize(context)
        self.heard = {}
        self.done = False

    def send(self, round_number):
        return {p: self.context.identifier for p in range(self.context.degree)}

    def receive(self, round_number, messages):
        self.heard = dict(messages)
        self.done = True

    def is_finished(self):
        return self.done

    def result(self):
        return sorted(self.heard.values())


def test_one_round_neighbor_exchange():
    g = classic.cycle(6)
    result = run_node_algorithm(g, EchoDegree, strict=True)
    assert result.rounds == 1
    assert result.finished
    net = Network(g)
    for v in g:
        expected = sorted(net.identifier_of[u] for u in g.neighbors(v))
        assert result.outputs[v] == expected
    assert result.messages_sent == 2 * g.number_of_edges()


class BadPortSender(NodeAlgorithm):
    def initialize(self, context):
        super().initialize(context)
        self.done = False

    def send(self, round_number):
        return {99: "boom"}

    def receive(self, round_number, messages):
        self.done = True

    def is_finished(self):
        return self.done


def test_invalid_port_raises():
    with pytest.raises(SimulationError):
        run_node_algorithm(classic.cycle(4), BadPortSender)


def test_invalid_port_debug_mode_names_the_range():
    with pytest.raises(SimulationError, match=r"valid ports are 0\.\.1"):
        run_node_algorithm(classic.cycle(4), BadPortSender)


class ListSender(NodeAlgorithm):
    def send(self, round_number):
        return [1, 2]  # not a mapping

    def is_finished(self):
        return False


def test_non_mapping_send_raises_simulation_error():
    with pytest.raises(SimulationError, match="expected a port -> payload"):
        run_node_algorithm(classic.cycle(4), ListSender, max_rounds=2)


def test_prebuilt_network_is_reused():
    g = classic.cycle(6).freeze()
    net = Network(g)
    r1 = run_node_algorithm(g, EchoDegree, network=net, strict=True)
    r2 = run_node_algorithm(g, EchoDegree, network=net, strict=True)
    assert r1.outputs == r2.outputs
    assert net.fabric is net.fabric  # built once, cached


class NeverFinishes(NodeAlgorithm):
    def is_finished(self):
        return False


def test_round_limit_reported_as_unfinished():
    result = run_node_algorithm(classic.path(3), NeverFinishes, max_rounds=5)
    assert not result.finished
    assert result.rounds == 5
    # partial outputs are still reported when not strict
    assert set(result.outputs) == set(classic.path(3).vertices())


def test_round_limit_raises_in_strict_mode():
    with pytest.raises(SimulationError, match="max_rounds=5"):
        run_node_algorithm(classic.path(3), NeverFinishes, max_rounds=5, strict=True)


def test_round_limit_error_carries_structure():
    with pytest.raises(NonTerminationError) as err:
        run_node_algorithm(classic.path(3), NeverFinishes, max_rounds=5, strict=True)
    assert err.value.rounds == 5
    assert err.value.active == 3  # every node of the path still unfinished


def test_strict_mode_passes_through_on_termination():
    result = run_node_algorithm(classic.cycle(6), EchoDegree, strict=True)
    assert result.finished
    assert result.rounds == 1


class ChattyCountdown(NodeAlgorithm):
    """Sends on all ports for ``input`` rounds, then stops."""

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


def test_per_round_messages_accounting():
    g = classic.cycle(5)
    rounds_wanted = 3
    result = run_node_algorithm(
        g, ChattyCountdown, inputs={v: rounds_wanted for v in g}, strict=True
    )
    assert result.rounds == rounds_wanted
    assert len(result.per_round_messages) == result.rounds
    assert sum(result.per_round_messages) == result.messages_sent
    # every node sends on both ports every active round
    assert result.per_round_messages == [2 * len(g)] * rounds_wanted


def test_per_round_messages_accounting_when_unfinished():
    result = run_node_algorithm(classic.path(4), NeverFinishes, max_rounds=7)
    assert len(result.per_round_messages) == result.rounds == 7
    assert sum(result.per_round_messages) == result.messages_sent


# -- ball collection ---------------------------------------------------------------

@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_ball_collection_matches_centralized(radius):
    g = classic.grid_2d(4, 4)
    distributed = collect_balls_distributed(g, radius, strict=True)
    assert distributed.finished
    assert distributed.rounds == radius
    centralized = collect_balls(g, radius)
    net = Network(g)
    for v in g:
        vertices, _edges = distributed.outputs[v]
        expected = {net.identifier_of[u] for u in centralized[v]}
        assert vertices == expected


def test_ball_collection_edges_are_within_ball():
    g = classic.cycle(8)
    result = collect_balls_distributed(g, 2, strict=True)
    for v in g:
        vertices, edges = result.outputs[v]
        for edge in edges:
            assert edge <= vertices


# -- ledger -------------------------------------------------------------------------

def test_ledger_totals_and_phases():
    ledger = RoundLedger()
    ledger.charge("phase A", 3, reference="ref")
    ledger.charge("phase A", 2)
    ledger.charge("phase B", 5)
    assert ledger.total() == 10
    assert ledger.by_phase() == {"phase A": 5, "phase B": 5}
    assert "total rounds: 10" in ledger.summary()


def test_ledger_extend_with_prefix():
    inner = RoundLedger()
    inner.charge("x", 2)
    outer = RoundLedger()
    outer.charge("y", 1)
    outer.extend(inner, prefix="inner: ")
    assert outer.total() == 3
    assert "inner: x" in outer.by_phase()


def test_ledger_rejects_negative():
    ledger = RoundLedger()
    with pytest.raises(ValueError):
        ledger.charge("bad", -1)


def test_simulator_reuse():
    g = classic.path(4)
    sim = SynchronousSimulator(Network(g))
    r1 = sim.run(EchoDegree)
    r2 = sim.run(EchoDegree)
    assert r1.outputs == r2.outputs


def test_ball_collection_locality_equivalence():
    """r rounds of communication give exactly the radius-r ball, no more."""
    g = classic.path(9)
    result = collect_balls_distributed(g, 2, strict=True)
    net = Network(g)
    vertices, _ = result.outputs[0]
    assert vertices == {net.identifier_of[0], net.identifier_of[1], net.identifier_of[2]}
