"""Mutation tests for the conformance oracles.

Every oracle must reject at least one *corrupted* witness with a precise
diagnostic — a verifier that accepts everything is worse than none.  Each
test builds a valid witness, checks the oracle passes it, then applies a
targeted mutation (swap two colors, violate a list, fake a clique vertex,
drop a ruling-forest edge, move an H-partition vertex, inflate a round
count, fabricate global knowledge in a node program) and asserts the
oracle rejects it and the diagnostic names the corruption.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.coloring import degeneracy_greedy_coloring, random_lists, uniform_lists
from repro.core import color_sparse_graph
from repro.distributed import h_partition, ruling_forest
from repro.distributed.stabilizing import STABILIZING_PROTOCOLS
from repro.errors import VerificationError
from repro.faults import (
    FAULT_KINDS,
    AppliedFault,
    EdgeSet,
    FaultEvent,
    FaultPlan,
    PerturbableNetwork,
    RoundRecord,
    StabilizationTrace,
    palette_bound,
    run_stabilizing,
)
from repro.graphs.frozen import FrozenGraph
from repro.graphs.generators import classic, planar, sparse
from repro.graphs.graph import Graph
from repro.local import run_node_algorithm
from repro.local.node import BatchNodeAlgorithm, NodeAlgorithm
from repro.verify import (
    CliqueWitnessOracle,
    ContainmentOracle,
    DichotomyOracle,
    HPartitionOracle,
    ListColoringOracle,
    LocalityOracle,
    PaletteBudgetOracle,
    ProperColoringOracle,
    RecoveryOracle,
    RoundEnvelopeOracle,
    RulingForestOracle,
    SimulationParityOracle,
    artifact_failures,
    audit_locality,
)
from repro.verify.recovery import measure_containment


@pytest.fixture(scope="module")
def instance():
    graph = sparse.union_of_random_forests(50, 2, seed=9).freeze()
    result = color_sparse_graph(graph, 4)
    return graph, result


# ---------------------------------------------------------------------------
# coloring oracles
# ---------------------------------------------------------------------------

def test_proper_coloring_oracle_rejects_swapped_edge(instance):
    graph, result = instance
    oracle = ProperColoringOracle()
    assert oracle.check(graph=graph, coloring=result.coloring).ok

    u, v = next(iter(graph.edges()))
    corrupted = dict(result.coloring)
    corrupted[u] = corrupted[v]  # make one edge monochromatic
    verdict = oracle.check(graph=graph, coloring=corrupted)
    assert not verdict.ok
    assert any("monochromatic" in d for d in verdict.diagnostics)
    assert any(repr(u) in d or repr(v) in d for d in verdict.diagnostics)


def test_proper_coloring_oracle_rejects_missing_vertex(instance):
    graph, result = instance
    victim = graph.vertices()[0]
    partial = {w: c for w, c in result.coloring.items() if w != victim}
    verdict = ProperColoringOracle().check(graph=graph, coloring=partial)
    assert not verdict.ok
    assert any("uncolored" in d and repr(victim) in d for d in verdict.diagnostics)
    # uncolored vertices are legal when completeness is waived
    assert ProperColoringOracle().check(
        graph=graph, coloring=partial, require_complete=False
    ).ok


def test_list_coloring_oracle_rejects_out_of_list_color(instance):
    graph, result = instance
    lists = uniform_lists(graph, 4)
    oracle = ListColoringOracle()
    assert oracle.check(graph=graph, coloring=result.coloring, lists=lists).ok

    victim = graph.vertices()[3]
    corrupted = dict(result.coloring)
    corrupted[victim] = "not-a-color"
    verdict = oracle.check(graph=graph, coloring=corrupted, lists=lists)
    assert not verdict.ok
    assert any(
        "outside its list" in d and repr(victim) in d for d in verdict.diagnostics
    )


def test_palette_budget_oracle_rejects_overflow(instance):
    graph, result = instance
    assert PaletteBudgetOracle().check(coloring=result.coloring, budget=4).ok
    verdict = PaletteBudgetOracle().check(coloring=result.coloring, budget=2)
    assert not verdict.ok
    assert any("budget is 2" in d for d in verdict.diagnostics)


def test_clique_witness_oracle_rejects_fakes():
    graph = classic.complete_graph(5)
    graph.add_vertex("outside")
    oracle = CliqueWitnessOracle()
    assert oracle.check(graph=graph, clique=[0, 1, 2, 3, 4], size=5).ok

    # non-adjacent vertex smuggled in
    verdict = oracle.check(graph=graph, clique=[0, 1, 2, 3, "outside"], size=5)
    assert not verdict.ok
    assert any("not an edge" in d for d in verdict.diagnostics)
    # wrong size
    verdict = oracle.check(graph=graph, clique=[0, 1, 2], size=5)
    assert not verdict.ok
    assert any("expected 5" in d for d in verdict.diagnostics)
    # vertex not in the graph at all
    verdict = oracle.check(graph=graph, clique=[0, 1, 2, 3, "ghost"], size=5)
    assert not verdict.ok
    assert any("not in the graph" in d for d in verdict.diagnostics)
    # repeated vertex
    verdict = oracle.check(graph=graph, clique=[0, 1, 2, 3, 3], size=5)
    assert not verdict.ok
    assert any("repeats" in d for d in verdict.diagnostics)


def test_dichotomy_oracle_finds_real_clique_and_rejects_ambiguity():
    # a k-tree contains a (k+1)-clique, so the Theorem 1.3 driver at d = k
    # must return the clique side of the dichotomy
    graph = sparse.random_k_tree(30, 3, seed=2).freeze()
    result = color_sparse_graph(graph, 3)
    assert result.clique is not None
    oracle = DichotomyOracle()
    assert oracle.check(graph=graph, result=result, d=3).ok

    result.coloring = {}  # corrupt: both sides present
    verdict = oracle.check(graph=graph, result=result, d=3)
    assert not verdict.ok
    assert any("exactly one" in d for d in verdict.diagnostics)


def test_dichotomy_oracle_list_side(instance):
    graph, _ = instance
    lists = random_lists(graph, 4, palette_size=8, seed=5)
    result = color_sparse_graph(graph, 4, lists=lists)
    verdict = DichotomyOracle().check(graph=graph, result=result, d=4, lists=lists)
    assert verdict.ok and verdict.checked > len(graph)


# ---------------------------------------------------------------------------
# structural oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def partition_instance():
    graph = sparse.union_of_random_forests(60, 2, seed=4)
    return graph, h_partition(graph, arboricity=2)


def test_h_partition_oracle_accepts_and_rejects(partition_instance):
    graph, partition = partition_instance
    oracle = HPartitionOracle()
    assert oracle.check(graph=graph, partition=partition).ok

    # corrupt: duplicate a vertex into a fresh trailing class — classes no
    # longer partition V and class_of disagrees with the membership
    victim = max(graph.vertices(), key=graph.degree)
    corrupted = h_partition(graph, arboricity=2)
    corrupted.classes.append({victim})
    verdict = oracle.check(graph=graph, partition=corrupted)
    assert not verdict.ok
    assert any("appears in classes" in d and repr(victim) in d
               for d in verdict.diagnostics)

    # corrupt: understate the degree bound so the peel invariant breaks
    squeezed = h_partition(graph, arboricity=2)
    squeezed.degree_bound = 0.5
    verdict = oracle.check(graph=graph, partition=squeezed)
    assert not verdict.ok
    assert any("degree bound" in d for d in verdict.diagnostics)


def test_h_partition_oracle_rejects_dropped_vertex(partition_instance):
    graph, _ = partition_instance
    corrupted = h_partition(graph, arboricity=2)
    victim = next(iter(corrupted.classes[0]))
    corrupted.classes[0].discard(victim)
    del corrupted.class_of[victim]
    verdict = HPartitionOracle().check(graph=graph, partition=corrupted)
    assert not verdict.ok
    assert any("in no class" in d and repr(victim) in d for d in verdict.diagnostics)


@pytest.fixture(scope="module")
def forest_instance():
    graph = classic.grid_2d(6, 8).freeze()
    subset = set(graph.vertices())
    return graph, subset, ruling_forest(graph, subset, alpha=3)


def test_ruling_forest_oracle_accepts(forest_instance):
    graph, subset, forest = forest_instance
    verdict = RulingForestOracle().check(graph=graph, forest=forest, subset=subset)
    assert verdict.ok and verdict.checked > 0


def test_ruling_forest_oracle_rejects_dropped_edge(forest_instance):
    graph, subset, _ = forest_instance
    forest = ruling_forest(graph, subset, alpha=3)
    # re-parent a non-root vertex onto a non-neighbour: the tree edge the
    # domination argument walks no longer exists in the graph
    victim = next(v for v, p in forest.parent.items() if p is not None)
    far = next(
        u for u in graph.vertices()
        if u != victim and not graph.has_edge(victim, u)
    )
    forest.parent[victim] = far
    verdict = RulingForestOracle().check(graph=graph, forest=forest, subset=subset)
    assert not verdict.ok
    assert any("not an edge" in d and repr(victim) in d for d in verdict.diagnostics)


def test_ruling_forest_oracle_rejects_uncovered_subset(forest_instance):
    graph, subset, _ = forest_instance
    forest = ruling_forest(graph, subset, alpha=3)
    victim = next(v for v, p in forest.parent.items() if p is not None)
    del forest.parent[victim]
    del forest.depth[victim]
    del forest.tree_of[victim]
    verdict = RulingForestOracle().check(graph=graph, forest=forest, subset=subset)
    assert not verdict.ok
    assert any("domination" in d for d in verdict.diagnostics)


def test_ruling_forest_oracle_rejects_close_roots(forest_instance):
    graph, subset, _ = forest_instance
    forest = ruling_forest(graph, subset, alpha=3)
    root = forest.roots[0]
    neighbor = next(iter(graph.neighbors(root)))
    # promote a neighbour of a root to root: distance 1 < alpha = 3
    forest.roots.append(neighbor)
    forest.parent[neighbor] = None
    forest.depth[neighbor] = 0
    forest.tree_of[neighbor] = neighbor
    verdict = RulingForestOracle().check(graph=graph, forest=forest)
    assert not verdict.ok
    assert any("distance" in d and "alpha" in d for d in verdict.diagnostics)


# ---------------------------------------------------------------------------
# rounds, parity, artifacts
# ---------------------------------------------------------------------------

def test_round_envelope_oracle(instance):
    graph, result = instance
    oracle = RoundEnvelopeOracle()
    assert oracle.check(
        kind="theorem13", rounds=result.rounds, n=len(graph), d=4
    ).ok
    verdict = oracle.check(
        kind="theorem13", rounds=10 ** 9, n=len(graph), d=4
    )
    assert not verdict.ok
    assert any("exceed" in d for d in verdict.diagnostics)
    with pytest.raises(ValueError, match="unknown round envelope"):
        oracle.check(kind="nonsense", rounds=1)


def test_simulation_parity_oracle_rejects_divergence():
    from repro.distributed.greedy_baseline import GreedyLocalMaximaAlgorithm

    graph = classic.cycle(9)
    inputs = {v: 2 for v in graph}
    a = run_node_algorithm(graph, GreedyLocalMaximaAlgorithm, inputs=inputs, strict=True)
    b = run_node_algorithm(graph, GreedyLocalMaximaAlgorithm, inputs=inputs, strict=True)
    assert SimulationParityOracle().check(result_a=a, result_b=b).ok
    b.outputs[0] = 99
    b.rounds += 1
    verdict = SimulationParityOracle().check(result_a=a, result_b=b)
    assert not verdict.ok
    assert any("rounds diverge" in d for d in verdict.diagnostics)
    assert any("output of 0" in d for d in verdict.diagnostics)


def test_verdict_raise_if_failed_carries_verdict(instance):
    graph, result = instance
    corrupted = dict(result.coloring)
    u, v = next(iter(graph.edges()))
    corrupted[u] = corrupted[v]
    verdict = ProperColoringOracle().check(graph=graph, coloring=corrupted)
    with pytest.raises(VerificationError, match="monochromatic") as info:
        verdict.raise_if_failed()
    assert info.value.verdict is verdict


def _tiny_artifact():
    return {
        "schema_version": 1,
        "name": "theorem13-colors",
        "generated_at": 0.0,
        "metadata": {"scenario": {"name": "theorem13-colors", "paper_ref": "Theorem 1.3"}},
        "rows": [
            {
                "instance": "n=40 d=4",
                "algorithm": "thm1.3 uniform lists",
                "metrics": {"colors": 4, "budget": 4, "rounds": 100, "valid": True},
                "seconds": 0.1,
            },
            {
                "instance": "n=40 d=4",
                "algorithm": "thm1.3 uniform lists [flat]",
                "metrics": {"colors": 4, "budget": 4, "rounds": 100, "valid": True},
                "seconds": 0.1,
            },
        ],
    }


def test_artifact_oracles_accept_then_reject_corruptions():
    assert artifact_failures(_tiny_artifact()) == []

    over_budget = _tiny_artifact()
    over_budget["rows"][0]["metrics"]["colors"] = 9
    failures = artifact_failures(over_budget)
    assert any("budget" in f for f in failures)

    diverged = _tiny_artifact()
    diverged["rows"][1]["metrics"]["rounds"] = 101
    failures = artifact_failures(diverged)
    assert any("variant" in f and "rounds" in f for f in failures)

    blown = _tiny_artifact()
    for row in blown["rows"]:
        row["metrics"]["rounds"] = 10 ** 9
    failures = artifact_failures(blown)
    assert any("envelope" in f for f in failures)

    broken_schema = _tiny_artifact()
    del broken_schema["rows"]
    assert any("rows" in f for f in artifact_failures(broken_schema))

    # malformed rows must come back as schema failures, never tracebacks
    mangled = _tiny_artifact()
    mangled["rows"].append({"metrics": {"colors": 9, "budget": 1, "rounds": 1}})
    mangled["rows"].append({"instance": 7, "algorithm": None, "metrics": []})
    failures = artifact_failures(mangled)
    assert any("budget" in f for f in failures)


def test_round_envelope_fires_for_theorem13_rounds_artifact():
    """theorem13-rounds labels carry no d=; the envelope oracle must read
    it from metadata.params instead of silently skipping the scenario."""
    from repro.verify.artifact import verify_artifact_dict

    artifact = {
        "schema_version": 1,
        "name": "theorem13-rounds",
        "generated_at": 0.0,
        "metadata": {
            "scenario": {"name": "theorem13-rounds", "paper_ref": "Theorem 1.3"},
            "params": {"d": 4, "sizes": [40]},
        },
        "rows": [
            {
                "instance": "n=40",
                "algorithm": "thm1.3 (paper radius)",
                "metrics": {"n": 40, "rounds": 12_000},
                "seconds": 0.1,
            },
        ],
    }
    envelope = next(
        v for v in verify_artifact_dict(artifact) if "round-envelope" in v.oracle
    )
    assert envelope.ok and envelope.checked > 0  # the oracle really fired
    artifact["rows"][0]["metrics"]["rounds"] = 10 ** 9
    assert any("envelope" in f for f in artifact_failures(artifact))


# ---------------------------------------------------------------------------
# the locality auditor rejects cheating programs
# ---------------------------------------------------------------------------

class _GlobalPeeker(BatchNodeAlgorithm):
    """A batched program that outputs the *array length* — global knowledge
    no message-passing node could have.  On a truncated r-ball network the
    array is smaller, so the auditor must flag every vertex."""

    def initialize_batch(self, context):
        super().initialize_batch(context)

    def is_finished_batch(self):
        return True

    def results_batch(self):
        return [self.context.n] * self.context.n


class _HonestConstant(NodeAlgorithm):
    def result(self):
        return 42


def test_locality_auditor_flags_global_peeker():
    graph = classic.path(30)
    report = audit_locality(graph, _GlobalPeeker, vertices=[10, 15])
    # rounds == 0, so the ball has radius 1 — far smaller than the path
    assert report.rounds == 0
    assert not report.ok
    assert {v.vertex for v in report.violations} == {10, 15}
    verdict = LocalityOracle().check(
        graph=graph, algorithm_factory=_GlobalPeeker, vertices=[10]
    )
    assert not verdict.ok
    assert any("beyond its r-ball" in d for d in verdict.diagnostics)


def test_locality_auditor_passes_honest_program():
    graph = classic.path(30)
    report = audit_locality(graph, _HonestConstant, vertices=[0, 7, 29])
    assert report.ok


# ---------------------------------------------------------------------------
# recovery + containment oracles reject doctored stabilization traces
# ---------------------------------------------------------------------------

def _stabilization_trace():
    """A fresh, deterministic dynamic-run witness to tamper with.

    One corrupt-color fault at round 2 on a 30-path: the conflict takes
    two rounds to resolve (records with conflicts > 0 and legal=False
    exist), then the run quiesces.  Rebuilt per test — mutations below
    edit the records in place.
    """
    graph = classic.path(30)
    initial = degeneracy_greedy_coloring(graph)
    plan = FaultPlan(
        events=(FaultEvent(2, "corrupt-color", (5,), value=initial[4]),),
        seed=0,
    )
    per_node, _batched = STABILIZING_PROTOCOLS["min-plus-one"]
    trace = run_stabilizing(
        PerturbableNetwork(graph, backend="dict"),
        per_node,
        plan=plan,
        budget=palette_bound(graph, plan),
        initial_coloring=initial,
        max_rounds=50,
        protocol="min-plus-one",
    )
    assert trace.quiescent  # precondition for every mutation below
    return trace


def test_recovery_oracle_accepts_genuine_trace():
    trace = _stabilization_trace()
    assert RecoveryOracle().check(trace=trace).ok
    assert ContainmentOracle().check(trace=trace).ok


def test_recovery_oracle_rejects_log_hiding_illegal_coloring():
    # the fault round really left an illegal coloring; whitewash the flag
    trace = _stabilization_trace()
    dirty = next(r for r in trace.records if not r.legal)
    dirty.legal = True
    verdict = RecoveryOracle().check(trace=trace)
    assert not verdict.ok
    assert any("misstates" in d for d in verdict.diagnostics)


def test_recovery_oracle_rejects_understated_conflicts():
    trace = _stabilization_trace()
    dirty = next(r for r in trace.records if r.conflicts > 0)
    dirty.conflicts = 0
    verdict = RecoveryOracle().check(trace=trace)
    assert not verdict.ok
    assert any("replay finds" in d for d in verdict.diagnostics)


def test_recovery_oracle_rejects_hidden_recolor():
    # drop a recorded recolor: the replayed deltas no longer reach the
    # claimed final coloring (and intermediate conflict counts drift)
    trace = _stabilization_trace()
    dirty = next(r for r in trace.records if r.changes)
    dirty.changes = ()
    verdict = RecoveryOracle().check(trace=trace)
    assert not verdict.ok
    assert any(
        "replay finds" in d or "disagrees" in d for d in verdict.diagnostics
    )


def test_recovery_oracle_rejects_noisy_quiescence_claim():
    # quiescent runs must end silent: smuggle a (no-op) change into the
    # final round and the claim no longer holds
    trace = _stabilization_trace()
    last = trace.records[-1]
    last.changes = ((0, trace.final_coloring[0]),)
    verdict = RecoveryOracle().check(trace=trace)
    assert not verdict.ok
    assert any("still changed" in d for d in verdict.diagnostics)


def test_containment_oracle_rejects_out_of_cone_recolor():
    # vertex 25 is 20 hops from the fault site; a round-3 recolor there
    # cannot be caused by the round-2 perturbation
    trace = _stabilization_trace()
    record = next(r for r in trace.records if r.round == 3)
    record.changes = record.changes + ((25, trace.final_coloring[25]),)
    verdict = ContainmentOracle().check(trace=trace)
    assert not verdict.ok
    assert any("causal cone" in d for d in verdict.diagnostics)


def test_containment_oracle_enforces_declared_radius_bound():
    trace = _stabilization_trace()
    assert ContainmentOracle().check(trace=trace, radius_bound=5).ok
    verdict = ContainmentOracle().check(trace=trace, radius_bound=0)
    assert not verdict.ok
    assert any("exceeds the declared" in d for d in verdict.diagnostics)


def _churn_trace():
    """A dynamic-run witness over tuple labels with edge churn.

    A 30-path of ``("p", i)`` vertices: a corrupt-color at ``p5`` (round
    2), an edge insert ``p4 -- p24`` between two equally colored vertices
    (round 6, a conflict the protocol repairs) and an edge delete (round
    7).  The oracles must replay it on label indices exactly as they
    would on integer labels.
    """
    labels = [("p", i) for i in range(30)]
    graph = Graph(vertices=labels, edges=list(zip(labels, labels[1:])))
    initial = degeneracy_greedy_coloring(graph)
    assert initial[("p", 4)] == initial[("p", 24)]  # the insert conflicts
    plan = FaultPlan(
        events=(
            FaultEvent(2, "corrupt-color", (("p", 5),), value=initial[("p", 4)]),
            FaultEvent(6, "edge-insert", (("p", 4), ("p", 24))),
            FaultEvent(7, "edge-delete", (("p", 27), ("p", 28))),
        ),
        seed=0,
    )
    per_node, _batched = STABILIZING_PROTOCOLS["min-plus-one"]
    trace = run_stabilizing(
        PerturbableNetwork(graph, backend="dict"),
        per_node,
        plan=plan,
        budget=palette_bound(graph, plan),
        initial_coloring=initial,
        max_rounds=50,
        protocol="min-plus-one",
    )
    assert trace.quiescent
    assert [f.kind for f in trace.applied_events()] == [
        "corrupt-color", "edge-insert", "edge-delete"
    ]
    return trace


def _mark_insert_skipped(trace) -> None:
    record = next(
        r for r in trace.records if any(f.kind == "edge-insert" for f in r.faults)
    )
    record.faults = tuple(
        dataclasses.replace(f, applied=False) if f.kind == "edge-insert" else f
        for f in record.faults
    )


def test_recovery_oracles_accept_genuine_churn_trace_over_tuple_labels():
    trace = _churn_trace()
    assert RecoveryOracle().check(trace=trace).ok
    assert ContainmentOracle().check(trace=trace).ok


def test_recovery_oracle_names_a_doctored_final_color():
    # every recorded round replays, so only the final registers disagree
    trace = _churn_trace()
    vertex = ("p", 17)
    i = trace.index[vertex]
    trace.final_colors[i] = trace.final_colors[i] % trace.budget + 1
    verdict = RecoveryOracle().check(trace=trace)
    assert verdict.diagnostics == [
        "final coloring disagrees with the replayed deltas on 1 vertex(es), "
        f"e.g. {[repr(vertex)]}"
    ]
    trace.final_colors = trace.final_colors[:-1]
    verdict = RecoveryOracle().check(trace=trace)
    assert verdict.diagnostics == [
        "final coloring holds 29 register(s) for 30 vertices"
    ]


def test_recovery_oracle_rejects_flipped_edge_event():
    # the insert really created a conflicting edge; claim it never applied
    trace = _churn_trace()
    _mark_insert_skipped(trace)
    verdict = RecoveryOracle().check(trace=trace)
    assert not verdict.ok
    assert any("replay finds" in d for d in verdict.diagnostics)


def _path6_trace():
    """A genuine min+1 run on a 6-path with one recolor.

    A corrupt-color at vertex 2 (round 2) copies its neighbour's color,
    so the run recolors and the containment audit has a recolor to place.
    """
    graph = classic.path(6)
    initial = degeneracy_greedy_coloring(graph)
    plan = FaultPlan(
        events=(FaultEvent(2, "corrupt-color", (2,), value=initial[1]),), seed=0
    )
    per_node, _batched = STABILIZING_PROTOCOLS["min-plus-one"]
    trace = run_stabilizing(
        PerturbableNetwork(graph, backend="dict"),
        per_node,
        plan=plan,
        budget=palette_bound(graph, plan),
        initial_coloring=initial,
        max_rounds=50,
        protocol="min-plus-one",
    )
    assert any(record.changes for record in trace.records)
    return trace


@pytest.mark.parametrize("oracle", [RecoveryOracle, ContainmentOracle])
@pytest.mark.parametrize(
    "vertices", [(0, "ghost"), (3, 3)], ids=["unknown-vertex", "loop"]
)
def test_recovery_oracles_fail_on_a_tampered_edge_event(oracle, vertices):
    """An applied edge event naming no edge fails the verdict, it does not raise.

    An unknown vertex used to raise ``KeyError`` in both replays, and a
    loop was inserted as a key, so the replay found a self-conflict.
    """
    trace = _path6_trace()
    assert oracle().check(trace=trace).ok
    record = trace.records[2]
    record.faults = record.faults + (
        AppliedFault(record.round, "edge-insert", vertices, None, True),
    )
    verdict = oracle().check(trace=trace)
    assert not verdict.ok
    assert verdict.diagnostics == [
        f"round {record.round}: applied edge-insert {vertices!r} names an "
        "unknown vertex or a loop"
    ]


def test_containment_cone_follows_inserted_edges_only_when_applied():
    # p23 is 18 path hops from the round-2 corruption at p5, but 3 hops
    # (p5 - p4 - p24 - p23) over the inserted edge: a round-4 recolor
    # there is inside the union topology's cone only through that edge
    trace = _churn_trace()
    record = next(r for r in trace.records if r.round == 4)
    record.changes = record.changes + ((("p", 23), trace.final_coloring[("p", 23)]),)
    assert ContainmentOracle().check(trace=trace).ok
    _mark_insert_skipped(trace)
    verdict = ContainmentOracle().check(trace=trace)
    assert not verdict.ok
    assert any(
        "('p', 23)" in d and "causal cone" in d for d in verdict.diagnostics
    )


def _containment_per_fault_bfs(trace) -> tuple[int, list[str]]:
    """Reference for :func:`measure_containment`: one BFS per applied fault.

    The fault's seed distance to each vertex comes from its own BFS on
    the union topology; a recolor ``(r, v)`` takes the smallest distance
    ``d`` over the faults with ``p <= r`` and ``d <= r - p + 1``.
    """
    index = {v: i for i, v in enumerate(trace.labels)}
    recolors = [
        (record.round, vertex)
        for record in trace.records
        for vertex, _color in record.changes
    ]
    if not recolors:
        return 0, []
    rounds = np.array([r for r, _v in recolors], dtype=np.int64)
    # unknown labels read the cell past the last vertex, which no BFS reaches
    positions = np.array([index.get(v, -1) for _r, v in recolors], dtype=np.int64)
    applied = trace.applied_events()
    # the initial edges as index pairs, read off the trace's own edge set
    pairs = np.column_stack(trace.initial_edges.pairs()).tolist() + [
        [index[u], index[v]]
        for f in applied if f.kind == "edge-insert"
        for u, v in [f.vertices]
    ]
    union = FrozenGraph.from_edge_array(
        len(trace.labels), np.array(pairs, dtype=np.int64).reshape(-1, 2),
    )
    last_round = int(rounds.max())
    best = np.full(len(recolors), -1, dtype=np.int64)
    for fault in applied:
        p = fault.round
        if p > last_round:
            continue
        sources = [index[v] for v in fault.vertices if v in index]
        dist = np.full(len(trace.labels) + 1, -1, dtype=np.int64)
        for depth, frontier in enumerate(
            union.multi_source_levels(sources, last_round - p + 1)
        ):
            dist[frontier] = depth
        seen = dist[positions]
        ok = (rounds >= p) & (seen >= 0) & (seen <= rounds - p + 1)
        best = np.where(ok & ((best < 0) | (seen < best)), seen, best)
    violations = [
        f"vertex {recolors[k][1]!r} recolored at round {recolors[k][0]} "
        "outside the causal cone of every applied perturbation"
        for k in np.flatnonzero(best < 0).tolist()
    ]
    return int(best.max(initial=0)), violations


def _tuple_triangulation(n: int, seed: int) -> Graph:
    graph = planar.stacked_triangulation(n, seed=seed)
    return Graph(
        vertices=[("t", v) for v in graph.vertices()],
        edges=[(("t", u), ("t", v)) for u, v in graph.edges()],
    )


def _tuple_path_with_isolated(n: int, isolated: int) -> Graph:
    # the isolated vertices sit between path vertices in label order
    labels = [("p", i) for i in range(n)]
    return Graph(
        vertices=[v for i, label in enumerate(labels)
                  for v in ((label, ("iso", i)) if i < isolated else (label,))],
        edges=list(zip(labels, labels[1:])),
    )


def _injected_trace(graph, seed: int, kinds=FAULT_KINDS, events: int = 8):
    """A genuine churn run, then 1-20 recolors injected at random rounds.

    Some injected recolors name labels outside the graph; the injections
    land inside and outside the fault cones alike.
    """
    rng = random.Random(seed)
    plan = FaultPlan.random(graph, seed=seed, kinds=kinds, events=events, window=6)
    per_node, _batched = STABILIZING_PROTOCOLS["min-plus-one"]
    trace = run_stabilizing(
        PerturbableNetwork(graph, backend="dict"),
        per_node,
        plan=plan,
        budget=palette_bound(graph, plan),
        initial_coloring=degeneracy_greedy_coloring(graph),
        max_rounds=200,
        protocol="min-plus-one",
    )
    labels = trace.labels
    for k in range(rng.randint(1, 20)):
        record = rng.choice(trace.records)
        vertex = ("ghost", k) if rng.random() < 0.15 else rng.choice(labels)
        record.changes = record.changes + ((vertex, 1),)
    return trace


@pytest.mark.parametrize("seed", range(16))
def test_containment_sweep_matches_per_fault_bfs(seed):
    graphs = (
        _tuple_triangulation(40 + 7 * seed, seed),
        _tuple_path_with_isolated(30 + seed, isolated=1 + seed % 4),
    )
    for graph in graphs:
        for kinds in (FAULT_KINDS, ("edge-insert", "edge-delete", "corrupt-color")):
            trace = _injected_trace(graph, seed, kinds)
            assert measure_containment(trace) == _containment_per_fault_bfs(trace)


def test_containment_without_applied_faults_flags_every_recolor():
    trace = _injected_trace(_tuple_path_with_isolated(12, 2), 3, events=0)
    assert not trace.applied_events()
    radius, violations = measure_containment(trace)
    assert radius == 0
    assert len(violations) == sum(len(r.changes) for r in trace.records) > 0
    assert (radius, violations) == _containment_per_fault_bfs(trace)


def _one_fault_path_trace(recolor_round: int, recolor_vertex: int) -> StabilizationTrace:
    """A 10-path with one corrupt-color at vertex 5 in round 3 and one recolor.

    The fault site also recolors in round 5 (distance 0), so the fault's
    round always lies within the recolor rounds the audit reads.
    """
    labels = list(range(10))
    records = [
        RoundRecord(
            round=r,
            faults=(
                (AppliedFault(3, "corrupt-color", (5,), 2, True),) if r == 3 else ()
            ),
            changes=(
                ((recolor_vertex, 1),) * (r == recolor_round) + ((5, 2),) * (r == 5)
            ),
            conflicts=0,
            legal=True,
            messages=0,
        )
        for r in range(1, 6)
    ]
    path = FrozenGraph.from_edge_array(len(labels), list(zip(labels, labels[1:])))
    return StabilizationTrace(
        labels=labels,
        index={v: i for i, v in enumerate(labels)},
        budget=3,
        initial_colors=np.array([1 + v % 2 for v in labels], dtype=np.int64),
        initial_edges=EdgeSet.from_csr(*path.csr_arrays()),
        records=records,
    )


@pytest.mark.parametrize(
    "recolor_round, recolor_vertex, expected",
    [
        (2, 5, None),  # the fault site, one round before the fault
        (3, 5, 0),  # the fault site, in the fault's round
        (2, 4, None),  # a neighbour, one round before the fault
        (3, 4, 1),  # a neighbour hears the fault in its round
        (3, 7, None),  # two hops away: one hop per round after the first
        (4, 7, 2),
        (4, 8, None),
        (5, 8, 3),
    ],
)
def test_containment_cone_boundaries(recolor_round, recolor_vertex, expected):
    """The bound is ``r`` at both ``d = 0`` and ``d = 1``, then ``r + 1 - d``."""
    trace = _one_fault_path_trace(recolor_round, recolor_vertex)
    radius, violations = measure_containment(trace)
    if expected is None:
        assert radius == 0 and len(violations) == 1
        assert f"vertex {recolor_vertex} recolored at round {recolor_round}" in violations[0]
    else:
        assert (radius, violations) == (expected, [])
    assert (radius, violations) == _containment_per_fault_bfs(trace)


def _dynamic_artifact():
    return {
        "schema_version": 1,
        "name": "dynamic",
        "generated_at": 0.0,
        "metadata": {
            "scenario": {"name": "dynamic", "paper_ref": "dynamic graphs"}
        },
        "rows": [
            {
                "instance": "planar n=36 faults=corrupt",
                "algorithm": "min-plus-one [dict]",
                "metrics": {
                    "rounds": 9,
                    "quiescent": True,
                    "legal": True,
                    "rounds_to_recovery": 2,
                    "recovered": True,
                    "recolored_vertices": 3,
                    "containment_radius": 1,
                    "containment_violations": 0,
                    "recovery_cap": 400,
                    "containment_bound": 400,
                },
                "seconds": 0.1,
            },
        ],
    }


def test_artifact_recovery_oracle_rejects_corrupted_dynamic_rows():
    assert artifact_failures(_dynamic_artifact()) == []

    noisy = _dynamic_artifact()
    noisy["rows"][0]["metrics"]["quiescent"] = False
    assert any("silent state" in f for f in artifact_failures(noisy))

    unrecovered = _dynamic_artifact()
    unrecovered["rows"][0]["metrics"].update(recovered=False, rounds_to_recovery=-1)
    assert any("never recovered" in f for f in artifact_failures(unrecovered))

    leaky = _dynamic_artifact()
    leaky["rows"][0]["metrics"]["containment_violations"] = 3
    assert any("causal cone" in f for f in artifact_failures(leaky))

    slow = _dynamic_artifact()
    slow["rows"][0]["metrics"]["rounds_to_recovery"] = 401
    assert any("exceeds the cap" in f for f in artifact_failures(slow))

    wide = _dynamic_artifact()
    wide["rows"][0]["metrics"]["containment_radius"] = 500
    assert any("exceeds" in f for f in artifact_failures(wide))
