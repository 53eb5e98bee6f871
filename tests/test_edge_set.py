"""The fault plane's edge set against the structures it replaced.

:class:`~repro.faults.edgeset.EdgeSet` is the only copy of a dynamic
run's edge set: :class:`~repro.faults.network.PerturbableNetwork` edits
it and splits it into every rebuilt fabric, :meth:`FaultPlan.random
<repro.faults.plan.FaultPlan.random>` draws its picks from its own
projection, and the recovery replay starts from the trace's copy.  The
references here are the structures it replaced, kept in the tests only:

* :class:`SortedListAdjacency` — per-vertex sorted neighbour lists,
  edited with ``insort``/``remove`` and flattened into CSR lists on every
  rebuild; ``reverse_slot`` comes from a lookup of the twin slot, and the
  plan's projection is the sorted ``i * n + j`` keys (``i < j``);
* :class:`KeyReplay` — the replay's set-up from label pairs
  (``_index_pairs`` and ``np.unique`` of ``lo * n + hi`` keys), edited
  with ``np.insert``/``np.delete``.

Hypothesis draws graphs (isolated vertices, tuple labels, shuffled label
orders) and edit sequences (inserts of present edges, deletes of absent
ones, loops and unknown labels among them).  After every edit both
backends' ``offsets``, ``endpoints`` and ``reverse_slot``, the replay's
edge set and the plan's projection, its k-th picks included, must equal
the reference's.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    AppliedFault,
    EdgeSet,
    PerturbableNetwork,
    RoundRecord,
    StabilizationTrace,
)
from repro.errors import GraphError
from repro.graphs.frozen import FrozenGraph, _sorted_pair_keys, freeze
from repro.graphs.graph import Graph
from repro.verify.recovery import _Replay

EDGE_KINDS = ("edge-insert", "edge-delete")


class SortedListAdjacency:
    """Sorted neighbour index lists per vertex, edited in place."""

    def __init__(self, frozen: FrozenGraph) -> None:
        self.index = {v: i for i, v in enumerate(frozen.vertices())}
        offsets, neighbors = (a.tolist() for a in frozen.csr_arrays())
        self.adj = [
            neighbors[offsets[i]:offsets[i + 1]] for i in range(len(self.index))
        ]

    def _pair(self, u, v):
        i, j = self.index.get(u), self.index.get(v)
        return None if i is None or j is None or i == j else (i, j)

    def has(self, i: int, j: int) -> bool:
        row = self.adj[i]
        pos = bisect_left(row, j)
        return pos < len(row) and row[pos] == j

    def edit(self, kind: str, u, v) -> bool:
        pair = self._pair(u, v)
        if pair is None or self.has(*pair) == (kind == "edge-insert"):
            return False
        i, j = pair
        if kind == "edge-insert":
            insort(self.adj[i], j)
            insort(self.adj[j], i)
        else:
            self.adj[i].remove(j)
            self.adj[j].remove(i)
        return True

    def fabric(self) -> tuple[list[int], list[int], list[int]]:
        """The flattened ``(offsets, endpoints, reverse_slot)`` lists."""
        offsets = [0]
        for row in self.adj:
            offsets.append(offsets[-1] + len(row))
        endpoints = list(chain.from_iterable(self.adj))
        slot = {
            (i, j): k
            for i in range(len(self.adj))
            for k, j in zip(range(offsets[i], offsets[i + 1]), self.adj[i])
        }
        return offsets, endpoints, [slot[j, i] for (i, j) in slot]

    def plan_keys(self) -> list[int]:
        n = len(self.adj)
        return [i * n + j for i, row in enumerate(self.adj) for j in row if i < j]


def _index_pairs(index: dict, pairs) -> np.ndarray:
    """Vertex-label pairs as an ``(m, 2)`` int64 array of label indices."""
    return np.fromiter(
        map(index.__getitem__, chain.from_iterable(pairs)),
        dtype=np.int64,
        count=2 * len(pairs),
    ).reshape(-1, 2)


class KeyReplay:
    """The replay's edge set as sorted ``lo * n + hi`` keys over label pairs."""

    def __init__(self, labels, initial_edges) -> None:
        self.index = {v: i for i, v in enumerate(labels)}
        self.n = len(labels)
        pairs = _index_pairs(self.index, initial_edges)
        self.keys = np.unique(pairs.min(axis=1) * self.n + pairs.max(axis=1))

    def apply(self, kind: str, u, v) -> None:
        i, j = self.index[u], self.index[v]
        key = min(i, j) * self.n + max(i, j)
        pos = int(np.searchsorted(self.keys, key))
        present = pos < len(self.keys) and self.keys[pos] == key
        if kind == "edge-insert" and not present:
            self.keys = np.insert(self.keys, pos, key)
        elif kind == "edge-delete" and present:
            self.keys = np.delete(self.keys, pos)

    def pairs(self) -> tuple[list[int], list[int]]:
        lo, hi = np.divmod(self.keys, self.n)
        return lo.tolist(), hi.tolist()


def _check_edits(graph: Graph, edits) -> None:
    """Run ``edits`` on every owner of an edge set and on the references."""
    frozen = freeze(graph)
    labels = frozen.vertices()
    n = len(labels)
    reference = SortedListAdjacency(frozen)
    nets = {b: PerturbableNetwork(frozen, backend=b) for b in ("dict", "flat")}
    # the plan's projection, built as FaultPlan.random builds it: the CSR
    # rows' keys, already in the order a sort would give them
    offsets, neighbors = frozen.csr_arrays()
    plan_edges = EdgeSet.from_csr(offsets, neighbors)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    sorted_keys, shift = _sorted_pair_keys(sources, neighbors, n, n)
    assert plan_edges.shift == shift
    assert plan_edges.keys.tolist() == sorted_keys.tolist()
    replay = _Replay(
        StabilizationTrace(
            labels=labels,
            index=nets["flat"].index,
            budget=1,
            initial_colors=np.zeros(n, dtype=np.int64),
            initial_edges=nets["flat"].edge_set.copy(),
        )
    )
    key_replay = KeyReplay(labels, graph.edges())
    for step, (kind, u, v) in enumerate(edits, start=1):
        applied = reference.edit(kind, u, v)
        for net in nets.values():
            edit = net.insert_edge if kind == "edge-insert" else net.delete_edge
            assert edit(u, v) is applied
        i, j = nets["flat"].index.get(u), nets["flat"].index.get(v)
        if i is not None and j is not None:  # the plan edits known vertices
            edit = plan_edges.insert if kind == "edge-insert" else plan_edges.delete
            assert edit(i, j) is applied
        # the replay reads the event as the engine logs it
        replay.apply(
            RoundRecord(step, (AppliedFault(step, kind, (u, v), None, applied),),
                        (), 0, True, 0)
        )
        if applied:
            key_replay.apply(kind, u, v)

        offsets, endpoints, reverse = reference.fabric()
        for net in nets.values():
            fabric = net.network.fabric
            assert fabric.offsets_np.tolist() == offsets
            assert fabric.endpoints_np.tolist() == endpoints
            assert fabric.reverse_np.tolist() == reverse
        assert (replay.lo.tolist(), replay.hi.tolist()) == key_replay.pairs()
        picks = [divmod(key, n) for key in reference.plan_keys()]
        assert len(plan_edges) == len(picks)
        # the k-th pick on the edited projection and on a fresh copy of it
        assert [plan_edges.edge(k) for k in range(len(picks))] == picks
        fresh = plan_edges.copy()
        assert [fresh.edge(k) for k in range(len(picks))] == picks
        assert [
            (a, b) for a in range(n) for b in range(n) if plan_edges.contains(a, b)
        ] == [(a, b) for a in range(n) for b in range(n) if reference.has(a, b)]


@st.composite
def edit_cases(draw):
    """A small graph and edits that name its labels, loops and an unknown label."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = [("v", i) for i in range(n)] if draw(st.booleans()) else list(range(n))
    labels = draw(st.permutations(names))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    graph = Graph(vertices=labels, edges=[(labels[a], labels[b]) for a, b in edges])
    # position n names a label outside the graph
    endpoint = st.integers(min_value=0, max_value=n).map(
        lambda k: labels[k] if k < n else "ghost"
    )
    edits = draw(st.lists(
        st.tuples(st.sampled_from(EDGE_KINDS), endpoint, endpoint), max_size=24
    ))
    return graph, edits


@settings(max_examples=200, deadline=None)
@given(edit_cases())
def test_edge_set_owners_match_the_references(case):
    _check_edits(*case)


@pytest.mark.parametrize(
    "graph, edits",
    [
        (Graph(vertices=[0]), [("edge-insert", 0, 0), ("edge-delete", 0, 0),
                               ("edge-insert", 0, "ghost")]),
        (Graph(vertices=[1, 0]), [("edge-insert", 0, 1), ("edge-insert", 1, 0),
                                  ("edge-delete", 1, 0), ("edge-delete", 0, 1),
                                  ("edge-insert", 1, 0)]),
        (Graph(vertices=[("a", 1), ("a", 0)], edges=[(("a", 0), ("a", 1))]),
         [("edge-delete", ("a", 1), ("a", 0)), ("edge-insert", ("a", 0), ("a", 0)),
          ("edge-insert", ("a", 0), ("a", 1))]),
    ],
    ids=["one-vertex", "two-vertices", "two-tuple-labels"],
)
def test_edge_set_on_one_and_two_vertices(graph, edits):
    _check_edits(graph, edits)


def test_edge_set_k_th_pick_follows_index_order():
    # a star with its hub last: every edge {i, hub} has i < hub
    edges = EdgeSet.from_csr(
        *FrozenGraph.from_edge_array(5, [(4, 0), (4, 1), (4, 2), (4, 3)]).csr_arrays()
    )
    assert [edges.edge(k) for k in range(len(edges))] == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert edges.insert(1, 2) and edges.delete(0, 4)
    assert [edges.edge(k) for k in range(len(edges))] == [(1, 2), (1, 4), (2, 4), (3, 4)]


def test_edge_set_k_th_pick_through_many_edits():
    """Picks and pairs stay in index order through hundreds of random edits."""
    rng = random.Random(7)
    n = 80
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(150)}
    edges = EdgeSet.from_csr(*FrozenGraph.from_edge_array(n, sorted(pairs)).csr_arrays())
    assert edges.edge(0) == min(pairs)
    for _checkpoint in range(9):
        for _ in range(100):
            i, j = rng.sample(range(n), 2)
            pair = (min(i, j), max(i, j))
            if rng.random() < 0.5:
                assert edges.insert(i, j) is (pair not in pairs)
                pairs.add(pair)
            else:
                assert edges.delete(i, j) is (pair in pairs)
                pairs.discard(pair)
        assert len(edges) == len(pairs)
        assert [edges.edge(k) for k in range(len(pairs))] == sorted(pairs)
    assert np.column_stack(edges.pairs()).tolist() == [list(p) for p in sorted(pairs)]


def test_edge_set_refuses_keys_past_63_bits():
    # a zero-stride view: n = 2^31 + 1 vertices with no memory behind them
    offsets = np.broadcast_to(np.int64(0), (2**31 + 2,))
    with pytest.raises(GraphError, match="63-bit"):
        EdgeSet.from_csr(offsets, np.empty(0, dtype=np.int64))
