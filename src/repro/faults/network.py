"""The mutable-topology adapter over :class:`~repro.local.network.Network`.

A :class:`PerturbableNetwork` owns the ground-truth adjacency of a
dynamic run.  The vertex set (and hence the identifier assignment
``1..n`` in vertex order) is fixed at construction; edges come and go
between rounds.  After each batch of edits the engine reads
:attr:`PerturbableNetwork.network` and gets a fresh, consistent
port-numbered :class:`~repro.local.network.Network` whose routing
fabric reflects the current topology — ports renumber exactly as the
LOCAL model prescribes (neighbours enumerated by increasing
identifier).

Every rebuild flattens the maintained per-node sorted adjacency into
routing-fabric tables, and the :class:`Network` reads its graph through
a :class:`~repro.graphs.frozen.FrozenGraph` view of the fabric's
``offsets``/``endpoints`` arrays that shares the input's label list and
label index.  Two backends build the fabric,
mirroring the dict/flat split of the static engine:

* ``dict`` — Python-list tables with per-slot bisection for
  ``reverse_slot``; the reference.
* ``flat`` — ``int64`` arrays handed to the frozen CSR fast path
  (:func:`repro.local.network._fabric_from_csr`), which recovers
  ``reverse_slot`` with one value sort of packed ``(dst << b) | slot``
  keys and leaves the fabric's Python list views to be built on first
  read (only the per-node engine reads them).

The parity tests assert both backends produce identical tables after
identical edit sequences, which is what licenses the flat backend in
the benchmarked scenarios.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Mapping
from itertools import chain

import numpy as np

from repro.errors import GraphError
from repro.graphs.frozen import GraphLike, freeze
from repro.graphs.graph import Vertex
from repro.local.network import (
    Network,
    RoutingFabric,
    _fabric_from_csr,
    _reverse_slots_python,
)

__all__ = ["PerturbableNetwork"]

BACKENDS = ("dict", "flat")


class PerturbableNetwork:
    """Fixed vertex set, editable edge set, rebuildable port tables."""

    def __init__(self, graph: GraphLike, *, backend: str = "flat"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        self.backend = backend
        frozen = freeze(graph)
        self.labels: list[Vertex] = frozen.vertices()
        if not self.labels:
            raise GraphError("PerturbableNetwork needs at least one vertex")
        # the edits below and every rebuilt network (see _build_network)
        # read the input's own label index: no rebuild re-indexes labels
        self._frozen = frozen
        self._index: Mapping[Vertex, int] = frozen._index
        # ground truth: per-node neighbour indices, kept sorted ascending
        # (index order == identifier order, so slices are already in port
        # order and both fabric builds read them verbatim); the CSR slices
        # of the frozen input are exactly that
        offsets, neighbors = (a.tolist() for a in frozen.csr_arrays())
        self._adj: list[list[int]] = [
            neighbors[offsets[i]:offsets[i + 1]] for i in range(len(self.labels))
        ]
        self.version = 0
        self._network: Network | None = None
        self._network_version = -1

    # ------------------------------------------------------------------
    # topology queries / edits
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, v: Vertex) -> int | None:
        return self._index.get(v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j:
            return False
        return self._has_edge_idx(i, j)

    def _has_edge_idx(self, i: int, j: int) -> bool:
        row = self._adj[i]
        pos = bisect_left(row, j)
        return pos < len(row) and row[pos] == j

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert ``{u, v}``; False when inapplicable (present, loop, unknown)."""
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j or self._has_edge_idx(i, j):
            return False
        insort(self._adj[i], j)
        insort(self._adj[j], i)
        self.version += 1
        return True

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete ``{u, v}``; False when the edge is not currently present."""
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j or not self._has_edge_idx(i, j):
            return False
        self._adj[i].remove(j)
        self._adj[j].remove(i)
        self.version += 1
        return True

    def degree_of_index(self, i: int) -> int:
        return len(self._adj[i])

    def edge_count(self) -> int:
        return sum(len(row) for row in self._adj) // 2

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """Current edges as label pairs, canonically ordered by index."""
        return [
            (self.labels[i], self.labels[j])
            for i, row in enumerate(self._adj)
            for j in row
            if i < j
        ]

    # ------------------------------------------------------------------
    # the Network view
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The current port-numbered network, rebuilt lazily after edits."""
        if self._network is None or self._network_version != self.version:
            self._network = self._build_network()
            self._network_version = self.version
        return self._network

    def _build_network(self) -> Network:
        fabric = self._flat_fabric() if self.backend == "flat" else self._dict_fabric()
        # the fabric's offsets/endpoints arrays are the current CSR, so the
        # Network's graph is a zero-copy frozen view of them
        network = Network(
            self._frozen._with_csr(
                fabric.offsets_np, fabric.endpoints_np, name="perturbed"
            )
        )
        network._fabric = fabric
        return network

    def _dict_fabric(self) -> RoutingFabric:
        offsets = [0] * (self.n + 1)
        endpoints: list[int] = []
        for i, row in enumerate(self._adj):
            endpoints.extend(row)
            offsets[i + 1] = len(endpoints)
        reverse = _reverse_slots_python(offsets, endpoints)
        return RoutingFabric(offsets, endpoints, reverse)

    def _flat_fabric(self) -> RoutingFabric:
        n = self.n
        degrees = np.fromiter(map(len, self._adj), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        endpoints = np.fromiter(
            chain.from_iterable(self._adj), dtype=np.int64, count=int(offsets[-1])
        )
        return _fabric_from_csr(offsets, endpoints)
