"""The mutable-topology adapter over :class:`~repro.local.network.Network`.

A :class:`PerturbableNetwork` owns the ground-truth edge set of a
dynamic run, an :class:`~repro.faults.edgeset.EdgeSet` of vertex-index
keys.  The vertex set (and hence the identifier assignment ``1..n`` in
vertex order) is fixed at construction; edges come and go between
rounds.  After each batch of edits the engine reads
:attr:`PerturbableNetwork.network` and gets a fresh, consistent
port-numbered :class:`~repro.local.network.Network` whose routing
fabric reflects the current topology — ports renumber exactly as the
LOCAL model prescribes (neighbours enumerated by increasing
identifier).

Every rebuild splits the edge set's keys into the CSR routing-fabric
tables, and the :class:`Network` reads its graph through
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

from collections.abc import Mapping

from repro.errors import GraphError
from repro.faults.edgeset import EdgeSet
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
        # edits and rebuilt networks read the input's own label index, and
        # index order is identifier order, so the split's rows are in port order
        self._frozen = frozen
        self.index: Mapping[Vertex, int] = frozen._index
        self.edge_set = EdgeSet.from_csr(*frozen.csr_arrays())
        self._network: Network | None = None  # None: rebuild on the next read

    # ------------------------------------------------------------------
    # topology queries / edits
    # ------------------------------------------------------------------
    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        i, j = self.index.get(u), self.index.get(v)
        return i is not None and j is not None and self.edge_set.contains(i, j)

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert ``{u, v}``; False when inapplicable (present, loop, unknown)."""
        return self._edit(self.edge_set.insert, u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete ``{u, v}``; False when the edge is not currently present."""
        return self._edit(self.edge_set.delete, u, v)

    def _edit(self, edit, u: Vertex, v: Vertex) -> bool:
        i, j = self.index.get(u), self.index.get(v)
        if i is None or j is None or not edit(i, j):
            return False
        self._network = None
        return True

    # ------------------------------------------------------------------
    # the Network view
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The current port-numbered network, rebuilt lazily after edits."""
        if self._network is None:
            self._network = self._build_network()
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
        offsets, endpoints = (a.tolist() for a in self.edge_set.split())
        reverse = _reverse_slots_python(offsets, endpoints)
        return RoutingFabric(offsets, endpoints, reverse)

    def _flat_fabric(self) -> RoutingFabric:
        return _fabric_from_csr(*self.edge_set.split())
