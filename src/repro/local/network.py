"""The network side of the LOCAL-model simulator.

A :class:`Network` wraps a graph (mutable :class:`~repro.graphs.graph.Graph`
or frozen :class:`~repro.graphs.frozen.FrozenGraph`): it assigns identifiers
``1..n`` to the vertices, fixes a port numbering (for every vertex, its
incident edges are numbered ``0..deg-1``), and records the mapping back to
the original vertex labels so that simulation outputs can be reported in
terms of the caller's vertices.

Internally the port numbering is materialized once per graph as a
:class:`RoutingFabric` — flat integer arrays over *directed edge slots*.
Slot ``offsets[i] + p`` is port ``p`` of the node with index ``i``
(identifier ``i + 1``); ``endpoints[slot]`` is the node index on the other
side of that port, and ``reverse_slot[slot]`` is the slot of the same edge
seen from the other endpoint.  Delivering a message sent by node ``i`` on
port ``p`` is therefore a single array read — ``reverse_slot[offsets[i]+p]``
names the receiver's inbox slot — instead of the two dict hops
(``neighbor_on_port`` + ``port_towards``) of the dict-routed engine.

The fabric is array-first.  For a frozen graph with the default identifier
order, the port tables are the CSR arrays themselves (zero-copy):
identifiers follow the vertex indices and each CSR neighbour slice is
already sorted by index, hence by identifier.  ``reverse_slot`` then comes
from one value sort of packed ``(dst << b) | slot`` keys
(:func:`_fabric_from_csr`, which also serves the flat rebuilds of
:mod:`repro.faults.network`).  Every other network (mutable graphs,
``identifiers=``, ``identifier_order=``) relabels the frozen CSR to node
indices, re-sorts it with one value sort of ``(node << b) | neighbour``
keys and goes through the same builder.  The plain-list views the
per-node round loop reads (``offsets``, ``endpoints``, ``reverse_slot``,
``degrees``) are built from the arrays on first read, so batched runs never
pay for them.  Likewise, a default-order :class:`Network` builds its
vertex/identifier dicts only when a caller asks for one.

The dict-based lookup API (:attr:`Network.ports`, :meth:`neighbor_on_port`,
:meth:`port_towards`) is kept for callers and tests, derived lazily from the
fabric.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import Any

import numpy as np

from repro.graphs.frozen import FrozenGraph, GraphLike, _sorted_pair_keys, freeze
from repro.graphs.graph import Vertex

__all__ = ["Network", "RoutingFabric"]


class RoutingFabric:
    """Flat-array routing tables of a port-numbered network.

    The tables are ``int64`` numpy arrays (the batched engine's data plane).
    Each is also exposed as a plain Python list — fast scalar access for
    the per-node round loop — built from its array on first read and
    cached.  A table passed in as a list (the dict builds) is kept and
    serves as its own list view.

    Attributes
    ----------
    n:
        Number of nodes; node ``i`` has identifier ``i + 1``.
    num_slots:
        Number of directed edge slots (``2m``).
    offsets / offsets_np:
        ``offsets[i] .. offsets[i+1]`` delimits node ``i``'s port slots.
    endpoints / endpoints_np:
        ``endpoints[slot]`` is the node index reached through that slot.
    reverse_slot / reverse_np:
        The same edge seen from the other side: an involution with
        ``endpoints[reverse_slot[k]] == src(k)``.
    degrees / degrees_np:
        Per-node degrees (``offsets`` differences).
    """

    def __init__(self, offsets, endpoints, reverse_slot, sources_np=None) -> None:
        self.n = len(offsets) - 1
        self.num_slots = len(endpoints)
        # a table passed in as a list is its own list view
        if isinstance(offsets, list):
            self.offsets = offsets
        if isinstance(endpoints, list):
            self.endpoints = endpoints
        if isinstance(reverse_slot, list):
            self.reverse_slot = reverse_slot
        self.offsets_np = np.asarray(offsets, dtype=np.int64)
        self.endpoints_np = np.asarray(endpoints, dtype=np.int64)
        self.reverse_np = np.asarray(reverse_slot, dtype=np.int64)
        self.degrees_np = np.diff(self.offsets_np)
        self._sources_np = sources_np

    @cached_property
    def offsets(self) -> list[int]:
        return self.offsets_np.tolist()

    @cached_property
    def endpoints(self) -> list[int]:
        return self.endpoints_np.tolist()

    @cached_property
    def reverse_slot(self) -> list[int]:
        return self.reverse_np.tolist()

    @cached_property
    def degrees(self) -> list[int]:
        return self.degrees_np.tolist()

    def sources_np(self):
        """Per-slot source node index (``sources[offsets[i]+p] == i``), cached.

        The natural companion of ``endpoints`` for batched programs
        ("broadcast my value on every port" is ``values[sources]``).
        """
        if self._sources_np is None:
            self._sources_np = np.repeat(
                np.arange(self.n, dtype=np.int64), self.degrees_np
            )
        return self._sources_np


def _reverse_slots_python(offsets: list[int], endpoints: list[int]) -> list[int]:
    """``reverse_slot`` by per-slot binary search in the sorted slices."""
    n = len(offsets) - 1
    reverse = [0] * len(endpoints)
    for i in range(n):
        for k in range(offsets[i], offsets[i + 1]):
            j = endpoints[k]
            reverse[k] = bisect_left(endpoints, i, offsets[j], offsets[j + 1])
    return reverse


def _fabric_from_csr(offsets, endpoints) -> RoutingFabric:
    """Fabric straight off ``int64`` CSR arrays, ``reverse_slot`` by one value sort.

    The arrays must describe a simple undirected graph in CSR order: each
    neighbour slice sorted ascending, every edge present in both slices.
    No Python list is built here; the fabric's list views stay lazy.
    """
    n = len(offsets) - 1
    num_slots = len(endpoints)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    # slots are in CSR order, i.e. sorted by (src, dst), so within one dst
    # slot order is src order: sorting the distinct (dst, slot) keys orders
    # the slots by (dst, src), and as the edge set is symmetric the slot in
    # the low bits at position k is the reverse of slot k
    keys, shift = _sorted_pair_keys(
        endpoints, np.arange(num_slots, dtype=np.int64), n, num_slots
    )
    keys &= (1 << shift) - 1
    return RoutingFabric(offsets, endpoints, keys, sources_np=sources)


class Network:
    """A port-numbered network over an input graph.

    By default identifiers are ``1..n`` following the graph's vertex order
    (``identifier_order`` permutes that assignment).  Two keyword-only
    extensions support *truncated* networks — the locality auditor of
    :mod:`repro.verify.locality` re-runs node programs on r-ball subgraphs
    that must be indistinguishable from the full network:

    * ``identifiers`` — an explicit vertex -> identifier mapping (distinct
      positive ints, not necessarily ``1..n``).  Ports still enumerate
      neighbours in increasing identifier order, so an interior vertex of a
      ball subgraph sees the exact port numbering it had in the full graph.
    * ``declared_n`` — the value of ``n`` announced to the node programs
      (:attr:`n`), defaulting to the actual vertex count.  Algorithms whose
      schedules depend on ``n`` (Cole–Vishkin iterations, Linial parameter
      triples) then behave as if they ran in the full network.
    """

    def __init__(
        self,
        graph: GraphLike,
        identifier_order: list[Vertex] | None = None,
        *,
        identifiers: Mapping[Vertex, int] | None = None,
        declared_n: int | None = None,
    ):
        self.graph = graph
        self._default_order = identifiers is None and identifier_order is None
        if identifiers is not None:
            if identifier_order is not None:
                raise ValueError("pass identifier_order or identifiers, not both")
            if set(identifiers) != set(graph.vertices()):
                raise ValueError("identifiers must cover exactly the vertices")
            ids = {v: int(i) for v, i in identifiers.items()}
            if len(set(ids.values())) != len(ids) or (ids and min(ids.values()) < 1):
                raise ValueError("identifiers must be distinct positive integers")
            # ports enumerate neighbours by increasing identifier, exactly
            # like the default 1..n assignment enumerates them by index
            order = sorted(ids, key=ids.__getitem__)
            self.identifier_of = ids
        elif identifier_order is not None:
            order = list(identifier_order)
            if set(order) != set(graph.vertices()):
                raise ValueError("identifier_order must be a permutation of the vertices")
            self.identifier_of = {v: i + 1 for i, v in enumerate(order)}
        elif isinstance(graph, FrozenGraph) and isinstance(graph._labels, range):
            # identifiers 1..n in vertex order: the maps below are built
            # only if a caller reads them, and identity labels stay the
            # graph's own range instead of a list(range(n)) copy
            order = graph._labels
        else:
            order = graph.vertices()
        self._order: Sequence[Vertex] = order
        if declared_n is None:
            self.declared_n = len(order)
        else:
            self.declared_n = int(declared_n)
            if self.declared_n < len(order):
                raise ValueError("declared_n must be at least the vertex count")
        if not self._default_order:
            self.identifiers_list = [self.identifier_of[v] for v in order]
            if self.identifiers_list and max(self.identifiers_list) > self.declared_n:
                raise ValueError("identifiers must lie in 1..declared_n")
        self._fabric: RoutingFabric | None = None
        self._ports: dict[Vertex, list[Vertex]] | None = None
        self._port_of: dict[Vertex, dict[Vertex, int]] | None = None

    # ------------------------------------------------------------------
    # Identifier maps, built on first read.  The identifier_order= and
    # identifiers= paths set identifier_of and identifiers_list in
    # __init__, so the two bodies below only ever see the default order.
    # ------------------------------------------------------------------
    @cached_property
    def identifier_of(self) -> dict[Vertex, int]:
        """Vertex -> identifier."""
        return {v: i + 1 for i, v in enumerate(self._order)}

    @cached_property
    def vertex_of(self) -> dict[int, Vertex]:
        """Identifier -> vertex."""
        return {i: v for v, i in self.identifier_of.items()}

    @cached_property
    def identifiers_list(self) -> list[int]:
        """Identifiers by node index."""
        return list(range(1, len(self._order) + 1))

    @cached_property
    def _index(self) -> Mapping[Vertex, int]:
        """Label -> node index; an unknown label raises :class:`KeyError`.

        On a :attr:`csr_graph` this is the graph's own label index, so no
        second n-entry dict is built.
        """
        graph = self.csr_graph
        if graph is not None:
            return graph._index
        return {v: i for i, v in enumerate(self._order)}

    @property
    def csr_graph(self) -> FrozenGraph | None:
        """The frozen graph whose CSR index is the node index, else ``None``.

        Set when the network numbers a :class:`FrozenGraph` in its default
        order: node ``i`` is then CSR vertex ``i``, so the fabric is the
        graph's own CSR and a batched result's positions are its indices.
        """
        graph = self.graph
        if self._default_order and isinstance(graph, FrozenGraph):
            return graph
        return None

    # ------------------------------------------------------------------
    # Flat-array data plane
    # ------------------------------------------------------------------
    @property
    def labels(self) -> Sequence[Vertex]:
        """Vertex labels by node index (``labels[i]`` has identifier ``i+1``).

        The graph's own ``range`` when identity labels keep their order.
        """
        return self._order

    @property
    def fabric(self) -> RoutingFabric:
        """The routing fabric, built once per network on first use."""
        if self._fabric is None:
            self._fabric = self._build_fabric()
        return self._fabric

    @cached_property
    def identifiers_np(self):
        """``identifiers_list`` as a cached ``int64`` array."""
        if self._default_order:
            return np.arange(1, len(self._order) + 1, dtype=np.int64)
        return np.asarray(self.identifiers_list, dtype=np.int64)

    def _build_fabric(self) -> RoutingFabric:
        csr = self.csr_graph
        if csr is not None:
            # zero-copy fast path: identifiers follow the CSR vertex indices
            # and each neighbour slice is already sorted by index
            return _fabric_from_csr(*csr.csr_arrays())
        # general path: relabel the frozen CSR to node indices and re-sort
        # it by (node, neighbour), i.e. each neighbourhood by identifier
        frozen = freeze(self.graph)
        offsets, neighbors = frozen.csr_arrays()
        n = len(self._order)
        index = self._index
        node_of = np.fromiter(
            (index[v] for v in frozen.vertices()), dtype=np.int64, count=n
        )
        sources = np.repeat(node_of, np.diff(offsets))
        keys, shift = _sorted_pair_keys(sources, node_of[neighbors], n, n)
        keys &= (1 << shift) - 1
        offsets = np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=n))))
        return _fabric_from_csr(offsets, keys)

    # ------------------------------------------------------------------
    # Dict-based lookup API (lazy views over the fabric)
    # ------------------------------------------------------------------
    @property
    def ports(self) -> dict[Vertex, list[Vertex]]:
        """Per-vertex neighbour labels in port order (lazy)."""
        if self._ports is None:
            fabric = self.fabric
            order = self._order
            self._ports = {
                v: [
                    order[fabric.endpoints[k]]
                    for k in range(fabric.offsets[i], fabric.offsets[i + 1])
                ]
                for i, v in enumerate(order)
            }
        return self._ports

    @property
    def port_of(self) -> dict[Vertex, dict[Vertex, int]]:
        """Inverse port tables ``v -> {neighbor: port}`` (lazy)."""
        if self._port_of is None:
            self._port_of = {
                v: {u: p for p, u in enumerate(nbrs)}
                for v, nbrs in self.ports.items()
            }
        return self._port_of

    @property
    def n(self) -> int:
        """The ``n`` known to every node (``declared_n``; the vertex count by default)."""
        return self.declared_n

    def degree(self, v: Vertex) -> int:
        i = self._index[v]
        fabric = self.fabric
        return fabric.offsets[i + 1] - fabric.offsets[i]

    def neighbor_on_port(self, v: Vertex, port: int) -> Vertex:
        i = self._index[v]
        fabric = self.fabric
        base = fabric.offsets[i]
        if not 0 <= port < fabric.offsets[i + 1] - base:
            raise IndexError(f"vertex {v!r} has no port {port}")
        return self._order[fabric.endpoints[base + port]]

    def port_towards(self, v: Vertex, neighbor: Vertex) -> int:
        return self.port_of[v][neighbor]

    # ------------------------------------------------------------------
    # Input translation
    # ------------------------------------------------------------------
    def translate_inputs(
        self, inputs: Mapping[Vertex, Any] | Any | None
    ) -> dict[Vertex, Any]:
        """Normalize per-vertex inputs (missing vertices get ``None``).

        Accepts either a vertex-keyed mapping or a sequence/array aligned
        with the node index order (``labels``) — the flat data plane hands
        inputs around as arrays, the dict engines as mappings.
        """
        if inputs is None:
            return {v: None for v in self.graph}
        if isinstance(inputs, Mapping):
            inputs = dict(inputs)
            return {v: inputs.get(v) for v in self.graph}
        if len(inputs) != len(self._order):
            raise ValueError("sequence inputs must have one entry per vertex")
        index = self._index
        return {v: inputs[index[v]] for v in self.graph}

    def inputs_list(self, inputs: Mapping[Vertex, Any] | Any | None):
        """Per-node inputs by node index (missing vertices get ``None``).

        Mapping inputs are spread by vertex label; sequence/array inputs
        are taken as already index-aligned and returned as-is (arrays stay
        arrays — the batched programs consume them zero-copy).
        """
        if inputs is None:
            return [None] * len(self._order)
        if isinstance(inputs, Mapping):
            if not inputs:
                return [None] * len(self._order)
            return [inputs.get(v) for v in self._order]
        if len(inputs) != len(self._order):
            raise ValueError("sequence inputs must have one entry per vertex")
        return inputs
