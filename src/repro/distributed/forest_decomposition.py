"""H-partition and forest decomposition (Barenboim–Elkin).

The *H-partition* of a graph of arboricity ``a`` with parameter ``ε``
partitions the vertices into ``ℓ = O(log n)`` classes ``H_1, ..., H_ℓ``
such that every vertex of ``H_i`` has at most ``(2+ε) a`` neighbours in
``H_i ∪ ... ∪ H_ℓ``.  It is computed by repeatedly peeling the vertices of
degree at most ``(2+ε) a`` (at least an ``ε/(2+ε)`` fraction of the
remaining vertices qualifies, by a counting argument on the number of
edges), one peeling step per communication round.

From the partition one obtains an acyclic orientation of out-degree at most
``(2+ε)a`` (orient every edge towards the endpoint in the later class,
breaking ties by identifier), and hence a decomposition of the edges into
at most ``floor((2+ε)a)`` forests (edge ``(u -> v)`` joins forest ``i`` if
``v`` is the ``i``-th out-neighbour of ``u``).  These are the ingredients
of the Barenboim–Elkin coloring baseline reproduced in
:mod:`repro.distributed.barenboim_elkin`.

:func:`h_partition` peels on the CSR arrays of the frozen input, so a
mutable graph gets the classes of its frozen copy.  The label-set loop
it replaced is kept in the test suite as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.graphs.frozen import freeze
from repro.graphs.graph import Graph, Vertex
from repro.local.ledger import RoundLedger
from repro.local.node import segment_reduce

__all__ = ["HPartition", "h_partition", "orientation_from_partition"]


@dataclass
class HPartition:
    """An H-partition together with its measured parameters."""

    classes: list[set[Vertex]]
    class_of: dict[Vertex, int]
    degree_bound: float
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def number_of_classes(self) -> int:
        return len(self.classes)


def h_partition(graph: Graph, arboricity: int, epsilon: float = 1.0) -> HPartition:
    """Compute the H-partition with degree bound ``(2 + epsilon) * arboricity``.

    The peel runs on the CSR arrays of the frozen graph: one pass is a
    degree threshold test plus one segmented count of the peeled
    neighbours, and charges one round.  Raises :class:`SimulationError` if
    the peeling stalls, which only happens when ``arboricity``
    underestimates the true arboricity of the graph (the counting argument
    then fails).
    """
    if arboricity < 1:
        raise ValueError("arboricity must be at least 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    graph = freeze(graph)
    threshold = (2.0 + epsilon) * arboricity
    ledger = RoundLedger()
    labels = graph.vertices()
    n = len(labels)
    offsets, neighbors = graph.csr_arrays()
    degrees = np.diff(offsets).astype(np.int64)
    remaining = np.ones(n, dtype=bool)
    classes: list[set[Vertex]] = []
    class_of: dict[Vertex, int] = {}
    # every pass peels a vertex or raises, so at most n passes run
    while bool(remaining.any()):
        peeled = remaining & (degrees <= threshold)
        if not bool(peeled.any()):
            raise SimulationError(
                "H-partition stalled: no vertex of degree at most "
                f"{threshold:.1f} remains; the arboricity parameter "
                f"({arboricity}) is an underestimate"
            )
        index = len(classes)
        peeled_idx = np.flatnonzero(peeled)
        members = {labels[int(i)] for i in peeled_idx}
        classes.append(members)
        for v in members:
            class_of[v] = index
        remaining &= ~peeled
        # degree update: every remaining vertex loses its peeled neighbours
        degrees -= segment_reduce(
            np.add, peeled[neighbors].astype(np.int64), offsets, empty=0
        )
        ledger.charge(
            "H-partition: peel one class",
            1,
            reference="Barenboim–Elkin [4], Procedure Partition",
        )
    return HPartition(
        classes=classes,
        class_of=class_of,
        degree_bound=threshold,
        rounds=len(classes),
        ledger=ledger,
    )


def orientation_from_partition(
    graph: Graph, partition: HPartition
) -> dict[Vertex, list[Vertex]]:
    """Orient every edge towards the later class (ties broken by repr of label).

    Returns the out-neighbour lists; the maximum out-degree is at most the
    partition's degree bound.
    """
    out: dict[Vertex, list[Vertex]] = {v: [] for v in graph}
    for u, v in graph.edges():
        cu, cv = partition.class_of[u], partition.class_of[v]
        if (cu, repr(u)) <= (cv, repr(v)):
            out[u].append(v)
        else:
            out[v].append(u)
    return out
