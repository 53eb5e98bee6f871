"""Distributed greedy (Δ+1)-coloring baseline ("local maxima pick first").

In every round, each uncolored vertex whose identifier is the largest among
its uncolored neighbours picks the smallest color of ``{1..Δ+1}`` not used
by its colored neighbours.  The round complexity is the length of the
longest decreasing identifier path — O(n) in the worst case and O(log n) in
expectation for random identifiers — which makes it a useful "no cleverness"
baseline to compare the structured algorithms against.  It is implemented
as a genuine node program on the synchronous simulator, in both the
per-node form (:class:`GreedyLocalMaximaAlgorithm`) and the vectorized
batched form (:class:`BatchGreedyLocalMaximaAlgorithm`);
:func:`greedy_distributed_coloring` runs the batched one.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graphs.frozen import GraphLike, freeze
from repro.local import kernels
from repro.local.network import Network
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
    segment_reduce,
    smallest_free_color,
)
from repro.local.simulator import run_node_algorithm
from repro.distributed.linial import DistributedColoringResult

__all__ = [
    "GreedyLocalMaximaAlgorithm",
    "BatchGreedyLocalMaximaAlgorithm",
    "greedy_distributed_coloring",
]


class GreedyLocalMaximaAlgorithm(NodeAlgorithm):
    """Node program for the local-maxima greedy coloring.

    Input (per node): the maximum degree Δ (int).  Output: a color in
    ``{1..Δ+1}``, or 0 while the node is uncolored (a run cut short by its
    round cap).
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        self.max_degree = int(context.input)
        self.color: int | None = None
        self.neighbor_state: dict[int, tuple[int, int | None]] = {}

    def send(self, round_number: int) -> dict[int, Any]:
        payload = (self.context.identifier, self.color)
        return {port: payload for port in range(self.context.degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        self.neighbor_state = dict(messages)
        if self.color is not None:
            return
        uncolored_neighbor_ids = [
            identifier
            for identifier, color in self.neighbor_state.values()
            if color is None
        ]
        if any(identifier > self.context.identifier for identifier in uncolored_neighbor_ids):
            return
        used = {
            color for _id, color in self.neighbor_state.values() if color is not None
        }
        for candidate in range(1, self.max_degree + 2):
            if candidate not in used:
                self.color = candidate
                return

    def is_finished(self) -> bool:
        return self.color is not None

    def result(self) -> int:
        # 0 while uncolored, like the batched twin's register
        return 0 if self.color is None else self.color


class BatchGreedyLocalMaximaAlgorithm(BatchNodeAlgorithm):
    """Batched port of :class:`GreedyLocalMaximaAlgorithm`.

    Every round all nodes broadcast their color (0 encodes "uncolored";
    neighbour identifiers are read off the fabric, which is exactly the
    information the per-node protocol re-broadcasts every round), so a
    round counts every slot.  Rounds, message counts and outputs match the
    per-node run exactly.

    The program broadcasts one value per node, and
    ``receive_broadcast`` counts eligibility instead of re-deriving it.
    Before round 1 the program counts, per node, the neighbours with a
    higher identifier, all uncolored then.  A node whose count is 0
    beats every uncolored neighbour: it wins this round and takes the
    smallest color its neighbours do not hold
    (:func:`~repro.local.node.smallest_free_color`, at any palette width,
    over the winners' slots only).  A winner's lower-identifier
    neighbours are all uncolored, since each of them still had the winner
    to beat, so each loses one count; those whose count reaches 0 win the
    next round.  A round thus costs what its winners' slots cost.
    ``receive_batch`` keeps the per-round rule over the whole fabric alive
    as the unfused reference.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        self.colors = np.zeros(context.n, dtype=np.int64)  # 0 = uncolored
        self.nbr_ids = context.identifiers[context.endpoints]
        self.done = context.n == 0
        # per node, the uncolored neighbours with a higher identifier (all
        # of them, before round 1), and the nodes whose count is 0
        outranked = self.nbr_ids > context.identifiers[context.sources]
        self._higher = segment_reduce(np.add, outranked, context.offsets)
        self._winners = np.flatnonzero(self._higher == 0)

    def send_batch(self, round_number: int):
        return self.colors

    def receive_broadcast(self, round_number: int, node_values) -> None:
        context = self.context
        winners = self._winners
        slots, offsets = kernels.compact_segments(context.offsets, winners)
        far = context.endpoints[slots]
        self.colors[winners] = smallest_free_color(node_values[far], offsets)
        beaten = self.nbr_ids[slots] < np.repeat(
            context.identifiers[winners], np.diff(offsets)
        )
        touched, counts = np.unique(far[beaten], return_counts=True)
        higher = self._higher
        higher[touched] -= counts
        self._winners = touched[higher[touched] == 0]
        self.done = self._winners.size == 0

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        context = self.context
        rival = segment_reduce(
            np.maximum, np.where(inbox == 0, self.nbr_ids, 0), context.offsets
        )
        free = smallest_free_color(inbox, context.offsets, context.sources)
        eligible = (context.identifiers > rival) & (self.colors == 0)
        self.colors = np.where(eligible, free, self.colors)
        self.done = bool((self.colors > 0).all())

    def is_finished_batch(self) -> bool:
        return self.done

    def results_batch(self) -> np.ndarray:
        return self.colors.copy()


def greedy_distributed_coloring(
    graph: GraphLike,
    batched: bool = True,
    network: Network | None = None,
) -> DistributedColoringResult:
    """Run the local-maxima greedy baseline and return coloring + rounds.

    The graph is frozen at the boundary (pass a prebuilt ``network=`` to
    amortize that across repeated runs).  The run is the batched
    :class:`BatchGreedyLocalMaximaAlgorithm`, and the coloring is the
    engine's :class:`~repro.local.simulator.LazyOutputs` view; the parity
    suites check it against the per-node
    :class:`GreedyLocalMaximaAlgorithm`.  ``batched`` accepts only
    ``True``; any other value raises ``ValueError``.  A run that hits its
    round cap raises :class:`~repro.errors.NonTerminationError` rather
    than return a partial coloring.
    """
    if batched is not True:
        raise ValueError(
            f"unknown batched={batched!r}; greedy_distributed_coloring runs "
            "only its batched program"
        )
    if graph.number_of_vertices() == 0:
        return DistributedColoringResult({}, 0, 0, 1)
    if network is None:
        graph = freeze(graph)
        network = Network(graph)
    else:
        graph = network.graph
    delta = max(1, graph.max_degree())
    run = run_node_algorithm(
        graph,
        BatchGreedyLocalMaximaAlgorithm,
        inputs=[delta] * len(network.labels),
        max_rounds=graph.number_of_vertices() + 2,
        strict=True,
        network=network,
    )
    return DistributedColoringResult(
        coloring=run.outputs,
        rounds=run.rounds,
        messages=run.messages_sent,
        palette_size=delta + 1,
    )
