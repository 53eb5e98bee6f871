"""Distributed greedy (Δ+1)-coloring baseline ("local maxima pick first").

In every round, each uncolored vertex whose identifier is the largest among
its uncolored neighbours picks the smallest color of ``{1..Δ+1}`` not used
by its colored neighbours.  The round complexity is the length of the
longest decreasing identifier path — O(n) in the worst case and O(log n) in
expectation for random identifiers — which makes it a useful "no cleverness"
baseline to compare the structured algorithms against.  It is implemented
as a genuine node program on the synchronous simulator, in both the
per-node form (:class:`GreedyLocalMaximaAlgorithm`) and the vectorized
batched form (:class:`BatchGreedyLocalMaximaAlgorithm`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graphs.frozen import GraphLike, freeze
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
    information the per-node protocol re-broadcasts every round), and the
    per-node decision rule is replayed with segmented numpy reductions: an
    uncolored node whose identifier beats the max uncolored-neighbour id
    takes the smallest color its neighbours do not hold
    (:func:`~repro.local.node.smallest_free_color`, at any palette width).
    Rounds, message counts and outputs match the per-node run exactly.

    The program runs in ``"broadcast"`` exchange mode and
    ``receive_broadcast`` adds *active-set compaction*: only uncolored
    nodes can change state, so once fewer than half the nodes remain
    uncolored the decision runs over just the active nodes' slots
    (:func:`repro.local.kernels.compact_segments`) instead of the whole
    fabric.  Every path applies the one rule of :meth:`_decide`, so every
    output, round and message count is identical to the dense path, which
    ``receive_batch`` keeps alive as the unfused reference.
    """

    exchange_mode = "broadcast"

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        self.colors = np.zeros(context.n, dtype=np.int64)  # 0 = uncolored
        self.nbr_ids = context.identifiers[context.endpoints]
        self.done = context.n == 0
        self._active = None  # uncolored node indices once compaction kicks in

    def send_batch(self, round_number: int):
        return self.colors

    @staticmethod
    def _decide(ids, nbr_colors, nbr_ids, offsets, sources):
        """Eligibility and free color of the nodes whose slots are given.

        ``nbr_colors``/``nbr_ids`` are per slot, ``offsets`` delimits each
        node's slots and ``sources`` names each slot's node (0-based over
        the given nodes).  A node is eligible when its identifier beats
        every uncolored neighbour's.
        """
        rival = segment_reduce(
            np.maximum, np.where(nbr_colors == 0, nbr_ids, 0), offsets, empty=0
        )
        return ids > rival, smallest_free_color(nbr_colors, offsets, sources)

    def receive_broadcast(self, round_number: int, node_values) -> None:
        from repro.local import kernels

        context = self.context
        active = self._active
        if active is None and 2 * int((self.colors == 0).sum()) > context.n:
            # dense round: decide over the whole fabric (same arithmetic as
            # receive_batch, minus the inbox materialization)
            self.receive_batch(round_number, node_values[context.endpoints], None)
            still = np.flatnonzero(self.colors == 0)
            if 2 * still.size <= context.n:
                self._active = still
            return
        if active is None:
            active = np.flatnonzero(self.colors == 0)
        # compact round: gather only the active nodes' neighbourhoods
        slots, compact_offsets = kernels.compact_segments(
            context.offsets, active
        )
        eligible, free = self._decide(
            context.identifiers[active],
            node_values[context.endpoints[slots]],
            self.nbr_ids[slots],
            compact_offsets,
            np.repeat(np.arange(active.size, dtype=np.int64), np.diff(compact_offsets)),
        )
        self.colors[active[eligible]] = free[eligible]
        self._active = active[~eligible]
        self.done = self._active.size == 0

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        context = self.context
        eligible, free = self._decide(
            context.identifiers, inbox, self.nbr_ids, context.offsets,
            context.sources,
        )
        self.colors = np.where(eligible & (self.colors == 0), free, self.colors)
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
    amortize that across repeated runs); ``batched=False`` forces the
    per-node program.  A batched run returns the engine's
    :class:`~repro.local.simulator.LazyOutputs` view as the coloring; a run
    that hits its round cap raises
    :class:`~repro.errors.NonTerminationError` rather than return a
    partial coloring.
    """
    if graph.number_of_vertices() == 0:
        return DistributedColoringResult({}, 0, 0, 1)
    if network is None:
        graph = freeze(graph)
        network = Network(graph)
    else:
        graph = network.graph
    delta = max(1, graph.max_degree())
    algorithm = (
        BatchGreedyLocalMaximaAlgorithm if batched else GreedyLocalMaximaAlgorithm
    )
    run = run_node_algorithm(
        graph,
        algorithm,
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
