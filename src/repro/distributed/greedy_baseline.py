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
    lowest_free_bit,
    segment_reduce,
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
    ``{1..Δ+1}``.
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

    def result(self) -> int | None:
        return self.color


class BatchGreedyLocalMaximaAlgorithm(BatchNodeAlgorithm):
    """Batched port of :class:`GreedyLocalMaximaAlgorithm`.

    Every round all nodes broadcast their color (0 encodes "uncolored";
    neighbour identifiers are read off the fabric, which is exactly the
    information the per-node protocol re-broadcasts every round), and the
    per-node decision rule is replayed with segmented numpy reductions: an
    uncolored node whose identifier beats the max uncolored-neighbour id
    takes the lowest bit absent from the OR of its neighbours' color bits.
    Rounds, message counts and outputs match the per-node run exactly.

    The color-set bit trick needs ``Δ + 1 < 63``; wider palettes decline
    :meth:`can_run` and fall back to the per-node program transparently.

    The program runs in ``"broadcast"`` exchange mode and
    ``receive_broadcast`` adds *active-set compaction*: only uncolored
    nodes can change state, so once fewer than half the nodes remain
    uncolored the rival/used reductions run over just the active nodes'
    slots (:func:`repro.local.kernels.compact_segments`) instead of the
    whole fabric.  The decision rule — and hence every output, round and
    message count — is identical to the dense path, which
    ``receive_batch`` keeps alive as the unfused reference.
    """

    fallback = GreedyLocalMaximaAlgorithm
    exchange_mode = "broadcast"

    def can_run(self, context: BatchContext) -> bool:
        inputs = context.inputs
        if isinstance(inputs, np.ndarray):
            max_degree = int(inputs.max()) if inputs.size else 0
        else:
            max_degree = max(
                (int(x) for x in inputs if x is not None), default=0
            )
        return max_degree + 1 < 63

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        self._src = context.sources
        self.colors = np.zeros(context.n, dtype=np.int64)  # 0 = uncolored
        self.nbr_ids = context.identifiers[context.endpoints]
        self.done = context.n == 0
        self._active = None  # uncolored node indices once compaction kicks in

    def send_batch(self, round_number: int):
        return self.colors

    def _commit(self, active, eligible, free) -> None:
        """Color the eligible active nodes and refresh the active set."""
        winners = active[eligible]
        self.colors[winners] = free[eligible]
        remaining = active[~eligible]
        self._active = remaining
        self.done = remaining.size == 0

    def receive_broadcast(self, round_number: int, node_values) -> None:
        from repro.local import kernels

        context = self.context
        active = self._active
        if active is None and 2 * int((self.colors == 0).sum()) > context.n:
            # dense round: reduce over the whole fabric (same arithmetic as
            # receive_batch, minus the inbox materialization)
            inbox = node_values[context.endpoints]
            uncolored = self.colors == 0
            rival = segment_reduce(
                np.maximum,
                np.where(inbox == 0, self.nbr_ids, 0),
                context.offsets,
                empty=0,
            )
            eligible_mask = uncolored & (context.identifiers > rival)
            used = segment_reduce(
                np.bitwise_or,
                np.where(inbox > 0, 1 << inbox, 0),
                context.offsets,
                empty=0,
            ) | 1
            free = lowest_free_bit(used)
            self.colors = np.where(eligible_mask, free, self.colors)
            still = np.flatnonzero(self.colors == 0)
            if 2 * still.size <= context.n:
                self._active = still
            self.done = still.size == 0
            return
        if active is None:
            active = np.flatnonzero(self.colors == 0)
        # compact round: gather only the active nodes' neighbourhoods
        slots, compact_offsets = kernels.compact_segments(
            context.offsets, active
        )
        nbr_colors = node_values[context.endpoints[slots]]
        rival = segment_reduce(
            np.maximum,
            np.where(nbr_colors == 0, self.nbr_ids[slots], 0),
            compact_offsets,
            empty=0,
        )
        eligible = context.identifiers[active] > rival
        used = segment_reduce(
            np.bitwise_or,
            np.where(nbr_colors > 0, 1 << nbr_colors, 0),
            compact_offsets,
            empty=0,
        ) | 1
        free = lowest_free_bit(used)
        self._commit(active, eligible, free)

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        offsets = self.context.offsets
        uncolored = self.colors == 0
        # max identifier among *uncolored* neighbours (0 when none)
        rival = segment_reduce(
            np.maximum, np.where(inbox == 0, self.nbr_ids, 0), offsets, empty=0
        )
        eligible = uncolored & (self.context.identifiers > rival)
        # lowest color >= 1 outside the OR of colored neighbours' bits
        used = segment_reduce(
            np.bitwise_or,
            np.where(inbox > 0, 1 << inbox, 0),
            offsets,
            empty=0,
        ) | 1
        free = lowest_free_bit(used)
        self.colors = np.where(eligible, free, self.colors)
        self.done = bool((self.colors > 0).all())

    def is_finished_batch(self) -> bool:
        return self.done

    def results_batch(self) -> list[int]:
        return self.colors.tolist()


def greedy_distributed_coloring(
    graph: GraphLike,
    batched: bool = True,
    network: Network | None = None,
) -> DistributedColoringResult:
    """Run the local-maxima greedy baseline and return coloring + rounds.

    The graph is frozen at the boundary (pass a prebuilt ``network=`` to
    amortize that across repeated runs); ``batched=False`` forces the
    per-node program.
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
        network=network,
    )
    return DistributedColoringResult(
        coloring=run.outputs.copy(),
        rounds=run.rounds,
        messages=run.messages_sent,
        palette_size=delta + 1,
    )
