"""Self-stabilizing recoloring protocols (min+1 and stabilizing greedy).

Unlike the terminating pipelines, a self-stabilizing protocol never
halts: every round each node re-examines its neighbourhood and repairs
its color register if it is in an *illegitimate* state, whatever
transient faults (corrupted colors, reboots, topology churn, lost or
duplicated messages) put it there.  Convergence is to a *silent legal
state*: a proper coloring within the palette, after which no node
changes state again until the next perturbation.  Recovery runs use
the static engine's round loops (per-node and batched), with the fault
plane of :mod:`repro.faults.engine` attached as round hooks; this module
only defines the node programs, in both forms (the dict/flat parity axis
extends to recovery runs).
The batched forms run at every palette width — the hubs of a planar
graph can push the palette past any fixed bitmask — so the flat backend
never falls back to per-node objects.  Their rounds cost what their
frontier costs: one compare over the delivered inbox finds the
conflicts, and only the rows of the nodes that can move feed the rival
test and the smallest free color, so a repair after a few faults pays
for the damage, not for n.

Two protocols, following the min+1 line of Dubois–Masuzawa–Tixeuil
(see PAPERS.md and docs/fault_tolerance.md):

:class:`MinPlusOneRecoloring`
    The min+1 repair rule with an identifier tie-break.  Nodes
    broadcast ``(id, color, dirty)`` where ``dirty`` flags a detected
    conflict or out-of-palette color.  A dirty node whose identifier
    beats every dirty neighbour recolors to the minimum palette color
    absent from its neighbourhood (the "min+1" choice).  Movers of one
    round form an independent set, so each repair is final with respect
    to the state it observed and the dirty set shrinks monotonically
    between perturbations — conflicts never spread past the nodes that
    detect them, which is the containment property the
    :class:`~repro.verify.recovery` auditor measures.

:class:`StabilizingGreedyAlgorithm`
    The stabilizing variant of the batched greedy Δ+1 baseline: a node
    that detects a conflict (or an out-of-range color) *drops* to
    uncolored, and uncolored local maxima repick greedily exactly as in
    :mod:`repro.distributed.greedy_baseline`.  Started from the all-
    uncolored state on a static graph it reproduces the baseline's
    trajectory; after a fault it re-runs greedy only on the damaged
    region.

Both per-node programs deliberately keep *no port-indexed state across
rounds* — topology edits renumber ports between rounds, so any decision
uses only the messages of the current round.  Both report
``is_finished() == False`` forever (stabilizing protocols have no
terminal state); a run stops when the fault plane's hooks detect
quiescence, not by the engine's active-set termination.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.local import kernels
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    NodeAlgorithm,
    NodeContext,
    announced_constant,
    segment_reduce,
    smallest_free_color,
)

__all__ = [
    "StabilizingNodeAlgorithm",
    "BatchStabilizingAlgorithm",
    "MinPlusOneRecoloring",
    "BatchMinPlusOneRecoloring",
    "StabilizingGreedyAlgorithm",
    "BatchStabilizingGreedy",
    "STABILIZING_PROTOCOLS",
]


def _unpack_input(value: Any) -> tuple[int, int]:
    """Normalize the per-node input ``(budget, initial_color)``.

    A pair is a tuple or a row of the fault plane's ``(n, 2)`` input array.
    """
    if isinstance(value, (tuple, np.ndarray)):
        budget, color = value
        return int(budget), int(color or 0)
    return int(value), 0


class StabilizingNodeAlgorithm(NodeAlgorithm):
    """Shared surface of per-node stabilizing programs.

    The fault plane drives these through three extra methods:
    :meth:`corrupt` / :meth:`reset` inject state faults, and
    :meth:`snapshot` exposes the *full* protocol state (not just the
    output color) so quiescence detection cannot stop while invisible
    state — a dirty flag, say — is still evolving.
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        self.budget, self.color = _unpack_input(context.input)

    def corrupt(self, value: int) -> None:
        self.color = int(value)

    def reset(self) -> None:
        self.color = 0

    def snapshot(self) -> tuple:
        return (self.color,)

    def is_finished(self) -> bool:
        return False

    def result(self) -> int:
        return self.color


class BatchStabilizingAlgorithm(BatchNodeAlgorithm):
    """Shared surface of batched stabilizing programs.

    The batched twin of :class:`StabilizingNodeAlgorithm`: one ``int64``
    color register per node, state faults by node index
    (:meth:`corrupt_batch` / :meth:`reset_batch`), the full-state
    :meth:`snapshot`, and :meth:`on_topology_change`, which the engine
    calls with the rebuilt context after an edge edit.  The inputs are
    ``(budget, color)`` pairs, or the fault plane's ``(n, 2)`` ``int64``
    array of them, read by column; every node must be announced the same
    palette budget.  A broadcast program:
    ``send_batch`` returns one value per node, and under the fault
    plane's hooks the engine always materializes the per-slot inbox, so
    drops and duplications can edit single slots before
    :meth:`receive_batch`.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        inputs = context.inputs
        if not isinstance(inputs, np.ndarray):
            inputs = np.array(
                [_unpack_input(x) for x in inputs], dtype=np.int64
            ).reshape(-1, 2)
        budgets = inputs[:, 0]
        # a uniform column has one value: its minimum and maximum agree
        self.budget = announced_constant(
            self, (int(budgets.min()), int(budgets.max())) if len(budgets) else (),
            "palette budget", default=1,
        )
        self.colors = np.array(inputs[:, 1], dtype=np.int64)
        self.on_topology_change(context)

    def on_topology_change(self, context: BatchContext) -> None:
        self.context = context

    def corrupt_batch(self, index: int, value: int) -> None:
        self.colors[index] = int(value)

    def reset_batch(self, index: int) -> None:
        self.colors[index] = 0

    def snapshot(self) -> tuple:
        return (self.colors.tobytes(),)

    def is_finished_batch(self) -> bool:
        return False

    def results_batch(self) -> list[int]:
        return self.colors.tolist()

    def colors_array(self):
        """The color registers as an ``int64`` array copy, by node index."""
        return self.colors.copy()

    def _conflicted(self, heard):
        """Mask of the nodes that heard their own color, when it is not 0."""
        sources = self.context.sources
        hit = np.flatnonzero(heard == self.colors[sources])
        conflicted = np.zeros(self.context.n, dtype=np.bool_)
        conflicted[sources[hit[heard[hit] != 0]]] = True
        return conflicted

    def _rival(self, nodes, heard, contends):
        """Per node of ``nodes``, the largest neighbour id whose slot ``contends``.

        ``contends`` maps the values heard on those nodes' slots to a mask;
        a node with no contending neighbour gets 0.
        """
        context = self.context
        slots, offsets = kernels.compact_segments(context.offsets, nodes)
        ids = context.identifiers[context.endpoints[slots]]
        return segment_reduce(
            np.maximum, np.where(contends(heard[slots]), ids, 0), offsets
        )

    def _free(self, nodes, heard):
        """Per node of ``nodes``, the smallest color >= 1 absent from its slots."""
        slots, offsets = kernels.compact_segments(self.context.offsets, nodes)
        return smallest_free_color(heard[slots], offsets)


class MinPlusOneRecoloring(StabilizingNodeAlgorithm):
    """Min+1 repair with identifier tie-break; broadcasts (id, color, dirty)."""

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        self.dirty = False

    def reset(self) -> None:
        super().reset()
        self.dirty = False

    def snapshot(self) -> tuple:
        return (self.color, self.dirty)

    def send(self, round_number: int) -> dict[int, Any]:
        payload = (self.context.identifier, self.color, self.dirty)
        return {port: payload for port in range(self.context.degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        neighbours = list(messages.values())
        illegal = not 1 <= self.color <= self.budget
        rival = max(
            (ident for ident, _color, dirty in neighbours if dirty), default=0
        )
        if self.dirty and self.context.identifier > rival:
            # enabled: movers form an independent set (every dirty
            # neighbour sees this bigger dirty id and stays put), so the
            # min free color is conflict-free against what was observed
            used = {color for _ident, color, _dirty in neighbours}
            for candidate in range(1, self.budget + 1):
                if candidate not in used:
                    self.color = candidate
                    self.dirty = False
                    return
            self.dirty = True  # no free color (cannot happen within budget)
            return
        conflict = any(
            color == self.color and color != 0
            for _ident, color, _dirty in neighbours
        )
        self.dirty = illegal or conflict


class BatchMinPlusOneRecoloring(BatchStabilizingAlgorithm):
    """Batched port of :class:`MinPlusOneRecoloring`.

    Messages pack ``color * 2 + dirty`` into one int64 per slot
    (identifiers are read off the fabric, as in the greedy baseline
    port).  Injected colors are clamped non-negative by the plan, so the
    packing stays order-preserving.  Per round, the conflicts come from
    one compare over the whole inbox; only the dirty nodes' rows feed the
    rival (the largest dirty neighbour identifier), and only the enabled
    nodes' rows feed the min+1 choice,
    :func:`~repro.local.node.smallest_free_color`, which works at any
    palette width.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        self.dirty = np.zeros(context.n, dtype=np.int64)

    def reset_batch(self, index: int) -> None:
        super().reset_batch(index)
        self.dirty[index] = 0

    def snapshot(self) -> tuple:
        return (self.colors.tobytes(), self.dirty.tobytes())

    def send_batch(self, round_number: int):
        return self.colors * 2 + self.dirty

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        # a dropped slot behaves exactly like a (color 0, clean) message:
        # no id contribution, no conflict, no used color — zero it out
        heard = inbox if delivered is None else np.where(delivered, inbox, 0)
        nbr_color = heard >> 1
        colors = self.colors
        dirty = self._conflicted(nbr_color)
        dirty |= (colors < 1) | (colors > self.budget)
        contenders = np.flatnonzero(self.dirty)
        rival = self._rival(contenders, heard, lambda values: values & 1)
        enabled = contenders[self.context.identifiers[contenders] > rival]
        free = self._free(enabled, nbr_color)
        # an enabled node with every palette color taken stays put and
        # dirty: it heard its own color, or its color is illegal
        moves = free <= self.budget
        movers = enabled[moves]
        colors[movers] = free[moves]
        dirty[movers] = False
        self.dirty = dirty.astype(np.int64)


class StabilizingGreedyAlgorithm(StabilizingNodeAlgorithm):
    """Drop-then-repick: conflicted nodes uncolor, greedy repairs the hole."""

    def send(self, round_number: int) -> dict[int, Any]:
        payload = (self.context.identifier, self.color)
        return {port: payload for port in range(self.context.degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        neighbours = list(messages.values())
        illegal = self.color < 0 or self.color > self.budget
        conflict = any(
            color == self.color and color != 0 for _ident, color in neighbours
        )
        if illegal or conflict:
            self.color = 0  # drop now, repick once the neighbourhood sees it
            return
        if self.color != 0:
            return
        rival = max(
            (ident for ident, color in neighbours if color == 0), default=0
        )
        if self.context.identifier <= rival:
            return
        used = {color for _ident, color in neighbours if color != 0}
        for candidate in range(1, self.budget + 1):
            if candidate not in used:
                self.color = candidate
                return


class BatchStabilizingGreedy(BatchStabilizingAlgorithm):
    """Batched port of :class:`StabilizingGreedyAlgorithm`.

    Raw colors travel on the slots (0 = uncolored); dropped slots are
    encoded as -1 so a lost message is distinguishable from a genuine
    "I am uncolored" broadcast — losing that broadcast is precisely how
    message faults perturb the greedy repair.  Per round, the conflicts
    come from one compare over the whole inbox.  The candidates are the
    uncolored nodes, which are never illegal and never in conflict: only
    their rows feed the rival (the largest identifier heard as
    uncolored), and only the rows of the candidates that beat it feed
    :func:`~repro.local.node.smallest_free_color`.
    """

    def send_batch(self, round_number: int):
        return self.colors

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        heard = inbox if delivered is None else np.where(delivered, inbox, -1)
        colors = self.colors
        drop = self._conflicted(heard)
        drop |= (colors < 0) | (colors > self.budget)
        candidates = np.flatnonzero(colors == 0)
        rival = self._rival(candidates, heard, lambda values: values == 0)
        winners = candidates[self.context.identifiers[candidates] > rival]
        free = self._free(winners, heard)
        colors[drop] = 0  # drop now, repick once the neighbourhood sees it
        # a winner with every palette color taken stays uncolored
        picks = free <= self.budget
        colors[winners[picks]] = free[picks]


#: protocol name -> (per-node factory, batched factory); the scenario's
#: protocol axis and the fault plane's callers resolve through this table.
STABILIZING_PROTOCOLS = {
    "min-plus-one": (MinPlusOneRecoloring, BatchMinPlusOneRecoloring),
    "stabilizing-greedy": (StabilizingGreedyAlgorithm, BatchStabilizingGreedy),
}
