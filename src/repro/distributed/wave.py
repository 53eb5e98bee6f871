"""Wave 2-coloring of a rooted path: the Ω(n) lower-bound workload.

Observation 2.4 / Theorem 1.5 territory: 2-coloring a path (and
4-coloring a planar graph) needs Ω(n) rounds, so any experiment that
wants to *show* the linear-round regime needs a protocol whose round
count genuinely is ``n`` — and a simulator that can afford n = 10^5
rounds.  The wave protocol is the minimal such workload: the root
colors itself 0 and broadcasts once; a node that first hears a color
``c`` at distance ``d`` adopts ``1 - c`` (i.e. ``d mod 2``) and
broadcasts once the next round.  The wavefront advances one hop per
round: exactly ``n`` rounds and one broadcast per node (``2(n-1)``
directed messages on a path) to 2-color the whole path.

Per-round work is O(frontier), not O(n): the batched program runs in
the engine's sparse exchange (:mod:`repro.local.node`),
sending only the frontier's slots, which is what makes an Ω(n)-round
simulation at n = 10^5 tractable — the per-node twin (and the seed
engine) spend Θ(n) per round just asking silent nodes for messages, so
the ``simulator`` scenario runs the large-n lower-bound rows on the
batched engine only, with cross-engine parity pinned at small n by the
test suite.

The batched round works on Python ints (a color list, a frontier list,
slot ranges read one node at a time) rather than on numpy arrays: a path's
frontier is one or two nodes, where numpy's fixed cost per call would
dominate the round.  Each node broadcasts exactly once, so the per-slot
Python work summed over a run is O(m) whatever shape the frontier takes;
only a fixed handful of numpy calls per round remain (the slot array the
engine routes and one gather naming the receivers).

The protocol works on any tree (colors = distance parity from the
root); nodes unreachable from a root never finish, exactly like a
quiescence property should fail on a disconnected instance.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.local.node import BatchContext, BatchNodeAlgorithm, NodeAlgorithm, NodeContext

__all__ = ["WaveTwoColoring", "BatchWaveTwoColoring"]


class WaveTwoColoring(NodeAlgorithm):
    """Per-node wave program.

    Input: truthy marks the root(s).  Output: color in ``{0, 1}``.
    A node broadcasts its color exactly once, in the round after it was
    colored; on multiple simultaneous deliveries the lowest port wins
    (the batched twin replays the same tie-break).
    """

    def initialize(self, context: NodeContext) -> None:
        super().initialize(context)
        root = bool(context.input)
        self.color: int = 0 if root else -1
        self.pending: bool = root  # colored, broadcast still owed
        self.spoke: bool = False  # the one broadcast has happened

    def send(self, round_number: int) -> dict[int, Any]:
        if not self.pending:
            return {}
        return {port: self.color for port in range(self.context.degree)}

    def receive(self, round_number: int, messages: dict[int, Any]) -> None:
        if self.pending:
            self.pending = False
            self.spoke = True
        if self.color < 0 and messages:
            self.color = 1 - messages[min(messages)]
            self.pending = True

    def is_finished(self) -> bool:
        return self.color >= 0 and self.spoke and not self.pending

    def result(self) -> int:
        return self.color


class BatchWaveTwoColoring(BatchNodeAlgorithm):
    """Batched wave on the engine's sparse exchange.

    ``send_batch`` returns only the frontier's ``(slots, values)``; the
    engine charges ``len(slots)`` messages and hands the destinations to
    :meth:`receive_active`, which walks them in destination-slot order so
    each receiver adopts its lowest port's color and joins the next
    frontier once.  Rounds, per-round message counts and colors are
    identical to the per-node program.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        n = context.n
        inputs = context.inputs
        if isinstance(inputs, np.ndarray):
            roots = np.flatnonzero(inputs != 0).tolist()
        else:
            roots = [i for i, x in enumerate(inputs) if x]
        self.colors = [-1] * n
        for root in roots:
            self.colors[root] = 0
        self._front = roots
        self._uncolored = n - len(roots)
        self.done = n == 0

    def send_batch(self, round_number: int):
        if not self._front:
            return None
        offsets = self.context.offsets
        colors = self.colors
        slots: list[int] = []
        values: list[int] = []
        for v in self._front:
            lo, hi = offsets[v:v + 2].tolist()
            slots.extend(range(lo, hi))
            values.extend([colors[v]] * (hi - lo))
        return np.array(slots, dtype=np.int64), values

    def receive_active(self, round_number: int, dest_slots, values) -> None:
        newly: list[int] = []
        if dest_slots is not None and len(dest_slots):
            colors = self.colors
            receivers = self.context.sources[dest_slots].tolist()
            # inbox slots of a node are contiguous and port-ordered, so
            # walking the deliveries by destination slot puts each
            # receiver's lowest port first — the per-node tie-break
            for _, receiver, color in sorted(
                zip(dest_slots.tolist(), receivers, values)
            ):
                if colors[receiver] < 0:
                    colors[receiver] = 1 - color
                    newly.append(receiver)
        self._front = newly
        self._uncolored -= len(newly)
        self.done = not newly and self._uncolored == 0

    def is_finished_batch(self) -> bool:
        return self.done

    def results_batch(self) -> np.ndarray:
        # the rounds keep Python lists; the result is one int64 array
        return np.array(self.colors, dtype=np.int64)
