"""The Barenboim–Elkin arboricity-based coloring baseline.

Barenboim and Elkin [4] color graphs of arboricity ``a`` with
``floor((2+ε)a) + 1`` colors in ``O(a log n)`` rounds (for constant ε).
This is the algorithm that Corollary 1.4 of the paper improves upon (the
paper achieves ``2a`` colors — at least one fewer — at the cost of a larger
polylogarithmic round complexity).  We reproduce it so that the experiment
tables can report the color counts and round costs of both sides.

Procedure:

1. compute the H-partition ``H_1, ..., H_ℓ`` (``ℓ = O(log n)``) with degree
   bound ``A = (2+ε) a``;
2. process classes from ``H_ℓ`` down to ``H_1``; within a class, the induced
   subgraph has maximum degree at most ``A``, so the distributed
   (Δ+1)-coloring of :func:`repro.distributed.linial.delta_plus_one_coloring`
   assigns "slots" ``0..A`` to the class vertices;
3. iterate over the slots: all vertices of the current slot pick, at the
   same time, a free color from ``{1, ..., floor(A)+1}`` — a free color
   exists because each such vertex has at most ``A`` neighbours in its own
   and later classes, and only those can be colored already.

Rounds are charged per phase to a ledger: the measured rounds of the slot
coloring runs plus one round per slot per class plus the partition rounds.

Every phase runs on the flat machinery: the vectorized peel of
:func:`~repro.distributed.forest_decomposition.h_partition`, the batched
Linial/color-reduction ports for the per-class slots, and
:class:`BatchSlotColorSelection` — a genuine
:class:`~repro.local.node.BatchNodeAlgorithm` that runs the whole slot
phase on the flat round engine, one numpy array per round.  The input is
frozen on entry, so identifiers follow the CSR vertex order.  The
per-vertex loops this replaced (H-partition over label sets, sequential
slot sweeps) are kept in the test suite as the reference it is checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.assignment import Color
from repro.errors import ColoringError
from repro.graphs.frozen import freeze
from repro.graphs.graph import Graph, Vertex
from repro.local.ledger import RoundLedger
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    announced_constant,
    smallest_free_color,
)
from repro.local.simulator import run_node_algorithm
from repro.distributed.forest_decomposition import HPartition, h_partition
from repro.distributed.linial import delta_plus_one_coloring

__all__ = [
    "BarenboimElkinResult",
    "BatchSlotColorSelection",
    "barenboim_elkin_coloring",
]


@dataclass
class BarenboimElkinResult:
    """Coloring, palette size and round accounting of the baseline."""

    coloring: dict[Vertex, Color]
    colors_used: int
    palette_size: int
    rounds: int
    partition: HPartition
    ledger: RoundLedger = field(default_factory=RoundLedger)


class BatchSlotColorSelection(BatchNodeAlgorithm):
    """The slot phase of Barenboim–Elkin as a batched node program.

    Input (per node): ``(class_index, slot, palette_size, slot_counts)``
    where ``slot_counts`` is the per-class tuple of slot-cohort sizes.  The
    last two fields are the same for every node — like ``n``, they are
    global knowledge the driver announces to all nodes — so the global
    schedule (classes in decreasing order, slots ``0..slot_counts[c]-1``
    within each class) is a deterministic function of each node's *own*
    input.  Deriving it from the observed maxima instead would silently
    read global structure no message-passing node could know, which the
    locality auditor of :mod:`repro.verify.locality` flags.  In round ``r``
    the scheduled ``(class, slot)`` cohort — a stable set, the slots being
    a proper coloring of their class — simultaneously picks the smallest
    palette color not used by a colored neighbour, while all nodes
    broadcast their current color (0 encodes "uncolored").  This is
    exactly a sequential sweep of the cohorts; one simulator round per
    (class, slot) pair keeps the charged-round accounting identical.
    The free-color pick is :func:`~repro.local.node.smallest_free_color`,
    so any palette width runs here; nodes announced different palettes
    or schedules raise :class:`~repro.errors.SimulationError`.
    """

    def initialize_batch(self, context: BatchContext) -> None:
        super().initialize_batch(context)
        inputs = context.inputs
        self.class_of = np.asarray([c for (c, _s, _p, _sc) in inputs], dtype=np.int64)
        self.slot_of = np.asarray([s for (_c, s, _p, _sc) in inputs], dtype=np.int64)
        palette_size, slot_counts = announced_constant(
            self, ((p, sc) for (_c, _s, p, sc) in inputs),
            "palette and slot schedule", default=(0, ()),
        )
        self.palette_size = int(palette_size)
        # schedule: classes from the last down to 0, slots ascending within
        # each class, sized by the announced per-class slot counts
        slot_counts = tuple(slot_counts)
        schedule: list[tuple[int, int]] = []
        for class_index in range(len(slot_counts) - 1, -1, -1):
            schedule.extend(
                (class_index, slot) for slot in range(slot_counts[class_index])
            )
        self.schedule = schedule
        self.step = 0
        self.colors = np.zeros(context.n, dtype=np.int64)  # 0 = uncolored
        self._src = context.sources

    def send_batch(self, round_number: int):
        return self.colors

    def receive_batch(self, round_number: int, inbox, delivered) -> None:
        class_index, slot = self.schedule[self.step]
        self.step += 1
        scheduled = (self.class_of == class_index) & (self.slot_of == slot)
        if scheduled.any():
            free = smallest_free_color(inbox, self.context.offsets, self._src)
            if bool((scheduled & (free > self.palette_size)).any()):
                raise ColoringError(
                    "Barenboim–Elkin ran out of colors; the arboricity "
                    "parameter is an underestimate"
                )
            self.colors = np.where(scheduled, free, self.colors)

    def is_finished_batch(self) -> bool:
        return self.step >= len(self.schedule)

    def results_batch(self) -> list[int]:
        return [int(c) for c in self.colors]


def barenboim_elkin_coloring(
    graph: Graph, arboricity: int, epsilon: float = 1.0
) -> BarenboimElkinResult:
    """Color ``graph`` with ``floor((2+ε)a) + 1`` colors (Barenboim–Elkin).

    Runs the H-partition, the per-class slot coloring and the
    slot-selection phase on the flat substrate (see the module
    docstring), at any palette width.
    """
    palette_size = int(math.floor((2.0 + epsilon) * arboricity)) + 1
    ledger = RoundLedger()
    if graph.number_of_vertices() == 0:
        return BarenboimElkinResult({}, 0, 0, 0, HPartition([], {}, 0, 0), ledger)
    frozen = freeze(graph)
    partition = h_partition(frozen, arboricity, epsilon)
    ledger.extend(partition.ledger)
    total_rounds = partition.rounds

    # per-class slot colorings, processed (and charged) last class first
    slot_of: dict[Vertex, tuple[int, int]] = {}
    slot_counts = [1] * len(partition.classes)
    for class_index in range(len(partition.classes) - 1, -1, -1):
        members = partition.classes[class_index]
        class_graph = frozen.subgraph(members)
        slots = delta_plus_one_coloring(class_graph)
        ledger.charge(
            "Barenboim–Elkin: slot coloring of one class",
            slots.rounds,
            reference="within-class (Δ+1)-coloring",
        )
        total_rounds += slots.rounds
        slot_counts[class_index] = max(slots.coloring.values(), default=0) + 1
        for v in members:
            slot_of[v] = (class_index, slots.coloring[v])

    # the schedule constants are broadcast to every node as part of its
    # input (global knowledge, like n), so the batched program can derive
    # the cohort schedule without peeking at the whole input array
    announced = tuple(slot_counts)
    slot_inputs = {
        v: (class_index, slot, palette_size, announced)
        for v, (class_index, slot) in slot_of.items()
    }

    run = run_node_algorithm(
        frozen,
        BatchSlotColorSelection,
        inputs=slot_inputs,
        max_rounds=len(frozen) * (palette_size + 2) + 8,
        strict=True,
    )
    slot_rounds = run.rounds
    ledger.charge(
        "Barenboim–Elkin: one slot selects colors",
        slot_rounds,
        reference="greedy selection within a stable slot (batched engine)",
    )
    total_rounds += slot_rounds
    coloring = {v: int(c) for v, c in run.outputs.items()}
    return BarenboimElkinResult(
        coloring=coloring,
        colors_used=len(set(coloring.values())),
        palette_size=palette_size,
        rounds=total_rounds,
        partition=partition,
        ledger=ledger,
    )
