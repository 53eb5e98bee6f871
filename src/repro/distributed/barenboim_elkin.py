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

Two substrates implement the procedure:

* ``backend="dict"`` — the historical per-vertex loops (H-partition over
  label sets, sequential slot sweeps);
* ``backend="flat"`` — the same schedule on the flat machinery: a
  vectorized peel for the H-partition, the batched Linial/color-reduction
  ports for the per-class slots, and :class:`BatchSlotColorSelection` — a
  genuine :class:`~repro.local.node.BatchNodeAlgorithm` that runs the
  whole slot phase on the flat round engine, one numpy array per round.
  On a frozen input graph both backends produce the identical coloring and
  charge identical rounds (identifier assignment follows the CSR vertex
  order either way); on a mutable graph the class subgraph orderings — and
  hence the exact colors — may differ while palette and validity are
  unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.assignment import Color
from repro.errors import ColoringError, SimulationError
from repro.graphs.frozen import freeze
from repro.graphs.graph import Graph, Vertex
from repro.local.ledger import RoundLedger
from repro.local.node import (
    BatchContext,
    BatchNodeAlgorithm,
    announced_constant,
    segment_reduce,
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
    exactly the sequential sweep of the dict backend; one simulator round
    per (class, slot) pair keeps the charged-round accounting identical.
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
        return self.colors[self._src]

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


def _h_partition_flat(graph, arboricity: int, epsilon: float) -> HPartition:
    """Vectorized H-partition peel over a frozen graph's CSR arrays.

    Same classes, class indices and charged rounds as
    :func:`~repro.distributed.forest_decomposition.h_partition` — only the
    per-iteration work is one degree threshold test plus one segmented
    count instead of per-vertex set walks.
    """
    if arboricity < 1:
        raise ValueError("arboricity must be at least 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    threshold = (2.0 + epsilon) * arboricity
    ledger = RoundLedger()
    labels = graph.vertices()
    n = len(labels)
    offsets, neighbors = graph.csr_arrays()
    degrees = np.diff(offsets).astype(np.int64)
    remaining = np.ones(n, dtype=bool)
    classes: list[set[Vertex]] = []
    class_of: dict[Vertex, int] = {}
    limit = 4 * n + 8
    iteration = 0
    while bool(remaining.any()):
        iteration += 1
        if iteration > limit:
            raise SimulationError(
                "H-partition did not converge; the arboricity parameter "
                f"({arboricity}) is probably an underestimate"
            )
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


def barenboim_elkin_coloring(
    graph: Graph, arboricity: int, epsilon: float = 1.0, backend: str = "flat",
) -> BarenboimElkinResult:
    """Color ``graph`` with ``floor((2+ε)a) + 1`` colors (Barenboim–Elkin).

    ``backend="flat"`` runs the H-partition, the per-class slot coloring
    and the slot-selection phase on the flat substrate (see the module
    docstring), at any palette width; ``backend="dict"`` is the
    per-vertex reference.
    """
    if backend not in ("dict", "flat"):
        raise ValueError(f"unknown backend {backend!r}; use 'dict' or 'flat'")
    palette_size = int(math.floor((2.0 + epsilon) * arboricity)) + 1
    ledger = RoundLedger()
    if graph.number_of_vertices() == 0:
        return BarenboimElkinResult({}, 0, 0, 0, HPartition([], {}, 0, 0), ledger)
    if backend == "flat":
        return _barenboim_elkin_flat(freeze(graph), arboricity, epsilon, ledger)
    partition = h_partition(graph, arboricity, epsilon)
    ledger.extend(partition.ledger)
    palette = list(range(1, palette_size + 1))

    coloring: dict[Vertex, Color] = {}
    total_rounds = partition.rounds
    for class_index in range(len(partition.classes) - 1, -1, -1):
        members = partition.classes[class_index]
        class_graph = graph.subgraph(members)
        slots = delta_plus_one_coloring(class_graph)
        ledger.charge(
            "Barenboim–Elkin: slot coloring of one class",
            slots.rounds,
            reference="within-class (Δ+1)-coloring",
        )
        total_rounds += slots.rounds
        slot_count = max(slots.coloring.values(), default=0) + 1
        for slot in range(slot_count):
            slot_vertices = [v for v in members if slots.coloring.get(v) == slot]
            for v in slot_vertices:
                used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
                free = [color for color in palette if color not in used]
                if not free:
                    raise ColoringError(
                        "Barenboim–Elkin ran out of colors; the arboricity "
                        f"parameter ({arboricity}) is an underestimate"
                    )
                coloring[v] = free[0]
            ledger.charge(
                "Barenboim–Elkin: one slot selects colors",
                1,
                reference="greedy selection within a stable slot",
            )
            total_rounds += 1
    return BarenboimElkinResult(
        coloring=coloring,
        colors_used=len(set(coloring.values())),
        palette_size=palette_size,
        rounds=total_rounds,
        partition=partition,
        ledger=ledger,
    )


def _barenboim_elkin_flat(
    frozen, arboricity: int, epsilon: float, ledger: RoundLedger
) -> BarenboimElkinResult:
    """Flat-substrate Barenboim–Elkin on a frozen graph."""
    partition = _h_partition_flat(frozen, arboricity, epsilon)
    ledger.extend(partition.ledger)
    palette_size = int(math.floor((2.0 + epsilon) * arboricity)) + 1
    total_rounds = partition.rounds

    # per-class slot colorings, processed (and charged) last class first —
    # the same order the dict backend sweeps them
    slot_of: dict[Vertex, tuple[int, int]] = {}
    slot_counts = [1] * len(partition.classes)
    for class_index in range(len(partition.classes) - 1, -1, -1):
        members = partition.classes[class_index]
        class_graph = frozen.subgraph(members)
        slots = delta_plus_one_coloring(class_graph, batched=True)
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
