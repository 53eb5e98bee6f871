"""The per-vertex loops of the distributed baselines: the reference for their arrays.

``repro.distributed`` runs the H-partition, Barenboim–Elkin and the
Moser–Tardos resampler on the CSR arrays of a frozen graph only.  This
module keeps the label code those paths replaced, so the parity suites can
compare the two:

* :func:`per_node_delta_plus_one` — Linial plus color reduction as
  per-node programs, the twins of the batched ones
  :func:`repro.distributed.linial.delta_plus_one_coloring` runs;
* :func:`h_partition` — the peel over label sets, one degree walk per
  peeled vertex;
* :func:`barenboim_elkin_coloring` — the H-partition above, the per-node
  Linial slot coloring of each class, and the sequential sweep in which
  every vertex of a slot takes the first palette color its colored
  neighbours do not hold;
* :func:`moser_tardos_list_coloring` — the resampler with one Python pass
  over every vertex's neighbours per step and one scalar draw per
  resampled vertex.

On a frozen input every function returns what the matching ``repro`` entry
point returns: the same classes, colorings, rounds, ledger totals, steps
and logs.
"""

from __future__ import annotations

import math

from repro.coloring.assignment import Color
from repro.coloring.palette import FlatListAssignment
from repro.distributed.barenboim_elkin import BarenboimElkinResult
from repro.distributed.forest_decomposition import HPartition
from repro.distributed.linial import (
    ColorReductionAlgorithm,
    DistributedColoringResult,
    LinialColoringAlgorithm,
)
from repro.distributed.randomized import (
    MoserTardosResult,
    ResampleLimitError,
    ResampleStep,
    _kth_set_bit_scalar,
    counter_rng_one,
)
from repro.errors import ColoringError, SimulationError
from repro.graphs.frozen import freeze
from repro.graphs.graph import Vertex
from repro.local.ledger import RoundLedger
from repro.local.network import Network
from repro.local.simulator import run_node_algorithm


# -- Linial + color reduction ----------------------------------------------


def per_node_delta_plus_one(graph, max_degree: int | None = None) -> DistributedColoringResult:
    """(Δ+1)-coloring by the per-node Linial, then per-node color reduction."""
    if graph.number_of_vertices() == 0:
        return DistributedColoringResult({}, 0, 0, 1)
    frozen = freeze(graph)
    network = Network(frozen)
    delta = max(1, frozen.max_degree() if max_degree is None else max_degree)
    linial = run_node_algorithm(
        frozen, LinialColoringAlgorithm, inputs={v: delta for v in frozen},
        network=network,
    )
    palette = max(p for (_c, p) in linial.outputs.values())
    reduction = run_node_algorithm(
        frozen, ColorReductionAlgorithm,
        inputs={v: (c, palette, delta) for v, (c, _p) in linial.outputs.items()},
        max_rounds=palette + 5, network=network,
    )
    return DistributedColoringResult(
        coloring=dict(reduction.outputs.items()),
        rounds=linial.rounds + reduction.rounds,
        messages=linial.messages_sent + reduction.messages_sent,
        palette_size=delta + 1,
    )


# -- H-partition ------------------------------------------------------------


def h_partition(graph, arboricity: int, epsilon: float = 1.0) -> HPartition:
    """The H-partition peel over label sets (degree bound ``(2+ε)a``)."""
    if arboricity < 1:
        raise ValueError("arboricity must be at least 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    threshold = (2.0 + epsilon) * arboricity
    ledger = RoundLedger()
    remaining = set(graph.vertices())
    degrees = {v: graph.degree(v) for v in graph}
    classes: list[set[Vertex]] = []
    class_of: dict[Vertex, int] = {}
    limit = 4 * graph.number_of_vertices() + 8
    iteration = 0
    while remaining:
        iteration += 1
        if iteration > limit:
            raise SimulationError(
                "H-partition did not converge; the arboricity parameter "
                f"({arboricity}) is probably an underestimate"
            )
        peeled = {v for v in remaining if degrees[v] <= threshold}
        if not peeled:
            raise SimulationError(
                "H-partition stalled: no vertex of degree at most "
                f"{threshold:.1f} remains; the arboricity parameter "
                f"({arboricity}) is an underestimate"
            )
        index = len(classes)
        classes.append(peeled)
        for v in peeled:
            class_of[v] = index
        remaining -= peeled
        for v in peeled:
            for u in graph.neighbors(v):
                if u in remaining:
                    degrees[u] -= 1
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


# -- Barenboim–Elkin ----------------------------------------------------------


def barenboim_elkin_coloring(
    graph, arboricity: int, epsilon: float = 1.0
) -> BarenboimElkinResult:
    """Barenboim–Elkin with a sequential sweep of every (class, slot) cohort."""
    palette_size = int(math.floor((2.0 + epsilon) * arboricity)) + 1
    ledger = RoundLedger()
    if graph.number_of_vertices() == 0:
        return BarenboimElkinResult({}, 0, 0, 0, HPartition([], {}, 0, 0), ledger)
    partition = h_partition(graph, arboricity, epsilon)
    ledger.extend(partition.ledger)
    palette = list(range(1, palette_size + 1))

    coloring: dict[Vertex, Color] = {}
    total_rounds = partition.rounds
    for class_index in range(len(partition.classes) - 1, -1, -1):
        members = partition.classes[class_index]
        class_graph = graph.subgraph(members)
        slots = per_node_delta_plus_one(class_graph)
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


# -- Moser–Tardos -------------------------------------------------------------


def moser_tardos_list_coloring(
    graph, lists, *, seed: int, max_steps: int | None = None
) -> MoserTardosResult:
    """The per-vertex Moser–Tardos resampler over ``{vertex: list}`` lists."""
    graph = freeze(graph)
    flat = FlatListAssignment(dict(lists))
    vertices = graph.vertices()
    n = len(vertices)
    masks = [flat.mask_of(v) for v in vertices]
    if max_steps is None:
        max_steps = 64 + 16 * n
    index = {v: i for i, v in enumerate(vertices)}
    nbrs = [[index[u] for u in graph.neighbors(v)] for v in vertices]

    def draw(i, step):
        bits = counter_rng_one(seed, i + 1, step)
        mask = masks[i]
        return _kth_set_bit_scalar(mask, bits % mask.bit_count())

    colors = [draw(i, 0) for i in range(n)]
    log = []
    step = 0
    while True:
        violated = sorted(
            {i for i in range(n) for j in nbrs[i] if colors[i] == colors[j]}
        )
        if not violated:
            break
        step += 1
        if step > max_steps:
            raise ResampleLimitError(
                f"no proper list coloring after {max_steps} resample steps"
            )
        log.append(ResampleStep(step, tuple(violated)))
        for i in violated:
            colors[i] = draw(i, step)
    color_of = flat.universe.color_of
    return MoserTardosResult(
        coloring={v: color_of(bit) for v, bit in zip(vertices, colors)},
        steps=len(log),
        log=tuple(log),
        seed=int(seed),
    )
